// The transfer engine: the one sender loop and the one receiver pipeline
// behind every datapath in this package. Send, Session.Send, each stripe
// of a striped transfer, Listener.Accept, IncomingSession.Next and every
// Server transfer are thin adapters over the two engine types here — they
// differ only in how sockets are obtained, how the completion verdict is
// delivered, and who writes the control-channel ABORT, which is exactly
// what the endpoint parameters capture.
package udprt

import (
	"context"
	"fmt"
	"net"
	"time"

	"github.com/hpcnet/fobs/internal/batchio"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/flight"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/wire"
)

// ackPollSlots bounds the sender's acknowledgement-drain vector: acks are
// outnumbered ~AckFrequency:1 by data packets, so a short vector already
// catches every queued ack per poll.
const ackPollSlots = 8

// senderEndpoint is a sender engine's view of the network: the UDP data
// flow it batches onto (acknowledgements return on the same socket), the
// channel its completion verdict arrives on, and the control-channel abort
// path. Send, Session.Send and each stripe of a striped transfer supply
// one; the engine itself never touches a control connection directly, so
// stripes can share one behind a fan-out.
type senderEndpoint struct {
	// conn is the engine's own UDP data socket; its source port is what
	// the receiver acks back to, so every engine must have its own.
	conn *net.UDPConn
	// done delivers the transfer's terminal control verdict exactly once:
	// nil for a verified COMPLETE, an error (e.g. *AbortError) otherwise.
	done <-chan error
	// abort announces local failure on the control channel. Striped
	// endpoints serialize it so the shared connection carries one ABORT.
	abort func(wire.AbortReason)
	// progress, when non-nil, observes acknowledgement progress. Striped
	// transfers pass an aggregating closure here so Options.Progress sees
	// object-wide counts.
	progress func(knownReceived, total int)
}

// senderEngine owns the poll-ack / batch-send / select loop of the paper's
// sender for one data flow. It is deliberately single-threaded like the
// paper's sender: each iteration performs one non-blocking poll of the
// acknowledgement socket (the paper's select()-guarded "look for, but do
// not block for, an acknowledgement packet") followed by one batch-send.
// Only the TCP completion signal has its own goroutine — a hot sender loop
// must never be able to starve the poll that feeds it.
type senderEngine struct {
	senderEndpoint
	snd  *core.Sender
	cfg  core.Config
	opts Options
	tm   *metrics.Transfer
	fr   *flight.Recorder
	// cc is the engine's congestion controller (one per stripe, driven
	// only from the loop goroutine). Selected by Options.Congestion;
	// fixed — the paper's greedy sender — by default.
	cc Controller
	// io receives the engine's socket-level counters when run returns;
	// adapters aggregate it into Options.IOCounters.
	io stats.IOCounters
}

// newSenderEngine binds one prepared core.Sender to its endpoint. The
// opts.Congestion name must already be validated (newSenderPlan does).
func newSenderEngine(snd *core.Sender, ep senderEndpoint, opts Options, tm *metrics.Transfer, fr *flight.Recorder) *senderEngine {
	cfg := snd.Config()
	return &senderEngine{
		senderEndpoint: ep, snd: snd, cfg: cfg, opts: opts, tm: tm, fr: fr,
		cc: newController(opts.Congestion, cfg, opts),
	}
}

// rttProbeStale bounds how long one round-trip probe stays armed: if the
// probed packet's acknowledgement has not appeared in a second (lost
// packet, or a stalled flow), the probe is abandoned so a fresh round can
// arm a new one.
const rttProbeStale = time.Second

// encodeBatch pulls up to max packets from the sender's schedule and
// serializes each into its slot of the reusable ring, returning how many
// slots were filled and the sequence number of the first (firstSeq = -1
// when none; the engine's round-trip probe arms on it). The ring's buffers
// are pre-sized to the packet framing, so steady-state encoding allocates
// nothing — including the metrics note, which is a handful of atomic adds
// plus a bitmap test-and-set to classify retransmissions.
func encodeBatch(snd *core.Sender, ring [][]byte, max int, tm *metrics.Transfer, fr *flight.Recorder, base int) (k, firstSeq int) {
	firstSeq = -1
	for k < len(ring) && k < max {
		pkt, ok := snd.NextPacket()
		if !ok {
			break
		}
		if k == 0 {
			firstSeq = int(pkt.Seq)
		}
		ring[k] = wire.AppendData(ring[k][:0], &pkt)
		tm.NoteDataSent(pkt.Seq, len(pkt.Payload))
		fr.DataSent(pkt.Seq, len(pkt.Payload), base+k)
		k++
	}
	return k, firstSeq
}

// newSendRing builds the reusable encode ring: slots buffers each sized
// for one framed data packet.
func newSendRing(slots, packetSize int) [][]byte {
	ring := make([][]byte, slots)
	for i := range ring {
		ring[i] = make([]byte, 0, packetSize+wire.DataHeaderLen)
	}
	return ring
}

// run drives the engine until the completion verdict arrives on the
// endpoint's done channel or the transfer fails.
//
// The batch-send phase is where the fast path earns its keep: the B
// packets the batch policy chose are encoded into a reusable ring of
// pre-sized buffers and flushed as one sendmmsg vector (chunked at
// Options.IOBatch when B is larger; one write syscall per packet on the
// scalar path). The ack poll likewise drains every queued acknowledgement
// in one recvmmsg. Steady state allocates nothing per packet.
//
// Liveness: if the transfer is incomplete and no acknowledgement arrives
// for Options.StallTimeout, the loop aborts (ABORT stalled on the control
// channel) and returns an error wrapping ErrStalled. Persistent UDP write
// errors (e.g. ECONNREFUSED once the peer's socket is gone) surface after
// writeErrLimit failing batch rounds with no intervening acknowledgement;
// transient buffer pressure (ENOBUFS et al.) is absorbed by the pacing
// loop.
func (e *senderEngine) run(ctx context.Context) error {
	snd, cfg, opts := e.snd, e.cfg, e.opts
	tx, err := batchio.NewSender(e.conn, opts.IOBatch, !opts.NoFastPath)
	if err != nil {
		return fmt.Errorf("udprt: batched sender: %w", err)
	}
	tx.FlushHook = opts.testFlushHook
	rx, err := batchio.NewReceiver(e.conn, ackPollSlots, maxDatagram, !opts.NoFastPath)
	if err != nil {
		return fmt.Errorf("udprt: ack receiver: %w", err)
	}
	defer func() {
		c := tx.Counters()
		c.Add(rx.Counters())
		e.io = c
		e.tm.NoteIO(c)
	}()
	ring := newSendRing(opts.IOBatch, cfg.PacketSize)
	ackWords := make([]uint64, 0, wire.MaxFragWords(cfg.AckPacketSize))
	var paceDebt time.Duration
	// Congestion-controller observation state: ccLastSeq mirrors the core
	// sender's freshness rule (only an advancing ack serial is a rate
	// signal), ccSentSince counts the packets put on the wire since the
	// last fresh ack (the AckEvent's Sent), ccRetx is the watermark that
	// turns the sender's cumulative retransmit count into per-round
	// LossEvents, and probeSeq/probeAt are the single in-flight round-trip
	// probe (first sequence of a batch round, resolved when the sender's
	// bitmap shows it acknowledged).
	var (
		ccLastSeq   uint32
		ccSentSince int
		ccRetx      int
		probeSeq    = -1
		probeAt     time.Time
	)
	pollAck := func() error {
		n, rerr := rx.TryRecv()
		for i := 0; i < n; i++ {
			a, err := wire.DecodeAckInto(rx.Datagram(i), ackWords)
			if err != nil {
				continue
			}
			ackWords = a.Frag.Words[:0] // HandleAck consumed the fragment
			fresh := a.Transfer == cfg.Transfer && a.AckSeq > ccLastSeq
			if fresh {
				ccLastSeq = a.AckSeq
			}
			// Per-ack instrumentation (metrics counter, flight record,
			// latency histograms) fires inside HandleAck via the sender's
			// ack observer, which also sees exactly which packets the
			// fragment newly acknowledged.
			if snd.HandleAck(a) == nil {
				if e.progress != nil {
					e.progress(snd.Stats().KnownReceived, snd.NumPackets())
				}
				if fresh {
					e.cc.OnAck(AckEvent{
						Sent:  ccSentSince,
						Acked: int(a.Delta),
						Known: snd.Stats().KnownReceived,
						Total: snd.NumPackets(),
					})
					ccSentSince = 0
				}
			}
		}
		return rerr
	}
	acksSeen := 0
	lastAck := time.Now()
	writeErrs := 0
	var lastWriteErr error
	// noteWriteErr folds one persistent socket failure into the abort
	// accounting, reporting whether the limit is reached. Transient
	// buffer pressure does not count.
	noteWriteErr := func(err error) bool {
		if isTransientWriteErr(err) || isTimeout(err) {
			return false
		}
		writeErrs++
		lastWriteErr = err
		return writeErrs >= writeErrLimit
	}
	for {
		select {
		case err := <-e.done:
			snd.SetComplete()
			return err
		case <-ctx.Done():
			e.abort(wire.AbortCancelled)
			return ctx.Err()
		default:
		}
		// Phase 2: look for — never block for — acknowledgements. A
		// latched socket error consumed by the poll (the asynchronous
		// ECONNREFUSED of an earlier batch — which a partial sendmmsg
		// reports as a short count, not an errno) counts toward the
		// write-error limit, or the fast path could spin forever on a
		// dead peer that scalar writes would have exposed.
		if rerr := pollAck(); rerr != nil && noteWriteErr(rerr) {
			e.abort(wire.AbortUnspecified)
			return fmt.Errorf("udprt: data socket: %w", lastWriteErr)
		}
		// Liveness: any processed ack — fresh or stale — proves the
		// receiver is alive and resets both watchdog counters.
		if st := snd.Stats(); st.AcksProcessed > acksSeen {
			acksSeen = st.AcksProcessed
			lastAck = time.Now()
			writeErrs = 0
		} else if opts.StallTimeout > 0 && time.Since(lastAck) > opts.StallTimeout {
			snd.NoteStall()
			e.tm.NoteStall()
			e.fr.Phase(flight.PhaseStall, 0)
			e.abort(wire.AbortStalled)
			return fmt.Errorf("udprt: no acknowledgement for %v: %w",
				opts.StallTimeout, ErrStalled)
		}
		// Resolve or expire the round-trip probe: the moment the probed
		// sequence number shows acknowledged, send-to-ack bounds one
		// network round trip (an overestimate by up to the receiver's
		// ack-batching delay, which is part of the control loop anyway).
		if probeSeq >= 0 {
			if snd.Acked(probeSeq) {
				e.cc.OnRTT(time.Since(probeAt))
				probeSeq = -1
			} else if time.Since(probeAt) > rttProbeStale {
				probeSeq = -1 // probe lost; re-arm on the next round
			}
		}
		// Phases 1+3: batch-send with the schedule choosing each packet,
		// flushed in vectors of up to IOBatch datagrams. The batch policy
		// asks, the congestion controller may cap the ask and dictates the
		// per-packet pacing gap for the round.
		batch, gapPer := planRound(snd.BatchSize(), e.cc)
		e.fr.BatchSize(batch)
		sent := 0
		for sent < batch {
			k, firstSeq := encodeBatch(snd, ring, batch-sent, e.tm, e.fr, sent)
			if k == 0 {
				break
			}
			if probeSeq < 0 && firstSeq >= 0 {
				probeSeq, probeAt = firstSeq, time.Now()
			}
			m, err := tx.Send(ring[:k])
			sent += m
			if err != nil {
				if noteWriteErr(err) {
					e.abort(wire.AbortUnspecified)
					return fmt.Errorf("udprt: data write: %w", lastWriteErr)
				}
				break
			}
			if m < k {
				break // kernel backpressure: pace, poll, come back
			}
		}
		if sent == 0 {
			// Everything known-received, or this round's write failed:
			// logically blocked on an ack, the completion signal, or the
			// kernel buffer draining.
			select {
			case err := <-e.done:
				snd.SetComplete()
				return err
			case <-ctx.Done():
				e.abort(wire.AbortCancelled)
				return ctx.Err()
			case <-time.After(opts.IdlePoll):
			}
			continue
		}
		e.tm.NoteRound()
		ccSentSince += sent
		// Retransmit-classified losses of the round just sent: under the
		// circular schedule a re-send means the first copy (or its ack) is
		// missing — the only congestion signal an unacknowledged UDP flow
		// carries.
		if st := snd.Stats(); st.Retransmits > ccRetx {
			e.cc.OnLoss(LossEvent{Retransmits: st.Retransmits - ccRetx})
			ccRetx = st.Retransmits
		}
		// Pacing: the controller's per-packet gap accumulates into a debt
		// that sleeps only once it is coarse enough for the OS timer. For
		// the fixed policy gapPer is exactly Config.Rate.Gap()+Options.Pace
		// as of this round's ack poll — the historical inline arithmetic —
		// so the default schedule is bit-identical to the pre-policy
		// engine (pinned by the golden test).
		if gap := gapPer * time.Duration(sent); gap > 0 {
			paceDebt += gap
			if paceDebt >= time.Millisecond {
				time.Sleep(paceDebt)
				paceDebt = 0
			}
		}
	}
}

// receiverEngine owns the receive-side per-datagram pipeline for one
// transfer (or one stripe): classify via the state machine, place the
// payload, mirror the verdict into the metrics and the flight recorder,
// and frame the acknowledgement when one is due. The pull loop below and
// the Server's demux both feed it, so there is exactly one implementation
// of the receive pipeline in this package. An engine is not safe for
// concurrent use; its caller provides the serialization (a single loop
// goroutine, or the Server's per-transfer lock).
type receiverEngine struct {
	rcv    *core.Receiver
	tm     *metrics.Transfer
	fr     *flight.Recorder
	ackBuf []byte
	// ackCalls counts acknowledgement datagrams emitted for this engine;
	// the pull loop folds it into the socket counters (acks go out one
	// WriteToUDPAddrPort each).
	ackCalls int
	// finished latches the engine's first observation of completion so a
	// straggler duplicate cannot re-trigger completion actions.
	finished bool
}

// newReceiverEngine binds one prepared core.Receiver to its
// instrumentation. Either instrument may be nil.
func newReceiverEngine(rcv *core.Receiver, tm *metrics.Transfer, fr *flight.Recorder) *receiverEngine {
	return &receiverEngine{
		rcv: rcv, tm: tm, fr: fr,
		ackBuf: make([]byte, 0, rcv.Config().AckPacketSize+wire.AckHeaderLen),
	}
}

// ingest runs one decoded datagram (already demuxed to this engine's
// transfer tag) through the classify → place → ack pipeline. The returned
// ack frame aliases the engine's reusable buffer — put it on the wire (and
// note it) before the next ingest — and is nil when no acknowledgement is
// due. finishedNow reports the engine's first transition to complete. The
// hot path allocates nothing.
func (e *receiverEngine) ingest(d wire.Data) (ack []byte, ackSeq uint32, ackRecv int, finishedNow bool) {
	// The state machine classifies the packet (fresh, duplicate,
	// rejected, other-transfer straggler); diffing its value-typed
	// stats before and after mirrors that verdict into the metrics
	// without a second classification — and without allocating.
	before := e.rcv.Stats()
	ackDue, err := e.rcv.HandleData(d)
	noteReceiverDelta(e.tm, e.fr, d.Seq, before, e.rcv.Stats(), len(d.Payload))
	if err != nil {
		return nil, 0, 0, false
	}
	if ackDue {
		a := e.rcv.BuildAck()
		e.ackBuf = wire.AppendAck(e.ackBuf[:0], &a)
		ack, ackSeq, ackRecv = e.ackBuf, a.AckSeq, int(a.Received)
	}
	if !e.finished && e.rcv.Complete() {
		e.finished = true
		finishedNow = true
	}
	return ack, ackSeq, ackRecv, finishedNow
}

// noteAckSent records one emitted acknowledgement in both sinks; callers
// invoke it after the socket write succeeds.
func (e *receiverEngine) noteAckSent(ack []byte, ackSeq uint32, ackRecv int) {
	e.ackCalls++
	e.tm.NoteAckSent(len(ack))
	e.fr.AckSent(ackSeq, ackRecv, len(ack))
}

// noteIdle records a firing of the idle watchdog in the state machine and
// both sinks.
func (e *receiverEngine) noteIdle() {
	e.rcv.NoteIdle()
	e.tm.NoteIdle()
	e.fr.Phase(flight.PhaseIdle, 0)
}

// noteReceiverDelta translates one HandleData call's effect on the
// receiver's counters into the instrumentation classification. A packet
// that moved no counter belonged to another transfer and is not this
// transfer's traffic.
func noteReceiverDelta(tm *metrics.Transfer, fr *flight.Recorder, seq uint32,
	before, after core.ReceiverStats, payload int) {
	switch {
	case after.Received > before.Received:
		tm.NoteDataFresh(payload)
		fr.DataReceived(seq, payload, flight.ClassFresh)
	case after.Duplicates > before.Duplicates:
		tm.NoteDataDuplicate()
		fr.DataReceived(seq, payload, flight.ClassDuplicate)
	case after.Rejected > before.Rejected:
		tm.NoteDataRejected()
		fr.DataReceived(seq, payload, flight.ClassRejected)
	}
}

// runReceiveLoop drains one owned UDP socket into a set of receiver
// engines demuxed by transfer tag, until every engine's object completes.
// This is THE pull loop: Listener.Accept and IncomingSession.Next drive it
// with a single engine, a striped accept with one engine per stripe; the
// Server's push-side demux feeds the same engines from its own socket
// loop. Packets for unknown tags (stragglers of a previous object in a
// session) are dropped by the demux, exactly as the state machine's own
// tag check would.
//
// One wakeup processes a whole queue: the batched receiver pulls up to
// Options.IOBatch datagrams per recvmmsg syscall (one per read on the
// scalar path) and every datagram runs through the engine pipeline before
// the loop looks at the socket again. The hot path is allocation-free:
// datagrams land in the receiver's buffer ring, acks are serialized into
// each engine's reusable buffer, and replies go out through the net
// package's value-typed address API.
//
// cv, when non-nil, streams the content verdict: after each batch it hashes
// whatever contiguous prefix of the object has landed, so completion only
// hashes the tail. It runs here, on the goroutine that drives the
// receivers, because it reads their bitmaps and placed bytes.
//
// Liveness: if no datagram for any engine arrives for Options.IdleTimeout,
// the loop aborts the transfer (ABORT idle-timeout on the control channel,
// tagged with the transfer's base id) and returns an error wrapping
// ErrIdle. When watchCtl is true the loop additionally watches the control
// connection in the background, so a sender's ABORT or death ends the
// receive promptly; that is only safe on a connection dedicated to one
// transfer — on a session connection it would steal the next HELLO.
func runReceiveLoop(ctx context.Context, engines map[uint32]*receiverEngine, base uint32,
	udp *net.UDPConn, ctl net.Conn, opts Options, watchCtl bool, or *obs.Recorder, cv *contentVerifier) error {

	var abortCh <-chan error
	if watchCtl && ctl != nil {
		abortCh = watchControl(ctl, base)
	}
	rx, err := batchio.NewReceiver(udp, opts.IOBatch, maxDatagram, !opts.NoFastPath)
	if err != nil {
		return fmt.Errorf("udprt: batched receiver: %w", err)
	}
	var primary *receiverEngine
	remaining := 0
	for _, e := range engines {
		if primary == nil || e.rcv.Config().Transfer == base {
			primary = e
		}
		if !e.finished {
			remaining++
		}
	}
	defer func() {
		c := rx.Counters()
		ackCalls := 0
		for _, e := range engines {
			ackCalls += e.ackCalls
		}
		c.SendCalls, c.SentDatagrams = ackCalls, ackCalls
		if ackCalls > 0 {
			c.MaxSendBatch = 1 // acks go out one WriteToUDPAddrPort each
		}
		if opts.IOCounters != nil {
			*opts.IOCounters = c
		}
		// The socket is shared by every stripe, so its counters are
		// attributed to the base transfer's engine rather than split by a
		// guess; per-stripe ack emission is already counted per engine.
		primary.tm.NoteIO(c)
	}()
	lastData := time.Now()
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			writeAbort(ctl, base, wire.AbortCancelled)
			return err
		}
		select {
		case err := <-abortCh:
			return err
		default:
		}
		if opts.IdleTimeout > 0 && time.Since(lastData) > opts.IdleTimeout {
			for _, e := range engines {
				e.noteIdle()
			}
			writeAbort(ctl, base, wire.AbortIdleTimeout)
			return fmt.Errorf("udprt: no data for %v: %w", opts.IdleTimeout, ErrIdle)
		}
		udp.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, err := rx.Recv()
		if err != nil {
			if isTimeout(err) {
				continue
			}
			return fmt.Errorf("udprt: data read: %w", err)
		}
		for i := 0; i < n; i++ {
			d, err := wire.DecodeData(rx.Datagram(i))
			if err != nil {
				continue
			}
			e := engines[d.Transfer]
			if e == nil {
				continue
			}
			// Any datagram for this transfer — even a duplicate —
			// proves the sender is alive.
			lastData = time.Now()
			// First data of the transfer opens the rounds span. Once is a
			// single atomic load once latched, so the hot path stays
			// allocation-free (the gate below measures it).
			or.Once(obs.KindRounds, 0)
			ack, ackSeq, ackRecv, finishedNow := e.ingest(d)
			if ack != nil {
				if _, err := udp.WriteToUDPAddrPort(ack, rx.Addr(i)); err != nil {
					return fmt.Errorf("udprt: ack write: %w", err)
				}
				e.noteAckSent(ack, ackSeq, ackRecv)
			}
			if finishedNow {
				remaining--
			}
		}
		cv.advance()
	}
	return nil
}
