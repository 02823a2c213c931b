// Striped parallel transfers: Options.Streams splits one object into N
// contiguous stripes, each an independent FOBS transfer (its own transfer
// tag, sequence space and UDP data flow) driven by its own sender engine,
// all sharing a single control connection. One HELLOX announces the whole
// plan, one HELLO-ACK accepts it, and one COMPLETE — carrying the
// whole-object digest — finishes it, honouring the paper's object-based
// premise: the receive window spans the entire buffer, so stripes
// reassemble by placement into one pre-allocated object, never by copy.
// This is the real-network counterpart of the parallel-sockets baseline
// that internal/psockets reproduces in simulation.
package udprt

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/flight"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/wire"
)

// splitStripes divides a size-byte object into at most n contiguous
// stripes at packet boundaries, tagging stripe i with transfer id base+i.
// Packets are dealt as evenly as possible (the first size%n stripes get
// one extra), and n is clamped to the packet count so no stripe is empty.
// Stripe boundaries fall on packet boundaries purely for efficiency —
// each stripe is its own sequence space, so the receiver accepts any
// exact tiling.
func splitStripes(size int64, packetSize, n int, base uint32) []wire.StripeDesc {
	packets := core.NumPackets(size, packetSize)
	if n > packets {
		n = packets
	}
	if n < 1 {
		n = 1
	}
	q, r := packets/n, packets%n
	out := make([]wire.StripeDesc, n)
	var off uint64
	for i := range out {
		count := q
		if i < r {
			count++
		}
		length := uint64(count) * uint64(packetSize)
		if off+length > uint64(size) {
			length = uint64(size) - off
		}
		out[i] = wire.StripeDesc{Transfer: base + uint32(i), Offset: off, Length: length}
		off += length
	}
	return out
}

// senderPlan is one outbound transfer, prepared but not yet on the wire:
// per-stripe state machines and instrumentation plus the control-channel
// announcement that describes them. A one-stripe plan is exactly the
// classic single-flow transfer, HELLO frame and all.
type senderPlan struct {
	base    uint32
	obj     []byte
	cfg     core.Config // stripe 0's effective (defaulted) config
	stripes []wire.StripeDesc
	snds    []*core.Sender
	tms     []*metrics.Transfer
	frs     []*flight.Recorder

	// content memoizes the whole-object SHA-256 for the CHECK prelude
	// (for a single stripe the stripe sender's own memo is reused, so the
	// object is hashed exactly once per plan either way).
	content    [32]byte
	hasContent bool
}

// newSenderPlan splits obj per opts.Streams and builds one instrumented
// core.Sender per stripe. cfg.Transfer is the base tag; stripe i uses
// base+i.
func newSenderPlan(obj []byte, cfg core.Config, opts Options) (*senderPlan, error) {
	if opts.Streams > wire.MaxStreams {
		return nil, fmt.Errorf("udprt: %d streams exceeds the wire limit of %d", opts.Streams, wire.MaxStreams)
	}
	if err := validateCongestion(opts.Congestion); err != nil {
		return nil, err
	}
	ps := cfg.PacketSize
	if ps <= 0 {
		ps = core.DefaultPacketSize
	}
	p := &senderPlan{
		base:    cfg.Transfer,
		obj:     obj,
		stripes: splitStripes(int64(len(obj)), ps, opts.Streams, cfg.Transfer),
	}
	for i, sd := range p.stripes {
		scfg := cfg
		scfg.Transfer = sd.Transfer
		snd := core.NewSender(obj[sd.Offset:sd.Offset+sd.Length], scfg)
		tm, fr := instrumentSender(snd, snd.Config(), int64(sd.Length), opts.Metrics, opts.Record)
		if i == 0 {
			p.cfg = snd.Config()
		}
		p.snds = append(p.snds, snd)
		p.tms = append(p.tms, tm)
		p.frs = append(p.frs, fr)
	}
	return p, nil
}

// helloFrame serializes the plan's announcement: the classic HELLO for a
// single stripe (bit-compatible with every earlier receiver), a versioned
// HELLOX otherwise.
func (p *senderPlan) helloFrame() []byte {
	if len(p.stripes) == 1 {
		return wire.AppendHello(nil, &wire.Hello{
			Transfer:   p.base,
			ObjectSize: uint64(len(p.obj)),
			PacketSize: uint32(p.cfg.PacketSize),
		})
	}
	return wire.AppendHelloX(nil, &wire.HelloX{
		Transfer:   p.base,
		ObjectSize: uint64(len(p.obj)),
		PacketSize: uint32(p.cfg.PacketSize),
		Stripes:    p.stripes,
	})
}

// contentID returns the plan's whole-object SHA-256, memoized.
func (p *senderPlan) contentID() [32]byte {
	if len(p.snds) == 1 {
		return p.snds[0].ContentID()
	}
	if !p.hasContent {
		p.content = core.ContentID(p.obj)
		p.hasContent = true
	}
	return p.content
}

// totalPackets sums the stripes' packet counts — the threshold a CHECK
// answer's Received count must reach to be a dedup hit.
func (p *senderPlan) totalPackets() int {
	total := 0
	for _, snd := range p.snds {
		total += snd.NumPackets()
	}
	return total
}

// checkFrame serializes the plan's CHECK prelude: the whole-object content
// digest, plus one digest per stripe for a striped plan under Verify — the
// only receivers that check them — so an unverified striped push hashes
// its object once. Nil — no prelude, bit-identical to the pre-CHECK
// handshake — when the caller opted out of dedup without demanding
// verification; hashing happens only when the frame is actually built.
func (p *senderPlan) checkFrame(opts Options) []byte {
	if opts.NoDedup && !opts.Verify {
		return nil
	}
	var flags uint8
	if opts.Verify {
		flags |= wire.CheckFlagVerify
	}
	if !opts.NoDedup {
		flags |= wire.CheckFlagDedup
	}
	c := wire.Check{
		Flags:      flags,
		Transfer:   p.base,
		ObjectSize: uint64(len(p.obj)),
		PacketSize: uint32(p.cfg.PacketSize),
		Digest:     p.contentID(),
	}
	if opts.Verify && len(p.snds) > 1 {
		c.StripeDigests = make([][32]byte, len(p.snds))
		for i, snd := range p.snds {
			c.StripeDigests[i] = snd.ContentID()
		}
	}
	return wire.AppendCheck(nil, &c)
}

// noteHandshake records the completed handshake on every stripe's
// instruments.
func (p *senderPlan) noteHandshake() {
	for i := range p.snds {
		noteHandshake(p.tms[i], p.frs[i])
	}
}

// fail stamps every stripe's instruments with a pre-engine failure.
func (p *senderPlan) fail(err error) {
	for i := range p.snds {
		finishInstruments(p.tms[i], p.frs[i], err)
	}
}

// stats sums the per-stripe sender statistics into the object-wide view
// the caller sees: counts add, so conservation laws (sent = needed +
// retransmitted, etc.) hold across stripes exactly as within one.
func (p *senderPlan) stats() core.SenderStats {
	var t core.SenderStats
	for _, snd := range p.snds {
		s := snd.Stats()
		t.PacketsSent += s.PacketsSent
		t.PacketsNeeded += s.PacketsNeeded
		t.AcksProcessed += s.AcksProcessed
		t.StaleAcks += s.StaleAcks
		t.KnownReceived += s.KnownReceived
		t.Stalls += s.Stalls
		t.Restored += s.Restored
		t.Retransmits += s.Retransmits
	}
	return t
}

// progressAgg folds per-stripe acknowledgement progress into one
// object-wide Options.Progress stream. The callback runs under the
// aggregate lock so reported counts are monotone.
type progressAgg struct {
	mu       sync.Mutex
	perKnown []int
	total    int
	fn       func(knownReceived, total int)
}

func (p *progressAgg) stripe(i int) func(known, total int) {
	return func(known, _ int) {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.perKnown[i] = known
		sum := 0
		for _, v := range p.perKnown {
			sum += v
		}
		p.fn(sum, p.total)
	}
}

// runSenderPlan drives every stripe of the plan concurrently over its own
// data flow until the shared control connection delivers the object-wide
// verdict. One goroutine reads the single terminal frame (COMPLETE with
// the whole-object digest, or ABORT) and fans it out to every engine; the
// first ABORT any engine needs to announce wins the shared control
// channel; the first engine to fail cancels its siblings. Per-stripe
// instruments record each stripe's own outcome, while the summed stats
// and socket counters form the caller's object-wide view.
func runSenderPlan(ctx context.Context, p *senderPlan, conns []*net.UDPConn, ctl net.Conn, opts Options, or *obs.Recorder) (core.SenderStats, error) {
	n := len(p.snds)
	completion := make(chan error, 1)
	go func() { completion <- readCompletion(ctl, p.obj) }()
	stripeDone := make([]chan error, n)
	for i := range stripeDone {
		stripeDone[i] = make(chan error, 1)
	}
	go func() {
		err := <-completion
		for _, ch := range stripeDone {
			ch <- err
		}
	}()

	var abortOnce sync.Once
	abort := func(r wire.AbortReason) {
		abortOnce.Do(func() { writeAbort(ctl, p.base, r) })
	}
	progressFor := func(i int) func(int, int) { return nil }
	if opts.Progress != nil {
		if n == 1 {
			progressFor = func(int) func(int, int) { return opts.Progress }
		} else {
			agg := &progressAgg{perKnown: make([]int, n), fn: opts.Progress}
			for _, snd := range p.snds {
				agg.total += snd.NumPackets()
			}
			progressFor = agg.stripe
		}
	}

	or.Event(obs.KindRounds, 0)
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	engines := make([]*senderEngine, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range engines {
		engines[i] = newSenderEngine(p.snds[i], senderEndpoint{
			conn:     conns[i],
			done:     stripeDone[i],
			abort:    abort,
			progress: progressFor(i),
		}, opts, p.tms[i], p.frs[i])
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = engines[i].run(gctx)
			if errs[i] != nil {
				cancel() // one stripe down takes the object down
			}
		}(i)
	}
	wg.Wait()

	// Every engine has returned: the schedule is drained (or the transfer
	// is dead) and the verdict is in hand.
	or.Event(obs.KindDrain, 0)

	var io stats.IOCounters
	for i := range engines {
		io.Add(engines[i].io)
		finishInstruments(p.tms[i], p.frs[i], errs[i])
	}
	if opts.IOCounters != nil {
		*opts.IOCounters = io
	}
	err := pickStripeErr(errs)
	finishTrace(or, err)
	return p.stats(), err
}

// pickStripeErr chooses the error the caller sees: the first root cause,
// not the context cancellation the orchestrator used to reap sibling
// stripes after one failed.
func pickStripeErr(errs []error) error {
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	return fallback
}

// dialDataFlows opens one UDP data socket per stripe toward addr. Each
// stripe must own its socket: the receiver routes acknowledgements to the
// source address of the stripe's data flow.
func dialDataFlows(addr string, n int, opts Options) ([]*net.UDPConn, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udprt: resolve data addr: %w", err)
	}
	conns := make([]*net.UDPConn, 0, n)
	for i := 0; i < n; i++ {
		conn, err := net.DialUDP("udp", nil, udpAddr)
		if err != nil {
			closeAll(conns)
			return nil, fmt.Errorf("udprt: dial data: %w", err)
		}
		_ = conn.SetReadBuffer(opts.ReadBuffer)
		_ = conn.SetWriteBuffer(opts.WriteBuffer)
		conns = append(conns, conn)
	}
	return conns, nil
}

func closeAll(conns []*net.UDPConn) {
	for _, c := range conns {
		c.Close()
	}
}

// recvPlan is one inbound transfer as announced on the control channel:
// the classic single-flow HELLO (stripes nil) or a striped HELLOX.
type recvPlan struct {
	base       uint32
	objectSize uint64
	packetSize int
	stripes    []wire.StripeDesc // nil for a classic HELLO
	// trace is the sender's trace id, propagated in a TRACE prelude before
	// the announcement; zero when the handshake was untraced.
	trace obs.TraceID
	// RESUME announcements re-propose an aborted transfer: resumeDigest is
	// the sender's whole-object CRC and resumeStreams its stream count
	// (resume is defined for single-flow transfers only).
	resume        bool
	resumeDigest  uint32
	resumeStreams int
	// CHECK prelude state: the sender announced the object's content
	// identity before the handshake. checkDedup permits answering from the
	// content cache; checkVerify demands the per-stripe digests be checked
	// too, not just the whole-object one (contentVerifier does both).
	hasCheck      bool
	checkDigest   [32]byte
	checkVerify   bool
	checkDedup    bool
	stripeDigests [][32]byte
}

func (p recvPlan) striped() bool { return p.stripes != nil }

// newRecvEngines allocates the object and builds one instrumented
// receiver engine per stripe. The classic path keeps its historical
// shape — core.NewReceiver owns the allocation; striped receivers
// assemble in place into disjoint slices of one buffer via
// core.NewReceiverInto, so completion needs no reassembly copy.
func newRecvEngines(plan recvPlan, opts Options) (obj []byte, engines []*receiverEngine) {
	baseCfg := core.Config{
		PacketSize: plan.packetSize,
		// The receiver's ack frequency is its own policy; the sender
		// adapts to whatever cadence arrives.
		AckFrequency: core.DefaultAckFrequency,
	}
	if !plan.striped() {
		cfg := baseCfg
		cfg.Transfer = plan.base
		rcv := core.NewReceiver(int64(plan.objectSize), cfg)
		tm := opts.Metrics.StartReceiver(plan.base, rcv.NumPackets(), int64(plan.objectSize))
		fr := opts.Record.StartReceiver(plan.base, rcv.NumPackets(), int64(plan.objectSize), cfg.PacketSize)
		return rcv.Object(), []*receiverEngine{newReceiverEngine(rcv, tm, fr)}
	}
	obj = make([]byte, plan.objectSize)
	engines = make([]*receiverEngine, 0, len(plan.stripes))
	for _, sd := range plan.stripes {
		cfg := baseCfg
		cfg.Transfer = sd.Transfer
		rcv := core.NewReceiverInto(obj[sd.Offset:sd.Offset+sd.Length], cfg)
		tm := opts.Metrics.StartReceiver(sd.Transfer, rcv.NumPackets(), int64(sd.Length))
		fr := opts.Record.StartReceiver(sd.Transfer, rcv.NumPackets(), int64(sd.Length), cfg.PacketSize)
		engines = append(engines, newReceiverEngine(rcv, tm, fr))
	}
	return obj, engines
}

// sumRecvStats is the receive-side counterpart of senderPlan.stats.
func sumRecvStats(engines []*receiverEngine) core.ReceiverStats {
	var t core.ReceiverStats
	for _, e := range engines {
		s := e.rcv.Stats()
		t.Received += s.Received
		t.Restored += s.Restored
		t.PacketsNeeded += s.PacketsNeeded
		t.Duplicates += s.Duplicates
		t.AcksBuilt += s.AcksBuilt
		t.Rejected += s.Rejected
		t.IdleTimeouts += s.IdleTimeouts
	}
	return t
}

// acceptTransfer runs one announced inbound transfer to completion over
// the listener's UDP socket: the CHECK answer when the sender asked (a
// content-cache hit short-circuits the whole data phase), HELLO-ACK (or,
// for a RESUME announcement, the HAVE bitmap of retained state), the
// shared receive loop demuxing every stripe, then the single COMPLETE
// carrying the whole-object digest. Listener.Accept and
// IncomingSession.Next are thin wrappers. A failed single-flow transfer
// leaves its partial state in the resume store so a RESUME within the
// window can finish it.
func acceptTransfer(ctx context.Context, plan recvPlan, udp *net.UDPConn, ctl net.Conn, opts Options, watchCtl bool, store *resumeStore, cache *contentCache) ([]byte, core.ReceiverStats, error) {
	if plan.hasCheck {
		if obj, ok := cache.lookup(plan.checkDigest); ok && plan.checkDedup && uint64(len(obj)) == plan.objectSize {
			return completeDeduped(plan, ctl, opts, obj)
		}
		if err := answerCheckMiss(ctl, plan.base); err != nil {
			return nil, core.ReceiverStats{}, err
		}
	}
	if plan.resume {
		return acceptResumedTransfer(ctx, plan, udp, ctl, opts, watchCtl, store, cache)
	}
	obj, engines := newRecvEngines(plan, opts)
	or := opts.startRecorder(plan.trace, plan.base, obs.RoleReceiver)
	if plan.hasCheck {
		or.Event(obs.KindCheck, 0)
	}
	finishAll := func(err error) {
		for _, e := range engines {
			finishInstruments(e.tm, e.fr, err)
		}
		finishTrace(or, err)
	}
	if err := writeHelloAck(ctl, plan.base); err != nil {
		finishAll(err)
		return nil, sumRecvStats(engines), err
	}
	// The verifier allocates the cache's object-sized stage: after the
	// HELLO-ACK, that work overlaps the sender's first packets (the socket
	// buffer holds them) instead of delaying the sender's start.
	rcvs := make([]*core.Receiver, len(engines))
	for i, e := range engines {
		rcvs[i] = e.rcv
	}
	cv := newContentVerifier(plan, obj, rcvs, cache)
	byTag := make(map[uint32]*receiverEngine, len(engines))
	for _, e := range engines {
		noteHandshake(e.tm, e.fr)
		byTag[e.rcv.Config().Transfer] = e
	}
	or.Event(obs.KindHandshake, 0)
	if err := runReceiveLoop(ctx, byTag, plan.base, udp, ctl, opts, watchCtl, or, cv); err != nil {
		if !plan.striped() {
			store.retainReceiver(plan.base, plan.objectSize, plan.packetSize, engines[0].rcv, 0, false)
		}
		finishAll(err)
		return nil, sumRecvStats(engines), err
	}
	// Every packet is placed; what remains is the content verdict over the
	// tail the receive loop has not hashed yet, the cache commit, and the
	// COMPLETE write (writeComplete computes the CRC). The commit comes
	// first: a sender that has seen COMPLETE may push the object again.
	or.Event(obs.KindDrain, 0)
	if err := cv.verify(); err != nil {
		writeAbort(ctl, plan.base, wire.AbortDigestMismatch)
		finishAll(err)
		return nil, sumRecvStats(engines), err
	}
	cv.commit()
	err := writeComplete(ctl, plan.base, plan.objectSize, obj)
	finishAll(err)
	if err != nil {
		return nil, sumRecvStats(engines), err
	}
	return obj, sumRecvStats(engines), nil
}

// completeDeduped answers a dedup-hitting CHECK: the full HAVE bitmap (the
// verdict) followed immediately by the COMPLETE carrying the cached bytes'
// digest — no HELLO-ACK, no data flow, no receive loop. The returned
// object is the cache's copy, so a Server's completion handler sees the
// same bytes a real transfer would have assembled.
func completeDeduped(plan recvPlan, ctl net.Conn, opts Options, obj []byte) ([]byte, core.ReceiverStats, error) {
	or := opts.startRecorder(plan.trace, plan.base, obs.RoleReceiver)
	or.Event(obs.KindCheck, 1)
	total := core.NumPackets(int64(plan.objectSize), plan.packetSize)
	tm := opts.Metrics.StartReceiver(plan.base, total, int64(plan.objectSize))
	st := core.ReceiverStats{
		Received:      total,
		Restored:      total,
		PacketsNeeded: total,
	}
	if err := writeHave(ctl, plan.base, total, fullWords(total)); err != nil {
		finishMetrics(tm, err)
		finishTrace(or, err)
		return nil, st, err
	}
	tm.NoteRestored(total)
	or.Event(obs.KindSkip, uint64(total))
	err := writeComplete(ctl, plan.base, plan.objectSize, obj)
	finishMetrics(tm, err)
	finishTrace(or, err)
	if err != nil {
		return nil, st, err
	}
	st.Deduped = true
	return obj, st, nil
}
