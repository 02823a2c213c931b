package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/hpcnet/fobs/internal/batchio"
	"github.com/hpcnet/fobs/internal/checkpoint"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/tasks"
	"github.com/hpcnet/fobs/internal/udprt"
	"github.com/hpcnet/fobs/internal/wire"
)

// tracedRun is the --trace 1 run: the workload itself with its
// instrumentation on (interleaved with uninstrumented ops, which price
// the tracing), then the layer ladder, each layer timed from outside
// through its public functions at the workload's sizes.
func tracedRun(ctx context.Context, p params, dir string, rep *report) error {
	window := p.duration * 3 / 5
	if p.tasks {
		if err := tracedTasks(ctx, p, dir, window, rep); err != nil {
			return err
		}
	} else {
		tracedTransfers(ctx, p, window, rep)
		// The daemon layer has no part in a closed-loop transfer; its
		// metrics come from a 2 s open-loop phase of the tasks shape.
		var s taskSample
		probe := tasksShape(p)
		if _, _, err := tasksPhase(ctx, probe, dir, streamProbe, int(2*probe.rate), nil, rep, &s); err != nil {
			return err
		}
		setTaskLayer(rep, &s)
		rep.note("tasks_probe_tasks", fmt.Sprint(len(s.task)))
	}
	objs := layerObjects(p)
	coreProbe(objs, rep)
	contentIDProbe(objs, rep)
	wireProbe(objs[0], rep)
	if err := pumpProbe(rep); err != nil {
		return err
	}
	if err := checkpointProbe(dir, rep); err != nil {
		return err
	}
	if err := smallSendProbe(ctx, tasksShape(p), rep); err != nil {
		return err
	}
	listenerProbe(ctx, p, objs, rep)
	return nil
}

// spanLog is an in-memory obs span log, read back after the traced ops.
type spanLog struct {
	buf bytes.Buffer
	log *obs.Log
}

func newSpanLog() *spanLog {
	s := &spanLog{}
	s.log = obs.NewLog(&s.buf)
	return s
}

func (s *spanLog) close() ([]obs.Event, error) {
	if err := s.log.Close(); err != nil {
		return nil, err
	}
	return obs.ReadEvents(&s.buf)
}

// setSpanGaps sets the sender's phase gaps, medians over traced
// transfers: dial→handshake, rounds→drain, drain→complete.
func setSpanGaps(rep *report, evs []obs.Event) {
	type key struct {
		trace    string
		transfer uint32
	}
	first := make(map[key]map[obs.Kind]int64)
	for _, e := range evs {
		if e.Role != obs.RoleSender {
			continue
		}
		k := key{e.Trace, e.Transfer}
		if first[k] == nil {
			first[k] = make(map[obs.Kind]int64)
		}
		if _, ok := first[k][e.Kind]; !ok {
			first[k][e.Kind] = e.At
		}
	}
	var hs, rounds, verify []float64
	gap := func(m map[obs.Kind]int64, from, to obs.Kind, into *[]float64) {
		a, okA := m[from]
		b, okB := m[to]
		if okA && okB {
			*into = append(*into, float64(b-a)/1e6)
		}
	}
	for _, m := range first {
		gap(m, obs.KindDial, obs.KindHandshake, &hs)
		gap(m, obs.KindRounds, obs.KindDrain, &rounds)
		gap(m, obs.KindDrain, obs.KindComplete, &verify)
	}
	rep.set("udprt.handshake_ms", median(hs))
	rep.set("udprt.rounds_ms", median(rounds))
	rep.set("udprt.verify_ms", median(verify))
}

// counters sums the runtime's own accounting over traced transfers.
type counters struct {
	sent, retransmits, acks, stalls, bytesSent int64
	sendIO, recvIO                             stats.IOCounters
}

// addSnapshot adds a registry's totals and its retained senders' socket
// counters.
func (c *counters) addSnapshot(s metrics.Snapshot) {
	c.sent += s.Totals.PacketsSent
	c.retransmits += s.Totals.Retransmits
	c.acks += s.Totals.AcksReceived
	c.stalls += s.Totals.Stalls
	c.bytesSent += s.Totals.BytesSent
	for _, t := range s.Transfers {
		if t.Role == metrics.RoleSender {
			c.sendIO.Add(t.IO)
		}
	}
}

// set reports the engine counters. waste_frac is the paper's metric:
// retransmissions over first sends. A fill is datagrams per syscall.
func (c *counters) set(rep *report) {
	rep.set("udprt.waste_frac", ratio(float64(c.retransmits), float64(c.sent-c.retransmits)))
	rep.set("udprt.acks_per_mib", ratio(float64(c.acks), float64(c.bytesSent)/(1<<20)))
	rep.set("udprt.stalls", float64(c.stalls))
	rep.set("batchio.send_fill", c.sendIO.AvgSendBatch())
}

// tracedTransfers alternates uninstrumented ops with ops that carry
// every instrument the runtime offers: span log, metrics registry and
// socket counters on both endpoints.
func tracedTransfers(ctx context.Context, p params, window time.Duration, rep *report) {
	spans := newSpanLog()
	obj := make([]byte, p.objectSize)
	var bare, traced transferSample
	var c counters
	deadline := time.Now().Add(window)
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		fill(obj, inputKey(p.seed, streamMeasured, i))
		if i%2 == 0 {
			a0 := allocMB()
			op := runXfer(ctx, obj, udprt.Options{Streams: p.streams}, udprt.Options{})
			bare.alloc = append(bare.alloc, allocMB()-a0)
			if rep.op("transfer", op.problems) {
				bare.add(op, len(obj))
			}
			continue
		}
		reg := metrics.New()
		var rio stats.IOCounters
		send := udprt.Options{Streams: p.streams, Trace: spans.log, Metrics: reg}
		recv := udprt.Options{Trace: spans.log, Metrics: reg, IOCounters: &rio}
		op := runXfer(ctx, obj, send, recv)
		if rep.op("traced transfer", op.problems) {
			traced.add(op, len(obj))
			c.addSnapshot(reg.Snapshot())
			c.recvIO.Add(rio)
		}
	}
	evs, err := spans.close()
	if err != nil {
		rep.op("span log", []string{err.Error()})
	}
	setSpanGaps(rep, evs)
	c.set(rep)
	rep.set("batchio.recv_fill", c.recvIO.AvgRecvBatch())
	rep.set("obs.trace_overhead_frac", ratio(median(traced.xfer), median(bare.xfer))-1)
	rep.set("udprt.alloc_mb_per_op", mean(bare.alloc))
	rep.note("traced_ops/bare_ops", fmt.Sprintf("%d/%d", len(traced.xfer), len(bare.xfer)))
}

// registryRetains is how many finished transfers a metrics.Registry
// keeps; its Totals cover those alone.
const registryRetains = 256

// tracedPhaseTasks caps the submissions of one traced tasks phase, so
// that with its hot-set warm-up every transfer of the phase stays in the
// phase's registry and the engine counters cover all of them.
const tracedPhaseTasks = 240

// tracedTasks runs open-loop phases in groups of four, bare-traced-
// traced-bare, so a linear drift cancels out of the tracing price; the
// traced phases give the layer figures. There are as many groups as keep
// each phase within tracedPhaseTasks.
func tracedTasks(ctx context.Context, p params, dir string, window time.Duration, rep *report) error {
	spans := newSpanLog()
	total := int(p.rate * window.Seconds())
	groups := max(1, (total+4*tracedPhaseTasks-1)/(4*tracedPhaseTasks))
	n := total / (4 * groups)
	var bare, traced taskSample
	var c counters
	var bareAlloc []float64
	for i := 0; i < 4*groups; i++ {
		on := i%4 == 1 || i%4 == 2
		var log *obs.Log
		s := &bare
		if on {
			log, s = spans.log, &traced
		}
		snap, alloc, err := tasksPhase(ctx, p, dir, streamTasks*10+i, n, log, rep, s)
		if err != nil {
			return err
		}
		if !on {
			bareAlloc = append(bareAlloc, alloc)
			continue
		}
		var problems []string
		if len(snap.Transfers) >= registryRetains {
			problems = append(problems, fmt.Sprintf("registry holds %d transfers, its cap; its totals may omit some", len(snap.Transfers)))
		}
		if rep.op("traced phase registry", problems) {
			c.addSnapshot(snap)
		}
	}
	evs, err := spans.close()
	if err != nil {
		rep.op("span log", []string{err.Error()})
	}
	setSpanGaps(rep, evs)
	c.set(rep)
	setTaskLayer(rep, &traced)
	rep.set("obs.trace_overhead_frac", ratio(median(traced.task), median(bare.task))-1)
	rep.set("udprt.alloc_mb_per_op", mean(bareAlloc))
	rep.note("traced_tasks/bare_tasks", fmt.Sprintf("%d/%d", len(traced.task), len(bare.task)))
	return nil
}

// setTaskLayer reports the daemon's own figures from open-loop phases.
func setTaskLayer(rep *report, s *taskSample) {
	rep.set("tasks.submit_ms", median(s.submit))
	rep.set("tasks.queue_wait_ms_p50", median(s.queue))
	rep.set("tasks.queue_wait_ms_p90", percentile(s.queue, 0.9))
	rep.set("tasks.mover_ms_p50", median(s.xfer))
	rep.set("tasks.attempts_per_task", mean(s.attempts))
	rep.set("udprt.dedup_hit_frac", ratio(float64(s.hotHits), float64(s.hot)))
	rep.set("bench.gen_late_ms", percentile(s.late, 0.9))
	rep.note("dedup_hits/hot_submissions", fmt.Sprintf("%d/%d", s.hotHits, s.hot))
}

// layerObjects are the objects the in-memory probes run over: one
// transfer object for the closed-loop workloads, a sample of task-sized
// objects for tasks.
func layerObjects(p params) [][]byte {
	rng := rand.New(rand.NewSource(int64(inputKey(p.seed, streamProbe, 0))))
	if !p.tasks {
		obj := make([]byte, p.objectSize)
		fill(obj, rng.Uint64())
		return [][]byte{obj}
	}
	objs := make([][]byte, 64)
	for i := range objs {
		objs[i] = make([]byte, p.minFile+rng.Intn(p.maxFile-p.minFile+1))
		fill(objs[i], rng.Uint64())
	}
	return objs
}

// repeatMedian runs pass until budget is spent (at least three times)
// and returns the median of what the passes report.
func repeatMedian(budget time.Duration, pass func() float64) float64 {
	var xs []float64
	end := time.Now().Add(budget)
	for len(xs) < 3 || time.Now().Before(end) {
		xs = append(xs, pass())
	}
	return median(xs)
}

// coreProbe drives the core state machines in memory over a lossless,
// in-order exchange: the receiver ingests every data packet once and
// builds its acks; the sender emits the same schedule and consumes
// those acks at the points they were built.
func coreProbe(objs [][]byte, rep *report) {
	cfg := core.Config{}
	type exchange struct {
		obj  []byte
		data []wire.Data
		acks []wire.Ack
	}
	var xs []exchange
	for _, obj := range objs {
		snd := core.NewSender(obj, cfg)
		x := exchange{obj: obj}
		for {
			d, ok := snd.NextPacket()
			if !ok || int(d.Seq) < len(x.data) {
				break
			}
			x.data = append(x.data, d)
		}
		rcv := core.NewReceiver(int64(len(obj)), cfg)
		for _, d := range x.data {
			if due, _ := rcv.HandleData(d); due {
				a := rcv.BuildAck()
				a.Frag.Words = append([]uint64(nil), a.Frag.Words...)
				x.acks = append(x.acks, a)
			}
		}
		xs = append(xs, x)
	}
	ackEvery := core.DefaultAckFrequency
	var sink uint32
	send := repeatMedian(300*time.Millisecond, func() float64 {
		snds := make([]*core.Sender, len(xs))
		for i, x := range xs {
			snds[i] = core.NewSender(x.obj, cfg)
		}
		pkts := 0
		t0 := time.Now()
		for i, x := range xs {
			snd, next, sent := snds[i], 0, 0
		exchange:
			for next < len(x.acks) {
				for b := snd.BatchSize(); b > 0 && next < len(x.acks); b-- {
					d, ok := snd.NextPacket()
					if !ok {
						break exchange
					}
					sink += d.Seq
					sent++
					if sent%ackEvery == 0 || sent == len(x.data) {
						snd.HandleAck(x.acks[next])
						next++
					}
				}
			}
			snd.SetComplete()
			pkts += sent
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(pkts)
	})
	recv := repeatMedian(300*time.Millisecond, func() float64 {
		rcvs := make([]*core.Receiver, len(xs))
		for i, x := range xs {
			rcvs[i] = core.NewReceiver(int64(len(x.obj)), cfg)
		}
		pkts := 0
		t0 := time.Now()
		for i, x := range xs {
			for _, d := range x.data {
				if due, _ := rcvs[i].HandleData(d); due {
					sink += rcvs[i].BuildAck().AckSeq
				}
			}
			pkts += len(x.data)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(pkts)
	})
	keep(sink)
	rep.set("core.send_ns_per_pkt", send)
	rep.set("core.recv_ns_per_pkt", recv)
}

// sinkVar keeps probe results observable so no loop is optimised away.
var sinkVar atomic.Uint64

func keep(v uint32) { sinkVar.Add(uint64(v)) }

func contentIDProbe(objs [][]byte, rep *report) {
	total := 0
	for _, o := range objs {
		total += len(o)
	}
	us := repeatMedian(250*time.Millisecond, func() float64 {
		t0 := time.Now()
		for _, o := range objs {
			id := core.ContentID(o)
			keep(uint32(id[0]))
		}
		return float64(time.Since(t0).Microseconds()) / (float64(total) / (1 << 20))
	})
	rep.set("core.contentid_us_per_mib", us)
}

// wireProbe times the per-packet codecs on full-size data packets and on
// an ack the receiver builds for obj half delivered (every other packet),
// so its bitmap fragment is as wide as the object allows.
func wireProbe(obj []byte, rep *report) {
	cfg := core.Config{}
	snd := core.NewSender(obj, cfg)
	d, _ := snd.NextPacket()
	rcv := core.NewReceiver(int64(len(obj)), cfg)
	for {
		p, ok := snd.NextPacket()
		if !ok || p.Seq == 0 {
			break
		}
		if p.Seq%2 == 0 {
			rcv.HandleData(p)
		}
	}
	ack := rcv.BuildAck()
	ackBytes := wire.AppendAck(nil, &ack)
	dataBytes := wire.AppendData(nil, &d)
	words := make([]uint64, 0, wire.MaxFragWords(core.DefaultPacketSize))
	const n = 100000
	perOp := func(f func()) float64 {
		return repeatMedian(100*time.Millisecond, func() float64 {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				f()
			}
			return float64(time.Since(t0).Nanoseconds()) / n
		})
	}
	buf := make([]byte, 0, len(dataBytes))
	rep.set("wire.data_encode_ns", perOp(func() { buf = wire.AppendData(buf[:0], &d) }))
	rep.set("wire.data_decode_ns", perOp(func() {
		x, _ := wire.DecodeData(dataBytes)
		keep(x.Seq)
	}))
	rep.set("wire.ack_decode_ns", perOp(func() {
		a, _ := wire.DecodeAckInto(ackBytes, words[:0])
		keep(a.Received)
	}))
}

// pumpProbe is the socket ceiling: batchio.Sender.Send into
// batchio.Receiver.Recv over a loopback pair at the runtime's vector
// length and socket buffers, with full-size data datagrams.
func pumpProbe(rep *report) error {
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer peer.Close()
	conn, err := net.DialUDP("udp", nil, peer.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = peer.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	fast := batchio.FastPathAvailable()
	tx, err := batchio.NewSender(conn, udprt.DefaultIOBatch, fast)
	if err != nil {
		return err
	}
	rx, err := batchio.NewReceiver(peer, udprt.DefaultIOBatch, 2048, fast)
	if err != nil {
		return err
	}
	pkt := wire.AppendData(nil, &wire.Data{Seq: 1, Total: 2, Payload: make([]byte, core.DefaultPacketSize)})
	batch := make([][]byte, udprt.DefaultIOBatch)
	for i := range batch {
		batch[i] = pkt
	}
	var got atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			n, err := rx.Recv()
			if err != nil {
				return
			}
			got.Add(int64(n))
		}
	}()
	var rates []float64
	for pass := 0; pass < 5; pass++ {
		g0, t0 := got.Load(), time.Now()
		for time.Since(t0) < 80*time.Millisecond {
			if _, err := tx.Send(batch); err != nil && err != batchio.ErrSendFault {
				peer.SetReadDeadline(time.Now())
				<-done
				return err
			}
		}
		rates = append(rates, float64(got.Load()-g0)/time.Since(t0).Seconds())
	}
	peer.SetReadDeadline(time.Now())
	<-done
	rep.set("batchio.pump_pkts_per_s", median(rates))
	return nil
}

// checkpointProbe times checkpoint.WriteFramed of a task-record-sized
// body, the persistence every task transition pays.
func checkpointProbe(dir string, rep *report) error {
	now := time.Now()
	t := tasks.Task{ID: 12345, Transfer: 12345, State: tasks.StateDone, Attempts: 1,
		Spec:    tasks.Spec{Addr: "127.0.0.1:40000", Path: filepath.Join(dir, "files", "obj-12345")},
		Stats:   &tasks.Stats{PacketsNeeded: 35, PacketsSent: 36, Retransmits: 1},
		Created: now, Updated: now, Trace: obs.NewTraceID().String(),
		Events: []tasks.TaskEvent{{At: now, Event: "queued"}, {At: now, Event: "dispatched", Attempt: 1, CC: "fixed"},
			{At: now, Event: "done", Attempt: 1}}}
	body, err := json.Marshal(t)
	if err != nil {
		return err
	}
	sdir := filepath.Join(dir, "checkpoint-probe")
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(sdir, "task")
	magic := [8]byte{'P', 'E', 'R', 'F', 'B', 'N', 'C', 'H'}
	var xs []float64
	for i := 0; i < 300; i++ {
		t0 := time.Now()
		if err := checkpoint.WriteFramed(path, magic, body); err != nil {
			return err
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	rep.set("checkpoint.write_ms", median(xs))
	return nil
}

// smallSendProbe sends the tasks workload's objects straight to a
// Server, without the daemon: distinct objects (cache misses with a short
// data phase), then repeats of an already-delivered set (cache hits, the
// control path alone).
func smallSendProbe(ctx context.Context, p params, rep *report) error {
	srv, err := udprt.NewServer("127.0.0.1:0", udprt.Options{})
	if err != nil {
		return err
	}
	sctx, cancel := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(sctx, func(uint32, []byte, core.ReceiverStats) {}) }()
	defer func() {
		cancel()
		<-served
		srv.Close()
	}()
	rng := rand.New(rand.NewSource(int64(inputKey(p.seed, streamProbe, 1))))
	object := func() []byte {
		b := make([]byte, p.minFile+rng.Intn(p.maxFile-p.minFile+1))
		fill(b, rng.Uint64())
		return b
	}
	transfer := uint32(0)
	send := func(obj []byte, wantHit bool) float64 {
		transfer++
		t0 := time.Now()
		st, err := udprt.Send(ctx, srv.Addr(), obj, core.Config{Transfer: transfer}, udprt.Options{})
		d := ms(time.Since(t0))
		var problems []string
		switch {
		case err != nil:
			problems = append(problems, err.Error())
		case st.Deduped != wantHit:
			problems = append(problems, fmt.Sprintf("deduped=%v, want %v", st.Deduped, wantHit))
		case !conserved(st.PacketsSent, st.PacketsNeeded, st.Restored, st.Retransmits):
			problems = append(problems, "packet conservation violated")
		}
		rep.op("direct send", problems)
		return d
	}
	var miss, hit []float64
	for i := 0; i < 40; i++ {
		miss = append(miss, send(object(), false))
	}
	hot := make([][]byte, p.hotSet)
	for i := range hot {
		hot[i] = object()
		send(hot[i], false)
	}
	for i := 0; i < 40; i++ {
		hit = append(hit, send(hot[i%len(hot)], true))
	}
	rep.set("udprt.small_send_ms", median(miss))
	rep.set("udprt.dedup_hit_ms", median(hit))
	return nil
}

// listenerProbe runs a few two-stripe transfers of the workload's
// objects, one fresh Listener each, for the bind cost and the spread of
// stripe finish times the registry records. For the tasks workload,
// whose Server keeps no socket counters, it also gives the receive fill.
func listenerProbe(ctx context.Context, p params, objs [][]byte, rep *report) {
	if len(objs) > 16 {
		objs = objs[:16]
	}
	if !p.tasks {
		objs = [][]byte{objs[0], objs[0]}
	}
	var listen, skew []float64
	var rio stats.IOCounters
	for _, obj := range objs {
		reg := metrics.New()
		var r stats.IOCounters
		op := runXfer(ctx, obj, udprt.Options{Streams: 2, Metrics: reg}, udprt.Options{Metrics: reg, IOCounters: &r})
		if !rep.op("listener probe", op.problems) {
			continue
		}
		listen = append(listen, ms(op.listen))
		rio.Add(r)
		var first, last time.Duration
		stripes := 0
		for _, t := range reg.Snapshot().Transfers {
			if t.Role != metrics.RoleReceiver {
				continue
			}
			if stripes == 0 || t.DoneAt < first {
				first = t.DoneAt
			}
			if t.DoneAt > last {
				last = t.DoneAt
			}
			stripes++
		}
		if stripes > 1 {
			skew = append(skew, ms(last-first))
		}
	}
	rep.set("udprt.listen_ms", median(listen))
	rep.set("udprt.stripe_skew_ms", median(skew))
	if p.tasks {
		rep.set("batchio.recv_fill", rio.AvgRecvBatch())
	}
}
