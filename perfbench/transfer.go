package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/udprt"
)

// xferOp is one closed-loop transfer as fobs-recv and fobs-send run it: a
// fresh Listener (one per transfer, as fobs-recv is deployed), Accept in
// the background, Send with the default Config, then both verdicts.
type xferOp struct {
	listen time.Duration // udprt.Listen alone
	xfer   time.Duration // Send call until both Send and Accept returned
	task   time.Duration // Listen call until the Listener is closed
	st     core.SenderStats
	// problems lists every failed step or correctness check; an op with
	// any problem counts as failed.
	problems []string
}

func runXfer(ctx context.Context, obj []byte, send, recv udprt.Options) xferOp {
	var op xferOp
	t0 := time.Now()
	l, err := udprt.Listen("127.0.0.1:0", recv)
	op.listen = time.Since(t0)
	if err != nil {
		op.problems = append(op.problems, err.Error())
		return op
	}
	type accepted struct {
		obj []byte
		err error
	}
	got := make(chan accepted, 1)
	go func() {
		obj, _, err := l.Accept(ctx)
		got <- accepted{obj, err}
	}()
	ts := time.Now()
	st, serr := udprt.Send(ctx, l.Addr(), obj, core.Config{}, send)
	if serr != nil {
		l.Close() // a sender that never connected would leave Accept blocked
	}
	acc := <-got
	op.xfer = time.Since(ts)
	l.Close()
	op.task = time.Since(t0)
	op.st = st
	if serr != nil {
		op.problems = append(op.problems, "send: "+serr.Error())
	}
	if acc.err != nil {
		op.problems = append(op.problems, "accept: "+acc.err.Error())
	}
	if serr == nil && acc.err == nil {
		op.problems = append(op.problems, checkDelivery(obj, acc.obj, st)...)
	}
	return op
}

// checkDelivery holds a fresh transfer to its contract: the bytes Accept
// returned are the source's, nothing was deduplicated, and every packet
// sent was a first send or a retransmission.
func checkDelivery(src, got []byte, st core.SenderStats) []string {
	var p []string
	if !bytes.Equal(src, got) {
		p = append(p, fmt.Sprintf("delivered object (%d B) differs from its source (%d B)", len(got), len(src)))
	}
	if st.Deduped {
		p = append(p, "fresh object reported deduped")
	}
	if !conserved(st.PacketsSent, st.PacketsNeeded, st.Restored, st.Retransmits) {
		p = append(p, fmt.Sprintf("conservation: sent %d != needed %d - restored %d + retransmits %d",
			st.PacketsSent, st.PacketsNeeded, st.Restored, st.Retransmits))
	}
	return p
}

// warmUp runs one untimed transfer of p.warmSize, so the measured loop
// does not start on a cold process; it counts as an op.
func warmUp(ctx context.Context, p params, rep *report) {
	warm := make([]byte, p.warmSize)
	fill(warm, inputKey(p.seed, streamWarm, p.setups))
	op := runXfer(ctx, warm, udprt.Options{Streams: p.streams}, udprt.Options{})
	rep.op("warm-up transfer", op.problems)
}

// transferSample accumulates the end-to-end figures of transfer ops.
type transferSample struct {
	xfer, task []float64 // ms
	bytes      int64
	xferTotal  time.Duration
	alloc      []float64 // MB allocated per op
}

func (s *transferSample) add(op xferOp, size int) {
	s.xfer = append(s.xfer, ms(op.xfer))
	s.task = append(s.task, ms(op.task))
	s.bytes += int64(size)
	s.xferTotal += op.xfer
}

// measureTransfers is the untraced bulk/striped run: set-up, a warm-up,
// then fresh
// seeded objects in a closed loop, one transfer in flight, until the
// measuring window ends.
func measureTransfers(ctx context.Context, p params, dir string, rep *report) error {
	if err := measureSetup(ctx, p, dir, rep); err != nil {
		return err
	}
	warmUp(ctx, p, rep)
	obj := make([]byte, p.objectSize)
	opts := udprt.Options{Streams: p.streams}
	var s transferSample
	deadline := time.Now().Add(p.duration)
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		fill(obj, inputKey(p.seed, streamMeasured, i))
		op := runXfer(ctx, obj, opts, udprt.Options{})
		if rep.op("transfer", op.problems) {
			s.add(op, len(obj))
		}
	}
	rep.setTransferE2E(s)
	return nil
}

func (r *report) setTransferE2E(s transferSample) {
	r.set("goodput_mbps", ratio(float64(s.bytes)/1e6, s.xferTotal.Seconds()))
	r.set("xfer_ms_p50", median(s.xfer))
	r.set("xfer_ms_p90", percentile(s.xfer, 0.9))
	r.set("task_ms_p50", median(s.task))
	r.set("task_ms_p90", percentile(s.task, 0.9))
	r.note("samples", fmt.Sprint(len(s.xfer)))
}

// allocMB returns the process's cumulative heap allocation in MB.
func allocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / 1e6
}
