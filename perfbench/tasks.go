package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/tasks"
	"github.com/hpcnet/fobs/internal/udprt"
)

// taskStack is one running daemon pushing to one concurrent Server, as
// cmd/fobsd deploys it: Workers movers and a metrics.Registry always on.
type taskStack struct {
	srv    *udprt.Server
	d      *tasks.Daemon
	reg    *metrics.Registry
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	delivered map[uint32][32]byte // transfer id → digest the Server handler received
	problems  []string
}

// startTasks binds the Server and starts the daemon over a fresh state
// directory. spans, when non-nil, traces both endpoints.
func startTasks(ctx context.Context, p params, stateDir string, spans *obs.Log) (*taskStack, error) {
	srv, err := udprt.NewServer("127.0.0.1:0", udprt.Options{Trace: spans})
	if err != nil {
		return nil, err
	}
	reg := metrics.New()
	d, err := tasks.New(tasks.Config{Dir: stateDir, Workers: p.workers, Metrics: reg, Trace: spans})
	if err != nil {
		srv.Close()
		return nil, err
	}
	rctx, cancel := context.WithCancel(ctx)
	s := &taskStack{srv: srv, d: d, reg: reg, cancel: cancel, delivered: make(map[uint32][32]byte)}
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		if err := srv.Serve(rctx, s.handle); err != nil {
			s.mu.Lock()
			s.problems = append(s.problems, "serve: "+err.Error())
			s.mu.Unlock()
		}
	}()
	go func() {
		defer s.wg.Done()
		d.Run(rctx)
	}()
	return s, nil
}

// handle records what the Server delivered, keyed by transfer id. A
// transfer delivered twice (at-least-once reruns) must carry the same
// content both times.
func (s *taskStack) handle(transfer uint32, obj []byte, _ core.ReceiverStats) {
	sum := sha256.Sum256(obj)
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.delivered[transfer]; ok && prev != sum {
		s.problems = append(s.problems, fmt.Sprintf("transfer %d delivered twice with different content", transfer))
	}
	s.delivered[transfer] = sum
}

// stop ends the daemon and the Server and waits for both; afterwards
// every handler call has returned.
func (s *taskStack) stop() {
	s.cancel()
	s.wg.Wait()
	s.srv.Close()
}

// submitted is one Submit of the open loop and, after the drain, its
// task's final state.
type submitted struct {
	sub    submission
	due    time.Time
	late   time.Duration // how far behind schedule Submit was called
	submit time.Duration // the Submit call itself
	id     uint64
	err    error
	task   tasks.Task
}

// warmHotSet delivers every hot-set object once and waits for each, so
// the measured submissions that repeat one are repeats of delivered
// content. The caller checks the returned tasks after stopping the stack.
func warmHotSet(ctx context.Context, s *taskStack, plan *taskPlan) []submitted {
	var subs []submitted
	for _, f := range plan.hot {
		t, err := s.d.Submit(tasks.Spec{Addr: s.srv.Addr(), Path: f.path})
		subs = append(subs, submitted{sub: submission{file: f}, id: t.ID, err: err, due: time.Now()})
	}
	drain(ctx, s, subs)
	return subs
}

// check records each task as one op, and each problem the Server itself
// reported as a failed op. Call after s.stop.
func (s *taskStack) check(what string, subs []submitted, rep *report, each func(*submitted)) {
	for i := range subs {
		if rep.op(what, taskProblems(s, &subs[i])) && each != nil {
			each(&subs[i])
		}
	}
	for _, pr := range s.problems {
		rep.op("server", []string{pr})
	}
	s.problems = nil
}

// openLoop submits plan.subs at a fixed rate, each at its due time
// whether or not earlier tasks have finished.
func openLoop(s *taskStack, plan *taskPlan, rate float64) []submitted {
	out := make([]submitted, len(plan.subs))
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i, sub := range plan.subs {
		due := start.Add(time.Duration(i) * interval)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		t0 := time.Now()
		t, err := s.d.Submit(tasks.Spec{Addr: s.srv.Addr(), Path: sub.file.path})
		out[i] = submitted{sub: sub, due: due, late: t0.Sub(due), submit: time.Since(t0), id: t.ID, err: err}
	}
	return out
}

// drain waits until every submitted task is terminal (or ctx ends) and
// fills in its final state.
func drain(ctx context.Context, s *taskStack, subs []submitted) {
	for i := range subs {
		if subs[i].err != nil {
			continue
		}
		for {
			t, ok := s.d.Get(subs[i].id)
			if ok && t.State.Terminal() {
				subs[i].task = t
				break
			}
			if ctx.Err() != nil {
				subs[i].task = t
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// taskProblems checks one task against the workload's contract: it
// reached done, its object arrived at the Server intact, only repeated
// content came back deduplicated (and then with nothing sent), and its
// packet accounting is conserved. Call after s.stop.
func taskProblems(s *taskStack, x *submitted) []string {
	if x.err != nil {
		return []string{"submit: " + x.err.Error()}
	}
	t := x.task
	if t.State != tasks.StateDone {
		return []string{fmt.Sprintf("task %d ended %q: %s", t.ID, t.State, t.Error)}
	}
	var p []string
	if got, ok := s.delivered[t.Transfer]; !ok {
		p = append(p, fmt.Sprintf("task %d done but the Server delivered nothing for transfer %d", t.ID, t.Transfer))
	} else if got != x.sub.file.digest {
		p = append(p, fmt.Sprintf("transfer %d delivered content that does not match its source digest", t.Transfer))
	}
	if st := t.Stats; st == nil {
		p = append(p, fmt.Sprintf("task %d done without stats", t.ID))
	} else {
		if st.Deduped && !x.sub.hot {
			p = append(p, fmt.Sprintf("task %d: first delivery of its content reported deduped", t.ID))
		}
		if st.Deduped && st.PacketsSent != 0 {
			p = append(p, fmt.Sprintf("task %d: deduped yet sent %d packets", t.ID, st.PacketsSent))
		}
		if !conserved(st.PacketsSent, st.PacketsNeeded, st.Restored, st.Retransmits) {
			p = append(p, fmt.Sprintf("task %d conservation: sent %d != needed %d - restored %d + retransmits %d",
				t.ID, st.PacketsSent, st.PacketsNeeded, st.Restored, st.Retransmits))
		}
	}
	return p
}

// eventAt returns the instant of the task's last event of that name.
func eventAt(t tasks.Task, name string) (time.Time, bool) {
	for i := len(t.Events) - 1; i >= 0; i-- {
		if t.Events[i].Event == name {
			return t.Events[i].At, true
		}
	}
	return time.Time{}, false
}

// taskSample accumulates the figures of one or more open-loop phases.
type taskSample struct {
	task, xfer, queue []float64 // ms, per done task
	task90, xfer90    []float64 // ms, per phase
	submit, late      []float64 // ms
	attempts          []float64
	bytes             int64
	wall              time.Duration // summed over phases: first due time to last done
	hot, hotHits      int
}

func (s *taskSample) add(x *submitted) {
	t := x.task
	done, _ := eventAt(t, "done")
	disp, _ := eventAt(t, "dispatched")
	queued, _ := eventAt(t, "queued")
	s.task = append(s.task, ms(done.Sub(x.due)))
	s.xfer = append(s.xfer, ms(done.Sub(disp)))
	s.queue = append(s.queue, ms(disp.Sub(queued)))
	s.attempts = append(s.attempts, float64(t.Attempts))
	s.bytes += int64(x.sub.file.size)
	if x.sub.hot {
		s.hot++
		if t.Stats != nil && t.Stats.Deduped {
			s.hotHits++
		}
	}
}

// tasksPhase runs one open-loop phase on a fresh stack: deliver the hot
// set, submit n tasks at p.rate, drain, stop, check every task.
func tasksPhase(ctx context.Context, p params, dir string, stream int, n int, spans *obs.Log, rep *report, s *taskSample) (metrics.Snapshot, float64, error) {
	plan, err := makeTaskPlan(filepath.Join(dir, fmt.Sprintf("files-%d", stream)), p.seed, stream, p, n)
	if err != nil {
		return metrics.Snapshot{}, 0, err
	}
	stack, err := startTasks(ctx, p, filepath.Join(dir, fmt.Sprintf("state-%d", stream)), spans)
	if err != nil {
		return metrics.Snapshot{}, 0, err
	}
	warm := warmHotSet(ctx, stack, plan)
	a0 := allocMB()
	subs := openLoop(stack, plan, p.rate)
	drain(ctx, stack, subs)
	alloc := allocMB() - a0
	stack.stop()
	stack.check("warm-up task", warm, rep, nil)
	var lastDone time.Time
	for i := range subs {
		s.submit = append(s.submit, ms(subs[i].submit))
		s.late = append(s.late, ms(subs[i].late))
		if done, ok := eventAt(subs[i].task, "done"); ok && done.After(lastDone) {
			lastDone = done
		}
	}
	n0 := len(s.task)
	stack.check("task", subs, rep, s.add)
	if len(subs) > 0 && !lastDone.IsZero() {
		s.wall += lastDone.Sub(subs[0].due)
	}
	s.task90 = append(s.task90, percentile(s.task[n0:], 0.9))
	s.xfer90 = append(s.xfer90, percentile(s.xfer[n0:], 0.9))
	return stack.reg.Snapshot(), alloc / float64(len(subs)), nil
}

// tasksSetup times one set-up of the tasks workload: bind the Server,
// then tasks.New and Run over a fresh, empty state directory. The
// directory is made before the clock starts, as an operator makes it
// before starting fobsd. Creating it is filesystem work, not the
// daemon's, and on the reference host it took 0.1-0.2 ms, as much as
// the rest of the set-up.
func tasksSetup(ctx context.Context, p params, dir string, rep *report) time.Duration {
	state := filepath.Join(dir, "state")
	if err := os.MkdirAll(state, 0o755); err != nil {
		rep.op("set-up", []string{err.Error()})
		return 0
	}
	t0 := time.Now()
	stack, err := startTasks(ctx, p, state, nil)
	d := time.Since(t0)
	if err != nil {
		rep.op("set-up", []string{err.Error()})
		return d
	}
	stack.stop()
	stack.check("set-up", nil, rep, nil)
	return d
}

// taskPhases is how many consecutive open-loop phases a tasks run
// holds, each on a freshly started Server and daemon. Latency on one
// stack settles into a mix of fast and slow tasks that differs from
// stack to stack by up to a quarter of the median; six stacks per run
// average that out.
const taskPhases = 6

// measureTasks is the untraced tasks run.
func measureTasks(ctx context.Context, p params, dir string, rep *report) error {
	if err := measureSetup(ctx, p, dir, rep); err != nil {
		return err
	}
	var s taskSample
	n := int(p.rate * p.duration.Seconds() / taskPhases)
	for i := 0; i < taskPhases; i++ {
		if _, _, err := tasksPhase(ctx, p, dir, streamTasks*10+i, n, nil, rep, &s); err != nil {
			return err
		}
	}
	// An open loop's goodput is what it delivers per second of wall time;
	// it falls below the offered byte rate only when the backlog grows.
	rep.set("goodput_mbps", ratio(float64(s.bytes)/1e6, s.wall.Seconds()))
	// Medians pool every task. The tails are taken per phase and their
	// median reported, so a burst of outside load during one phase cannot
	// set the run's tail.
	rep.set("xfer_ms_p50", median(s.xfer))
	rep.set("xfer_ms_p90", median(s.xfer90))
	rep.set("task_ms_p50", median(s.task))
	rep.set("task_ms_p90", median(s.task90))
	rep.note("samples", fmt.Sprint(len(s.task)))
	rep.note("offered_tasks_per_s", fmt.Sprint(p.rate))
	rep.note("gen_late_ms_p50/p90/max", fmt.Sprintf("%.3f/%.3f/%.3f", median(s.late), percentile(s.late, 0.9), percentile(s.late, 1)))
	rep.note("dedup_hits/hot_submissions", fmt.Sprintf("%d/%d", s.hotHits, s.hot))
	rep.note("repeat_share", fmt.Sprintf("%.3f", ratio(float64(s.hot), float64(len(s.task)))))
	return nil
}
