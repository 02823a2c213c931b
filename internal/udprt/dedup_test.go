package udprt

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/wire"
)

// acceptN runs n sequential Accepts on one listener in the background.
func acceptN(ctx context.Context, l *Listener, n int) (<-chan struct{}, []([]byte), []core.ReceiverStats, []error) {
	done := make(chan struct{})
	objs := make([][]byte, n)
	rsts := make([]core.ReceiverStats, n)
	rerrs := make([]error, n)
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			objs[i], rsts[i], rerrs[i] = l.Accept(ctx)
		}
	}()
	return done, objs, rsts, rerrs
}

// TestDedupSecondSendMovesNoData is the tentpole's acceptance test: the
// second push of an identical object must complete without a single DATA
// packet crossing the wire — one control RPC, answered from the
// receiver's content cache.
func TestDedupSecondSendMovesNoData(t *testing.T) {
	l, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	obj := makeObj(512<<10 + 123)
	done, objs, rsts, rerrs := acceptN(ctx, l, 2)

	sst1, err := Send(ctx, l.Addr(), obj, core.Config{Transfer: 1}, Options{})
	if err != nil {
		t.Fatalf("first send: %v", err)
	}
	if sst1.Deduped {
		t.Fatal("first send of a never-seen object reported Deduped")
	}
	if sst1.PacketsSent == 0 {
		t.Fatal("first send moved no data")
	}

	sst2, err := Send(ctx, l.Addr(), obj, core.Config{Transfer: 2}, Options{})
	if err != nil {
		t.Fatalf("second send: %v", err)
	}
	<-done
	for i, rerr := range rerrs {
		if rerr != nil {
			t.Fatalf("accept %d: %v", i, rerr)
		}
	}
	if !sst2.Deduped {
		t.Fatal("second send of an identical object did not dedup")
	}
	if sst2.PacketsSent != 0 {
		t.Fatalf("deduplicated send put %d DATA packets on the wire, want 0", sst2.PacketsSent)
	}
	if sst2.Restored != sst2.PacketsNeeded || sst2.Restored == 0 {
		t.Fatalf("dedup conservation: Restored = %d, PacketsNeeded = %d; want equal and nonzero",
			sst2.Restored, sst2.PacketsNeeded)
	}
	if !rsts[1].Deduped {
		t.Fatal("receiver stats for the deduplicated transfer lack Deduped")
	}
	if rsts[1].Restored != rsts[1].PacketsNeeded {
		t.Fatalf("receiver dedup conservation: Restored = %d, PacketsNeeded = %d",
			rsts[1].Restored, rsts[1].PacketsNeeded)
	}
	// The deduplicated Accept must still deliver the exact bytes: the
	// application cannot tell a cache hit from a real transfer.
	if !bytes.Equal(objs[1], obj) {
		t.Fatal("deduplicated accept returned different bytes")
	}
}

// TestDedupStripedSend covers the striped plan: a hit excuses every
// stripe at once.
func TestDedupStripedSend(t *testing.T) {
	l, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	obj := makeObj(1 << 20)
	done, objs, _, rerrs := acceptN(ctx, l, 2)

	opts := Options{Streams: 4}
	if _, err := Send(ctx, l.Addr(), obj, core.Config{Transfer: 10}, opts); err != nil {
		t.Fatalf("first send: %v", err)
	}
	sst, err := Send(ctx, l.Addr(), obj, core.Config{Transfer: 20}, opts)
	if err != nil {
		t.Fatalf("second send: %v", err)
	}
	<-done
	for i, rerr := range rerrs {
		if rerr != nil {
			t.Fatalf("accept %d: %v", i, rerr)
		}
	}
	if !sst.Deduped || sst.PacketsSent != 0 {
		t.Fatalf("striped dedup: Deduped=%v PacketsSent=%d, want true/0", sst.Deduped, sst.PacketsSent)
	}
	if !bytes.Equal(objs[1], obj) {
		t.Fatal("deduplicated striped accept returned different bytes")
	}
}

// TestNoDedupDisablesCache pins the opt-outs on both ends: a NoDedup
// receiver caches nothing, and a NoDedup sender never asks.
func TestNoDedupDisablesCache(t *testing.T) {
	t.Run("receiver", func(t *testing.T) {
		l, err := Listen("127.0.0.1:0", Options{NoDedup: true})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		obj := makeObj(128 << 10)
		done, _, _, rerrs := acceptN(ctx, l, 2)
		if _, err := Send(ctx, l.Addr(), obj, core.Config{Transfer: 1}, Options{}); err != nil {
			t.Fatalf("first send: %v", err)
		}
		sst, err := Send(ctx, l.Addr(), obj, core.Config{Transfer: 2}, Options{})
		if err != nil {
			t.Fatalf("second send: %v", err)
		}
		<-done
		for i, rerr := range rerrs {
			if rerr != nil {
				t.Fatalf("accept %d: %v", i, rerr)
			}
		}
		if sst.Deduped || sst.PacketsSent == 0 {
			t.Fatalf("NoDedup receiver still deduplicated: Deduped=%v PacketsSent=%d", sst.Deduped, sst.PacketsSent)
		}
	})
	t.Run("sender", func(t *testing.T) {
		l, err := Listen("127.0.0.1:0", Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		obj := makeObj(128 << 10)
		done, _, _, rerrs := acceptN(ctx, l, 2)
		if _, err := Send(ctx, l.Addr(), obj, core.Config{Transfer: 1}, Options{}); err != nil {
			t.Fatalf("first send: %v", err)
		}
		// The receiver holds the object now, but a NoDedup sender sends no
		// CHECK, so the data flows anyway.
		sst, err := Send(ctx, l.Addr(), obj, core.Config{Transfer: 2}, Options{NoDedup: true})
		if err != nil {
			t.Fatalf("second send: %v", err)
		}
		<-done
		for i, rerr := range rerrs {
			if rerr != nil {
				t.Fatalf("accept %d: %v", i, rerr)
			}
		}
		if sst.Deduped || sst.PacketsSent == 0 {
			t.Fatalf("NoDedup sender still deduplicated: Deduped=%v PacketsSent=%d", sst.Deduped, sst.PacketsSent)
		}
	})
}

// TestVerifyLoopback runs a verified transfer end to end: Verify demands
// the per-stripe digest check on top of the whole-object one, and the
// transfer must complete exactly like an unverified one when the bytes
// are honest.
func TestVerifyLoopback(t *testing.T) {
	opts := Options{Verify: true}
	obj := makeObj(256<<10 + 9)
	got, sst, _ := transfer(t, obj, core.Config{}, opts)
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted")
	}
	if sst.Deduped {
		t.Fatal("fresh verified transfer reported Deduped")
	}
	// Striped verified transfer: per-stripe digests on the wire.
	obj2 := makeObj(1 << 20)
	got2, _, _ := transfer(t, obj2, core.Config{Transfer: 5}, Options{Verify: true, Streams: 3})
	if !bytes.Equal(got2, obj2) {
		t.Fatal("striped verified object corrupted")
	}
}

// TestServerDedupFanout makes the concurrent Server the dedup point: after
// one sender delivers the object, later senders of the same content
// complete from the cache without ever registering a transfer (so the
// same transfer id would not even collide).
func TestServerDedupFanout(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var handled [][]byte
	var dedups int
	srvDone := make(chan error, 1)
	go func() {
		srvDone <- s.Serve(ctx, func(transfer uint32, obj []byte, st core.ReceiverStats) {
			mu.Lock()
			handled = append(handled, obj)
			if st.Deduped {
				dedups++
			}
			mu.Unlock()
		})
	}()

	obj := makeObj(256 << 10)
	if _, err := Send(ctx, s.Addr(), obj, core.Config{Transfer: 1}, Options{}); err != nil {
		t.Fatalf("seed send: %v", err)
	}
	const fan = 3
	for i := 0; i < fan; i++ {
		sst, err := Send(ctx, s.Addr(), obj, core.Config{Transfer: uint32(100 + i)}, Options{})
		if err != nil {
			t.Fatalf("fanout send %d: %v", i, err)
		}
		if !sst.Deduped || sst.PacketsSent != 0 {
			t.Fatalf("fanout send %d: Deduped=%v PacketsSent=%d, want true/0", i, sst.Deduped, sst.PacketsSent)
		}
	}
	cancel()
	if err := <-srvDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(handled) != 1+fan {
		t.Fatalf("handler saw %d completions, want %d", len(handled), 1+fan)
	}
	if dedups != fan {
		t.Fatalf("handler saw %d deduplicated completions, want %d", dedups, fan)
	}
	for i, got := range handled {
		if !bytes.Equal(got, obj) {
			t.Fatalf("completion %d delivered different bytes", i)
		}
	}
}

// TestDedupReadYourWrites pins the receive side's commit-before-COMPLETE
// invariant: a repeat Send of the same object, issued the moment the first
// Send returns, must be answered from the content cache — on a Listener,
// whose next Accept runs after the previous one returned, and on a Server,
// whose control handlers run concurrently and whose cache the second CHECK
// may reach before the first handler has finished.
func TestDedupReadYourWrites(t *testing.T) {
	obj := makeObj(64<<10 + 5)
	repeat := func(t *testing.T, addr string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if _, err := Send(ctx, addr, obj, core.Config{Transfer: 1}, Options{}); err != nil {
			t.Fatalf("first send: %v", err)
		}
		sst, err := Send(ctx, addr, obj, core.Config{Transfer: 2}, Options{})
		if err != nil {
			t.Fatalf("repeat send: %v", err)
		}
		if !sst.Deduped || sst.PacketsSent != 0 {
			t.Fatalf("repeat send: Deduped=%v PacketsSent=%d, want true/0", sst.Deduped, sst.PacketsSent)
		}
	}
	t.Run("listener", func(t *testing.T) {
		l, err := Listen("127.0.0.1:0", Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done, _, _, rerrs := acceptN(ctx, l, 2)
		repeat(t, l.Addr())
		<-done
		for i, rerr := range rerrs {
			if rerr != nil {
				t.Fatalf("accept %d: %v", i, rerr)
			}
		}
	})
	t.Run("server", func(t *testing.T) {
		s, err := NewServer("127.0.0.1:0", Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ctx, cancel := context.WithCancel(context.Background())
		srvDone := make(chan error, 1)
		go func() { srvDone <- s.Serve(ctx, func(uint32, []byte, core.ReceiverStats) {}) }()
		repeat(t, s.Addr())
		cancel()
		if err := <-srvDone; err != nil {
			t.Fatalf("serve: %v", err)
		}
	})
}

// TestDedupCachePersistsAcrossRestart proves the cache rides the same
// durable container as the resume store: a receiver restarted over its
// checkpoint directory still answers HAVE for the objects it verified
// before the restart.
func TestDedupCachePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	obj := makeObj(128 << 10)

	l1, err := Listen("127.0.0.1:0", Options{Checkpoint: dir})
	if err != nil {
		t.Fatal(err)
	}
	done, _, _, rerrs := acceptN(ctx, l1, 1)
	if _, err := Send(ctx, l1.Addr(), obj, core.Config{Transfer: 1}, Options{}); err != nil {
		l1.Close()
		t.Fatalf("seed send: %v", err)
	}
	<-done
	if rerrs[0] != nil {
		t.Fatalf("seed accept: %v", rerrs[0])
	}
	l1.Close()

	l2, err := Listen("127.0.0.1:0", Options{Checkpoint: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if n := l2.cache.len(); n != 1 {
		t.Fatalf("restarted cache holds %d entries, want 1", n)
	}
	done2, objs2, _, rerrs2 := acceptN(ctx, l2, 1)
	sst, err := Send(ctx, l2.Addr(), obj, core.Config{Transfer: 2}, Options{})
	if err != nil {
		t.Fatalf("post-restart send: %v", err)
	}
	<-done2
	if rerrs2[0] != nil {
		t.Fatalf("post-restart accept: %v", rerrs2[0])
	}
	if !sst.Deduped || sst.PacketsSent != 0 {
		t.Fatalf("post-restart dedup: Deduped=%v PacketsSent=%d, want true/0", sst.Deduped, sst.PacketsSent)
	}
	if !bytes.Equal(objs2[0], obj) {
		t.Fatal("post-restart deduplicated accept returned different bytes")
	}
}

// TestContentCacheEviction bounds the cache: past the limit the oldest
// entry goes, newest stays.
func TestContentCacheEviction(t *testing.T) {
	c := newContentCache(Options{})
	c.max = 2
	mk := func(fill byte) ([32]byte, []byte) {
		obj := bytes.Repeat([]byte{fill}, 1024)
		return core.ContentID(obj), obj
	}
	d1, o1 := mk(1)
	d2, o2 := mk(2)
	d3, o3 := mk(3)
	c.add(d1, o1, 512)
	c.add(d2, o2, 512)
	c.add(d3, o3, 512)
	if n := c.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	if _, ok := c.lookup(d1); ok {
		t.Fatal("oldest entry survived eviction")
	}
	for _, d := range [][32]byte{d2, d3} {
		got, ok := c.lookup(d)
		if !ok {
			t.Fatal("recent entry missing")
		}
		// lookup must copy out: mutating the answer must not poison the cache.
		got[0] ^= 0xFF
		again, _ := c.lookup(d)
		if again[0] == got[0] {
			t.Fatal("lookup aliases the cached bytes")
		}
	}
	// Nil cache (NoDedup): every method is a no-op.
	var nilCache *contentCache
	nilCache.add(d1, o1, 512)
	if _, ok := nilCache.lookup(d1); ok || nilCache.len() != 0 {
		t.Fatal("nil cache answered a lookup")
	}
}

// TestResumeReconciledWithDedup pins the RESUME/CHECK pipeline: a
// ResumeFirst supervisor leading with [CHECK][RESUME] against a receiver
// that already completed (and cached) the object finishes on the CHECK
// answer alone — no resume bitmap, no data flow.
func TestResumeReconciledWithDedup(t *testing.T) {
	l, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	obj := makeObj(256 << 10)
	done, _, _, rerrs := acceptN(ctx, l, 2)
	if _, err := Send(ctx, l.Addr(), obj, core.Config{Transfer: 1}, Options{}); err != nil {
		t.Fatalf("seed send: %v", err)
	}
	// A restarted orchestrator re-driving the same task: leads with RESUME.
	opts := Options{Retry: &RetryPolicy{}, ResumeFirst: true}
	sst, err := Send(ctx, l.Addr(), obj, core.Config{Transfer: 1}, opts)
	if err != nil {
		t.Fatalf("resume-first send: %v", err)
	}
	<-done
	for i, rerr := range rerrs {
		if rerr != nil {
			t.Fatalf("accept %d: %v", i, rerr)
		}
	}
	if !sst.Deduped || sst.PacketsSent != 0 {
		t.Fatalf("resume-first dedup: Deduped=%v PacketsSent=%d, want true/0", sst.Deduped, sst.PacketsSent)
	}
}

// startAbortingPeer runs a fake receiver that answers its first n
// connections' first frame with ABORT(reason), then expects a plain HELLO
// on connection n+1 and acknowledges it. It reports through errc.
func startAbortingPeer(t *testing.T, tl net.Listener, aborts int, reason wire.AbortReason, transfer uint32) <-chan error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		errc <- func() error {
			for i := 0; i < aborts; i++ {
				c, err := tl.Accept()
				if err != nil {
					return err
				}
				// Read just the fixed header worth of bytes — enough to see a
				// frame arrived — then refuse the announcement wholesale, the
				// way an extras-unaware peer's parser answers.
				buf := make([]byte, 4)
				if _, err := io.ReadFull(c, buf); err != nil {
					c.Close()
					return err
				}
				c.Write(wire.AppendAbort(nil, &wire.Abort{Reason: reason}))
				c.Close()
			}
			c, err := tl.Accept()
			if err != nil {
				return err
			}
			defer c.Close()
			buf := make([]byte, wire.HelloLen)
			if _, err := io.ReadFull(c, buf); err != nil {
				return err
			}
			h, err := wire.DecodeHello(buf)
			if err != nil {
				return errors.New("degraded handshake did not lead with a plain HELLO")
			}
			if h.Transfer != transfer {
				return errors.New("degraded HELLO changed the transfer id")
			}
			_, err = c.Write(wire.AppendHelloAck(nil, &wire.HelloAck{Transfer: transfer}))
			return err
		}()
	}()
	return errc
}

// TestCheckPreludeDegradesOnAbort covers negotiate-down against a peer
// that rejects the CHECK-bearing announcement with a reasoned ABORT: the
// handshake must drop the CHECK and succeed without consuming the retry
// budget — the same zero-cost ladder the TRACE prelude rides.
func TestCheckPreludeDegradesOnAbort(t *testing.T) {
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	const transfer = 77
	peer := startAbortingPeer(t, tl, 1, wire.AbortBadHello, transfer)

	opts := Options{HandshakeTimeout: 5 * time.Second}.withDefaults()
	opts.HandshakeRetries = 1 // even a no-retry budget must degrade cleanly
	plan, err := newSenderPlan(makeObj(1024), core.Config{Transfer: transfer, PacketSize: 512}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ctl, have, err := dialHandshake(ctx, tl.Addr().String(), nil, plan.checkFrame(opts), plan.helloFrame(), transfer, opts)
	if err != nil {
		t.Fatalf("checked handshake did not degrade: %v", err)
	}
	ctl.Close()
	if have != nil {
		t.Fatal("degraded handshake still reported a CHECK answer")
	}
	if err := <-peer; err != nil {
		t.Fatalf("peer: %v", err)
	}
}

// TestCheckAndTraceDegradeTogether stacks both extras against an old
// peer: the CHECK drops first, the TRACE second, and the third connection
// carries the plain HELLO — all within a single-attempt budget.
func TestCheckAndTraceDegradeTogether(t *testing.T) {
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	const transfer = 78
	peer := startAbortingPeer(t, tl, 2, wire.AbortUnsupported, transfer)

	opts := Options{HandshakeTimeout: 5 * time.Second}.withDefaults()
	opts.HandshakeRetries = 1
	plan, err := newSenderPlan(makeObj(1024), core.Config{Transfer: transfer, PacketSize: 512}, opts)
	if err != nil {
		t.Fatal(err)
	}
	prelude := tracePrelude([16]byte{9, 9})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ctl, _, err := dialHandshake(ctx, tl.Addr().String(), prelude, plan.checkFrame(opts), plan.helloFrame(), transfer, opts)
	if err != nil {
		t.Fatalf("stacked extras did not degrade: %v", err)
	}
	ctl.Close()
	if err := <-peer; err != nil {
		t.Fatalf("peer: %v", err)
	}
}

// TestVerifyRequiredIsTerminalOnRefusal pins the Verify contract: a peer
// that refuses the CHECK makes the transfer fail with
// ErrVerifyUnsupported — no degradation, no retry.
func TestVerifyRequiredIsTerminalOnRefusal(t *testing.T) {
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	go func() {
		c, err := tl.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err != nil {
			return
		}
		c.Write(wire.AppendAbort(nil, &wire.Abort{Reason: wire.AbortUnsupported}))
	}()

	opts := Options{Verify: true, HandshakeTimeout: 5 * time.Second}.withDefaults()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = Send(ctx, tl.Addr().String(), makeObj(1024), core.Config{Transfer: 3, PacketSize: 512}, opts)
	if !errors.Is(err, ErrVerifyUnsupported) {
		t.Fatalf("err = %v, want ErrVerifyUnsupported", err)
	}
	if IsRetryable(err) {
		t.Fatal("ErrVerifyUnsupported classified retryable")
	}
}

// TestFutureCheckVersionAborted pins the receive-side version gate: a
// CHECK prelude from a future protocol revision is answered with
// ABORT (unsupported), exactly like future HELLOX, RESUME and TRACE
// revisions — never a hang, never a data blast.
func TestFutureCheckVersionAborted(t *testing.T) {
	l, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	accErr := make(chan error, 1)
	go func() { _, _, err := l.Accept(ctx); accErr <- err }()

	conn, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := wire.AppendCheck(nil, &wire.Check{
		Transfer:   1,
		ObjectSize: 64,
		PacketSize: 64,
		Digest:     core.ContentID([]byte{1}),
	})
	frame[3] = wire.CheckVersion + 1
	frame = wire.AppendHello(frame, &wire.Hello{Transfer: 1, ObjectSize: 64, PacketSize: 64})
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := readControlFrame(conn)
	if err != nil {
		t.Fatalf("no answer to future-version CHECK: %v", err)
	}
	if f.typ != wire.TypeAbort || f.abort.Reason != wire.AbortUnsupported {
		t.Fatalf("answer = type %d reason %v, want ABORT unsupported", f.typ, f.abort.Reason)
	}
	if err := <-accErr; !errors.Is(err, wire.ErrCheckVersion) {
		t.Fatalf("Accept err = %v, want ErrCheckVersion", err)
	}
}

// TestSessionDedupAnswersNext covers the one-session-many-objects path:
// IncomingSession.Next must answer a checked announcement from the
// listener's cache too. (Session.Send itself never sends a CHECK — there
// is no degradation inside a session — so the hit is driven by a plain
// Send against the session listener's port.)
func TestSessionDedupAnswersNext(t *testing.T) {
	sl, err := ListenSession("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	obj := makeObj(128 << 10)
	type result struct {
		obj []byte
		st  core.ReceiverStats
		err error
	}
	results := make(chan result, 2)
	go func() {
		// Each plain Send dials its own control connection, so accept one
		// session per send; both sessions share the listener's cache.
		for i := 0; i < 2; i++ {
			is, err := sl.AcceptSession(ctx)
			if err != nil {
				results <- result{err: err}
				continue
			}
			got, st, err := is.Next(ctx)
			is.Close()
			results <- result{got, st, err}
		}
	}()
	if _, err := Send(ctx, sl.Addr(), obj, core.Config{Transfer: 1}, Options{}); err != nil {
		t.Fatalf("first send: %v", err)
	}
	r1 := <-results
	if r1.err != nil {
		t.Fatalf("first next: %v", r1.err)
	}
	sst, err := Send(ctx, sl.Addr(), obj, core.Config{Transfer: 2}, Options{})
	if err != nil {
		t.Fatalf("second send: %v", err)
	}
	r2 := <-results
	if r2.err != nil {
		t.Fatalf("second next: %v", r2.err)
	}
	if !sst.Deduped || sst.PacketsSent != 0 {
		t.Fatalf("session dedup: Deduped=%v PacketsSent=%d, want true/0", sst.Deduped, sst.PacketsSent)
	}
	if !r2.st.Deduped || !bytes.Equal(r2.obj, obj) {
		t.Fatalf("session receiver: Deduped=%v, bytes equal=%v", r2.st.Deduped, bytes.Equal(r2.obj, obj))
	}
}

// TestSessionSenderDedups pins the in-session digest-first handshake:
// one Session carrying the same object twice completes its second Send
// off the receiver's cache — zero data packets, session unbroken, and a
// third (different) object still flows normally afterwards.
func TestSessionSenderDedups(t *testing.T) {
	sl, err := ListenSession("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	obj := makeObj(128 << 10)
	other := makeObj(96 << 10)

	type result struct {
		obj []byte
		st  core.ReceiverStats
		err error
	}
	results := make(chan result, 3)
	go func() {
		is, err := sl.AcceptSession(ctx)
		if err != nil {
			results <- result{err: err}
			return
		}
		defer is.Close()
		for i := 0; i < 3; i++ {
			got, st, err := is.Next(ctx)
			results <- result{got, st, err}
			if err != nil {
				return
			}
		}
	}()

	s, err := OpenSession(ctx, sl.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Send(ctx, obj, core.Config{}); err != nil {
		t.Fatalf("first send: %v", err)
	}
	if r := <-results; r.err != nil || !bytes.Equal(r.obj, obj) {
		t.Fatalf("first next: err=%v equal=%v", r.err, bytes.Equal(r.obj, obj))
	}
	st, err := s.Send(ctx, obj, core.Config{})
	if err != nil {
		t.Fatalf("second send: %v", err)
	}
	if !st.Deduped || st.PacketsSent != 0 {
		t.Fatalf("second send: Deduped=%v PacketsSent=%d, want true/0", st.Deduped, st.PacketsSent)
	}
	if st.Restored != st.PacketsNeeded || st.PacketsNeeded == 0 {
		t.Fatalf("second send restored %d of %d", st.Restored, st.PacketsNeeded)
	}
	r := <-results
	if r.err != nil || !r.st.Deduped || !bytes.Equal(r.obj, obj) {
		t.Fatalf("second next: err=%v Deduped=%v", r.err, r.st.Deduped)
	}
	// The session survives the dedup hit: a fresh object still flows.
	st3, err := s.Send(ctx, other, core.Config{})
	if err != nil {
		t.Fatalf("third send: %v", err)
	}
	if st3.Deduped || st3.PacketsSent == 0 {
		t.Fatalf("third send should have moved data: %+v", st3)
	}
	if r := <-results; r.err != nil || !bytes.Equal(r.obj, other) {
		t.Fatalf("third next: err=%v equal=%v", r.err, bytes.Equal(r.obj, other))
	}
}
