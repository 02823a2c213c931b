package udprt

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/faultnet"
	"github.com/hpcnet/fobs/internal/wire"
)

// fakeReceiver is a hand-driven peer speaking just enough of the control
// protocol to lure a real sender into a chosen failure: it completes the
// handshake and then does whatever the test says — typically nothing.
type fakeReceiver struct {
	t    *testing.T
	tcp  *net.TCPListener
	udp  *net.UDPConn // nil when the test wants ECONNREFUSED on data writes
	ctl  *net.TCPConn
	done chan struct{}
}

// newFakeReceiver binds the TCP control port, optionally with a UDP socket
// on the same port swallowing (never reading) data packets.
func newFakeReceiver(t *testing.T, withUDP bool) *fakeReceiver {
	t.Helper()
	tl, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeReceiver{t: t, tcp: tl, done: make(chan struct{})}
	if withUDP {
		port := tl.Addr().(*net.TCPAddr).Port
		f.udp, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
		if err != nil {
			tl.Close()
			t.Fatal(err)
		}
	}
	t.Cleanup(f.close)
	return f
}

func (f *fakeReceiver) addr() string { return f.tcp.Addr().String() }

func (f *fakeReceiver) close() {
	f.tcp.Close()
	if f.udp != nil {
		f.udp.Close()
	}
	if f.ctl != nil {
		f.ctl.Close()
	}
}

// acceptHandshake accepts the sender's control connection, consumes its
// announcement — answering any CHECK prelude with a miss, like a real
// cache-empty receiver — and acknowledges the HELLO, then goes silent.
func (f *fakeReceiver) acceptHandshake() {
	defer close(f.done)
	f.tcp.SetDeadline(time.Now().Add(10 * time.Second))
	ctl, err := f.tcp.AcceptTCP()
	if err != nil {
		f.t.Errorf("fake receiver accept: %v", err)
		return
	}
	f.ctl = ctl
	ctl.SetReadDeadline(time.Now().Add(10 * time.Second))
	frame, err := readControlFrame(ctl)
	for err == nil && (frame.typ == wire.TypeTrace || frame.typ == wire.TypeCheck) {
		if frame.typ == wire.TypeCheck {
			if err := answerCheckMiss(ctl, frame.check.Transfer); err != nil {
				f.t.Errorf("fake receiver check answer: %v", err)
				return
			}
		}
		frame, err = readControlFrame(ctl)
	}
	if err != nil || frame.typ != wire.TypeHello {
		f.t.Errorf("fake receiver hello: type %d, %v", frame.typ, err)
		return
	}
	if err := writeHelloAck(ctl, frame.hello.Transfer); err != nil {
		f.t.Errorf("fake receiver hello-ack: %v", err)
	}
}

// expectAbort reads one more control frame and checks it is an ABORT with
// the given reason.
func (f *fakeReceiver) expectAbort(reason wire.AbortReason) {
	f.t.Helper()
	<-f.done
	f.ctl.SetReadDeadline(time.Now().Add(10 * time.Second))
	frame, err := readControlFrame(f.ctl)
	if err != nil {
		f.t.Fatalf("reading abort: %v", err)
	}
	if frame.typ != wire.TypeAbort || frame.abort.Reason != reason {
		f.t.Fatalf("got control frame type %d reason %v, want ABORT %v",
			frame.typ, frame.abort.Reason, reason)
	}
}

// TestTransferCompletesUnderLoss drives a real transfer through a seeded
// fault proxy dropping, duplicating, reordering and delaying data
// datagrams: the protocol's whole reason to exist. The digest in the
// COMPLETE frame (verified inside Send) proves end-to-end integrity.
func TestTransferCompletesUnderLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	l, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	proxy, err := faultnet.NewProxy(l.Addr(), faultnet.New(faultnet.Policy{
		Seed:    42,
		Drop:    0.12,
		Dup:     0.04,
		Reorder: 0.04,
		Delay:   0.04,
		DelayBy: time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	obj := makeObj(1<<20 + 13)
	var got []byte
	var rerr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		got, _, rerr = l.Accept(ctx)
	}()
	sst, serr := Send(ctx, proxy.Addr(), obj, core.Config{}, Options{Pace: 2 * time.Microsecond})
	<-done
	if serr != nil {
		t.Fatalf("send through faults: %v", serr)
	}
	if rerr != nil {
		t.Fatalf("receive through faults: %v", rerr)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted by fault injection")
	}
	st := proxy.Stats()
	if st.Dropped == 0 || st.Duplicated == 0 {
		t.Fatalf("faults never fired: %+v", st)
	}
	if sst.PacketsSent <= sst.PacketsNeeded {
		t.Fatalf("no retransmissions under %d drops?! sent %d of %d",
			st.Dropped, sst.PacketsSent, sst.PacketsNeeded)
	}
	t.Logf("loss run: %+v, sender sent %d/%d (waste %.1f%%)",
		st, sst.PacketsSent, sst.PacketsNeeded, 100*sst.Waste())
}

// TestSenderStallsWhenReceiverVanishes is the regression test for the
// paper's unhandled failure: a receiver that handshakes and then never
// acknowledges. The sender must return within StallTimeout (not hang
// forever blasting UDP), count the stall, and tell the peer why it left.
func TestSenderStallsWhenReceiverVanishes(t *testing.T) {
	fake := newFakeReceiver(t, true)
	go fake.acceptHandshake()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const stall = 400 * time.Millisecond
	start := time.Now()
	sst, err := Send(ctx, fake.addr(), makeObj(64<<10), core.Config{},
		Options{StallTimeout: stall, Pace: 20 * time.Microsecond})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if elapsed < stall {
		t.Fatalf("returned after %v, before the %v stall window", elapsed, stall)
	}
	if elapsed > 10*stall {
		t.Fatalf("took %v to notice a %v stall", elapsed, stall)
	}
	if sst.Stalls != 1 {
		t.Fatalf("stats.Stalls = %d, want 1", sst.Stalls)
	}
	fake.expectAbort(wire.AbortStalled)
}

// TestSenderStallMidTransferViaBlackhole kills the network path — not the
// peer — once the transfer is demonstrably making progress, and expects the
// stall watchdog to end it.
func TestSenderStallMidTransferViaBlackhole(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	l, err := Listen("127.0.0.1:0", Options{IdleTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	proxy, err := faultnet.NewProxy(l.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	recvErr := make(chan error, 1)
	go func() {
		_, _, err := l.Accept(ctx)
		recvErr <- err
	}()

	// The proxy black-holes the path once a tenth of the packets went
	// through: the transfer is under way and cannot have completed.
	obj := makeObj(4 << 20)
	proxy.ScheduleCut(faultnet.Cut{After: packetsOf(obj) / 10, Blackhole: true})
	opts := Options{
		StallTimeout: 500 * time.Millisecond,
		Pace:         10 * time.Microsecond,
	}
	_, err = Send(ctx, proxy.Addr(), obj, core.Config{AckFrequency: 16}, opts)
	if proxy.CutsFired() != 1 {
		t.Fatal("the blackhole never engaged")
	}
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	// The sender's ABORT travels over the (still connected) control
	// channel, so the receiver learns of the failure promptly instead of
	// idling out.
	select {
	case rerr := <-recvErr:
		var abort *AbortError
		if !errors.As(rerr, &abort) || abort.Reason != wire.AbortStalled {
			t.Fatalf("receiver error = %v, want stall abort", rerr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receiver did not learn about the sender's abort")
	}
}

// TestDuplicateTransferIDAborted checks the server rejects a colliding
// transfer id with a prompt reasoned ABORT, rather than the old silent
// drop that left the second sender hanging until some timeout.
func TestDuplicateTransferIDAborted(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(ctx, func(uint32, []byte, core.ReceiverStats) {})
	}()

	// A squatter handshakes for transfer 9 and sits on it.
	squatter, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()
	hello := wire.AppendHello(nil, &wire.Hello{Transfer: 9, ObjectSize: 1 << 20, PacketSize: 1024})
	if _, err := squatter.Write(hello); err != nil {
		t.Fatal(err)
	}
	if err := awaitHelloAck(ctx, squatter, 9, 10*time.Second); err != nil {
		t.Fatalf("squatter handshake: %v", err)
	}

	start := time.Now()
	_, err = Send(ctx, srv.Addr(), makeObj(32<<10), core.Config{Transfer: 9}, Options{})
	elapsed := time.Since(start)
	var abort *AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("err = %v, want AbortError", err)
	}
	if abort.Reason != wire.AbortDuplicateTransfer || abort.Transfer != 9 {
		t.Fatalf("abort = %+v", abort)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("duplicate rejection took %v; must be prompt, not a timeout", elapsed)
	}
	cancel()
	<-serveDone
}

// TestReceiverIdleAbortsAndInformsSender starves a live receiver of data
// and expects its idle watchdog to end the transfer with a reasoned ABORT
// back to the (silent but connected) sender.
func TestReceiverIdleAbortsAndInformsSender(t *testing.T) {
	l, err := Listen("127.0.0.1:0", Options{IdleTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var rst core.ReceiverStats
	recvErr := make(chan error, 1)
	go func() {
		var err error
		_, rst, err = l.Accept(ctx)
		recvErr <- err
	}()

	// A raw sender that handshakes and then never sends a byte of data.
	ctl, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	hello := wire.AppendHello(nil, &wire.Hello{Transfer: 3, ObjectSize: 1 << 20, PacketSize: 1024})
	if _, err := ctl.Write(hello); err != nil {
		t.Fatal(err)
	}
	if err := awaitHelloAck(ctx, ctl, 3, 10*time.Second); err != nil {
		t.Fatalf("handshake: %v", err)
	}

	select {
	case rerr := <-recvErr:
		if !errors.Is(rerr, ErrIdle) {
			t.Fatalf("receiver error = %v, want ErrIdle", rerr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receiver never idled out")
	}
	if rst.IdleTimeouts != 1 {
		t.Fatalf("stats.IdleTimeouts = %d, want 1", rst.IdleTimeouts)
	}
	ctl.SetReadDeadline(time.Now().Add(10 * time.Second))
	frame, err := readControlFrame(ctl)
	if err != nil {
		t.Fatalf("reading abort: %v", err)
	}
	if frame.typ != wire.TypeAbort || frame.abort.Reason != wire.AbortIdleTimeout {
		t.Fatalf("got frame type %d reason %v, want ABORT idle-timeout",
			frame.typ, frame.abort.Reason)
	}
}

// TestAcceptDeadlineNotPoisoned is the regression test for the deadline
// leak: a deadline-bounded Accept that expires used to leave the deadline
// set on the listening socket, poisoning every later Accept.
func TestAcceptDeadlineNotPoisoned(t *testing.T) {
	l, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ctx1, cancel1 := context.WithTimeout(context.Background(), 150*time.Millisecond)
	if _, _, err := l.Accept(ctx1); err == nil {
		t.Fatal("Accept returned without a sender")
	}
	cancel1()

	// The listener must still work for a patient caller.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	obj := makeObj(64 << 10)
	var got []byte
	var rerr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		got, _, rerr = l.Accept(ctx2)
	}()
	if _, err := Send(ctx2, l.Addr(), obj, core.Config{}, Options{}); err != nil {
		t.Fatalf("send after expired Accept: %v", err)
	}
	<-done
	if rerr != nil {
		t.Fatalf("accept after expired Accept: %v", rerr)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted")
	}
}

// TestSeverControlMidTransfer cuts the TCP control connection while data
// is flowing. Both endpoints must notice and return errors promptly — long
// before their generous liveness watchdogs.
func TestSeverControlMidTransfer(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	l, err := Listen("127.0.0.1:0", Options{IdleTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	proxy, err := faultnet.NewProxy(l.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	recvErr := make(chan error, 1)
	go func() {
		_, _, err := l.Accept(ctx)
		recvErr <- err
	}()

	obj := makeObj(4 << 20)
	proxy.ScheduleCut(faultnet.Cut{After: packetsOf(obj) / 10, Sever: true})
	opts := Options{
		StallTimeout: 60 * time.Second,
		Pace:         10 * time.Microsecond,
	}
	start := time.Now()
	_, err = Send(ctx, proxy.Addr(), obj, core.Config{AckFrequency: 16}, opts)
	if proxy.CutsFired() != 1 {
		t.Fatal("the control cut never fired")
	}
	if err == nil {
		t.Fatal("sender succeeded across a severed control connection")
	}
	if e := time.Since(start); e > 15*time.Second {
		t.Fatalf("sender took %v to notice the severed control connection", e)
	}
	select {
	case rerr := <-recvErr:
		if rerr == nil {
			t.Fatal("receiver succeeded across a severed control connection")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receiver never noticed the severed control connection")
	}
}

// TestSenderSurfacesPersistentWriteError handshakes against a peer with no
// UDP socket at all, so every data write eventually fails with
// ECONNREFUSED. The old loop swallowed the error and span until some
// timeout; now it must surface well before the (deliberately huge)
// StallTimeout.
func TestSenderSurfacesPersistentWriteError(t *testing.T) {
	fake := newFakeReceiver(t, false) // no UDP socket: data writes refused
	go fake.acceptHandshake()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err := Send(ctx, fake.addr(), makeObj(256<<10), core.Config{},
		Options{StallTimeout: 5 * time.Minute})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("send against a closed data port succeeded")
	}
	if errors.Is(err, ErrStalled) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("write error reached a watchdog instead of surfacing: %v", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("took %v to surface a persistent write error", elapsed)
	}
}

// TestServerConcurrentTransfersWithCollisions mixes good transfers and
// duplicate-id collisions under -race: collisions must fail fast with the
// right reason and never corrupt the transfers sharing the data socket.
func TestServerConcurrentTransfersWithCollisions(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	srv, err := NewServer("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var mu sync.Mutex
	delivered := map[uint32][]byte{}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(ctx, func(id uint32, obj []byte, _ core.ReceiverStats) {
			mu.Lock()
			delivered[id] = obj
			mu.Unlock()
		})
	}()

	const n = 4
	objs := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		objs[i] = makeObj(200<<10 + i)
		id := uint32(i + 1)
		// Two senders race for the same id. Whichever HELLO lands second
		// gets a duplicate-transfer ABORT (or, if the first finished
		// already, a clean sequential reuse) — any other failure is a bug.
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, err := Send(ctx, srv.Addr(), objs[i], core.Config{Transfer: id},
					Options{Pace: 5 * time.Microsecond})
				var abort *AbortError
				if err != nil && (!errors.As(err, &abort) || abort.Reason != wire.AbortDuplicateTransfer) {
					t.Errorf("transfer %d: unexpected error %v", id, err)
				}
			}(i)
		}
	}
	wg.Wait()
	cancel()
	<-serveDone

	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		id := uint32(i + 1)
		if !bytes.Equal(delivered[id], objs[i]) {
			t.Errorf("transfer %d corrupted or missing", id)
		}
	}
}

// TestCorruptedPayloadFailsDigest is the integrity acceptance test: a
// transfer whose payload bytes are bit-flipped in flight (corruption the
// per-packet CRC never sees — Checksum is off by default) must fail on
// both endpoints with ErrDigestMismatch instead of reporting success,
// because the CHECK prelude's content digest is verified at completion.
func TestCorruptedPayloadFailsDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	l, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	proxy, err := faultnet.NewProxy(l.Addr(), faultnet.New(faultnet.Policy{
		Seed:          7,
		Corrupt:       0.05,
		CorruptOffset: wire.DataHeaderLen, // flip object bytes, not headers
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	obj := makeObj(1 << 20)
	var rerr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, rerr = l.Accept(ctx)
	}()
	_, serr := Send(ctx, proxy.Addr(), obj, core.Config{}, Options{Pace: 2 * time.Microsecond})
	<-done
	if st := proxy.Stats(); st.Corrupted == 0 {
		t.Fatalf("corruption never fired: %+v", st)
	}
	if !errors.Is(serr, ErrDigestMismatch) {
		t.Fatalf("sender err = %v, want ErrDigestMismatch", serr)
	}
	if !errors.Is(rerr, ErrDigestMismatch) {
		t.Fatalf("receiver err = %v, want ErrDigestMismatch", rerr)
	}
	if IsRetryable(serr) {
		t.Fatal("content corruption classified retryable")
	}
}

// packetsOf is obj's packet count at the default packet size: the unit a
// faultnet.Cut counts in when one datagram carries one packet.
func packetsOf(obj []byte) int64 {
	return int64(core.NumPackets(int64(len(obj)), core.DefaultPacketSize))
}
