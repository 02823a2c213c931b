package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hpcnet/fobs/internal/wire"
)

func makeObject(n int) []byte {
	obj := make([]byte, n)
	rng := rand.New(rand.NewSource(42))
	rng.Read(obj)
	return obj
}

// loopTransfer runs a sender and receiver against each other through an
// in-memory "network" with the given per-packet drop decision, until the
// object completes. It returns both endpoints for inspection.
func loopTransfer(t *testing.T, obj []byte, cfg Config, drop func(i int) bool) (*Sender, *Receiver) {
	t.Helper()
	s := NewSender(obj, cfg)
	r := NewReceiver(int64(len(obj)), cfg)
	var ackQueue []wire.Ack
	sentIndex := 0
	for step := 0; step < 200*s.NumPackets()+1000; step++ {
		if s.Done() {
			break
		}
		// Phase 1: batch-send.
		for i := 0; i < s.BatchSize(); i++ {
			d, ok := s.NextPacket()
			if !ok {
				break
			}
			sentIndex++
			if drop != nil && drop(sentIndex) {
				continue
			}
			ackDue, err := r.HandleData(d)
			if err != nil {
				t.Fatalf("receiver rejected packet: %v", err)
			}
			if ackDue {
				ackQueue = append(ackQueue, r.BuildAck())
			}
		}
		// Phase 2: non-blocking ack poll.
		if len(ackQueue) > 0 {
			if err := s.HandleAck(ackQueue[0]); err != nil {
				t.Fatalf("sender rejected ack: %v", err)
			}
			ackQueue = ackQueue[1:]
		}
		// Control channel: completion signal.
		if r.Complete() {
			s.SetComplete()
		}
	}
	if !s.Done() {
		t.Fatalf("transfer did not complete: receiver missing %d of %d packets",
			r.Missing(), r.NumPackets())
	}
	return s, r
}

func TestLosslessTransferReconstructsObject(t *testing.T) {
	obj := makeObject(100*1024 + 37) // deliberately not packet-aligned
	_, r := loopTransfer(t, obj, Config{AckFrequency: 16}, nil)
	if !bytes.Equal(r.Object(), obj) {
		t.Fatal("reconstructed object differs from original")
	}
	if r.Stats().Received != r.NumPackets() {
		t.Fatalf("Received = %d, want %d", r.Stats().Received, r.NumPackets())
	}
}

func TestLossyTransferReconstructsObject(t *testing.T) {
	obj := makeObject(64 * 1024)
	rng := rand.New(rand.NewSource(7))
	s, r := loopTransfer(t, obj, Config{AckFrequency: 8}, func(int) bool {
		return rng.Float64() < 0.2
	})
	if !bytes.Equal(r.Object(), obj) {
		t.Fatal("reconstructed object differs from original under 20% loss")
	}
	if s.Stats().Waste() <= 0 {
		t.Fatal("20% loss produced zero waste, impossible")
	}
}

func TestHeavyLossStillCompletes(t *testing.T) {
	obj := makeObject(8 * 1024)
	rng := rand.New(rand.NewSource(3))
	_, r := loopTransfer(t, obj, Config{AckFrequency: 4, PacketSize: 512}, func(int) bool {
		return rng.Float64() < 0.6
	})
	if !bytes.Equal(r.Object(), obj) {
		t.Fatal("object corrupted under 60% loss")
	}
}

func TestSinglePacketObject(t *testing.T) {
	obj := makeObject(10)
	_, r := loopTransfer(t, obj, Config{}, nil)
	if !bytes.Equal(r.Object(), obj) {
		t.Fatal("single-packet object corrupted")
	}
	if r.NumPackets() != 1 {
		t.Fatalf("NumPackets = %d, want 1", r.NumPackets())
	}
}

func TestEmptyObjectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty object did not panic")
		}
	}()
	NewSender(nil, Config{})
}

func TestZeroSizeReceiverPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size receiver did not panic")
		}
	}()
	NewReceiver(0, Config{})
}

func TestNumPackets(t *testing.T) {
	for _, tc := range []struct {
		size int64
		ps   int
		want int
	}{
		{1, 1024, 1},
		{1024, 1024, 1},
		{1025, 1024, 2},
		{40 << 20, 1024, 40960},
	} {
		if got := NumPackets(tc.size, tc.ps); got != tc.want {
			t.Errorf("NumPackets(%d,%d) = %d, want %d", tc.size, tc.ps, got, tc.want)
		}
	}
}

// --- schedule policies ----------------------------------------------------

func TestCircularFirstPassIsSequential(t *testing.T) {
	obj := makeObject(10 * 1024)
	s := NewSender(obj, Config{})
	for want := 0; want < s.NumPackets(); want++ {
		d, ok := s.NextPacket()
		if !ok {
			t.Fatal("ran out of packets during first pass")
		}
		if int(d.Seq) != want {
			t.Fatalf("first pass packet %d has seq %d", want, d.Seq)
		}
	}
	// Second pass wraps back to 0 (nothing acked).
	d, _ := s.NextPacket()
	if d.Seq != 0 {
		t.Fatalf("wrap-around seq = %d, want 0", d.Seq)
	}
}

func TestCircularSkipsAcked(t *testing.T) {
	obj := makeObject(4 * 1024) // 4 packets
	s := NewSender(obj, Config{})
	// Ack packet 1 via a synthetic ack.
	ackFrom := func(seqs ...int) wire.Ack {
		r := NewReceiver(int64(len(obj)), Config{Discard: true})
		for _, q := range seqs {
			r.HandleData(wire.Data{Seq: uint32(q), Total: 4, Payload: nil})
		}
		return r.BuildAck()
	}
	if err := s.HandleAck(ackFrom(1)); err != nil {
		t.Fatal(err)
	}
	var got []int
	for i := 0; i < 6; i++ {
		d, ok := s.NextPacket()
		if !ok {
			t.Fatal("no packet")
		}
		got = append(got, int(d.Seq))
	}
	want := []int{0, 2, 3, 0, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence = %v, want %v", got, want)
		}
	}
}

// Property: under the circular schedule, transmission counts of packets
// that remain unacknowledged never differ by more than one — the paper's
// "re-transmitted for the n+1st time only if all other unacknowledged
// packets have been re-transmitted n times".
func TestCircularFairnessProperty(t *testing.T) {
	f := func(seed int64, n8 uint8, acks uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nPk := int(n8)%60 + 2
		obj := makeObject(nPk * 64)
		cfg := Config{PacketSize: 64}
		s := NewSender(obj, cfg)
		r := NewReceiver(int64(len(obj)), Config{PacketSize: 64, Discard: true, AckFrequency: 1})

		tx := make([]int, nPk)
		ackedSet := make([]bool, nPk)
		for step := 0; step < 500; step++ {
			d, ok := s.NextPacket()
			if !ok {
				break
			}
			tx[d.Seq]++
			// Randomly let some packets through to the receiver and ack
			// them back immediately.
			if rng.Intn(3) == 0 {
				if due, _ := r.HandleData(d); due {
					ack := r.BuildAck()
					s.HandleAck(ack)
				}
				ackedSet[d.Seq] = true
			}
			// Invariant over never-acked packets only: the circular rule
			// applies to packets the sender still believes unacked, and
			// acked ones legitimately stop being retransmitted.
			lo, hi := 1<<30, 0
			for i := 0; i < nPk; i++ {
				if ackedSet[i] {
					continue
				}
				if tx[i] < lo {
					lo = tx[i]
				}
				if tx[i] > hi {
					hi = tx[i]
				}
			}
			if hi > 0 && hi-lo > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRestartScheduleHammersLowest(t *testing.T) {
	obj := makeObject(4 * 1024)
	s := NewSender(obj, Config{Schedule: Restart})
	for i := 0; i < 5; i++ {
		d, _ := s.NextPacket()
		if d.Seq != 0 {
			t.Fatalf("restart schedule picked %d, want 0 every time", d.Seq)
		}
	}
}

func TestRandomScheduleOnlyPicksUnacked(t *testing.T) {
	obj := makeObject(16 * 1024) // 16 packets
	cfg := Config{Schedule: RandomUnacked}
	s := NewSender(obj, cfg)
	r := NewReceiver(int64(len(obj)), Config{Discard: true, AckFrequency: 1})
	// Ack the first 8 packets.
	for q := 0; q < 8; q++ {
		if due, _ := r.HandleData(wire.Data{Seq: uint32(q), Total: 16}); due {
			s.HandleAck(r.BuildAck())
		}
	}
	for i := 0; i < 100; i++ {
		d, ok := s.NextPacket()
		if !ok {
			t.Fatal("no packet")
		}
		if d.Seq < 8 {
			t.Fatalf("random schedule picked acked packet %d", d.Seq)
		}
	}
}

// --- sender ack handling ---------------------------------------------------

func TestSenderIgnoresForeignTransfer(t *testing.T) {
	s := NewSender(makeObject(2048), Config{Transfer: 5})
	err := s.HandleAck(wire.Ack{Transfer: 6, AckSeq: 1, Received: 99})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().AcksProcessed != 0 {
		t.Fatal("foreign ack was processed")
	}
}

func TestSenderCountsStaleAcks(t *testing.T) {
	s := NewSender(makeObject(2048), Config{})
	s.HandleAck(wire.Ack{AckSeq: 5})
	s.HandleAck(wire.Ack{AckSeq: 3}) // reordered
	st := s.Stats()
	if st.AcksProcessed != 2 || st.StaleAcks != 1 {
		t.Fatalf("processed=%d stale=%d, want 2/1", st.AcksProcessed, st.StaleAcks)
	}
}

func TestSenderRejectsCorruptFragment(t *testing.T) {
	s := NewSender(makeObject(2048), Config{})
	bad := wire.Ack{AckSeq: 1}
	bad.Frag.Start = 3 // unaligned
	bad.Frag.Words = []uint64{1}
	if err := s.HandleAck(bad); err == nil {
		t.Fatal("unaligned fragment accepted")
	}
}

func TestSenderRejectsOversizedFragment(t *testing.T) {
	s := NewSender(makeObject(2048), Config{}) // 2 packets
	bad := wire.Ack{AckSeq: 1}
	bad.Frag.Start = 0
	bad.Frag.Words = make([]uint64, 100) // way past 2 packets
	if err := s.HandleAck(bad); err == nil {
		t.Fatal("oversized fragment accepted")
	}
}

func TestSenderStopsAfterComplete(t *testing.T) {
	s := NewSender(makeObject(2048), Config{})
	s.SetComplete()
	if _, ok := s.NextPacket(); ok {
		t.Fatal("NextPacket yielded after SetComplete")
	}
}

func TestKnownCompleteViaAcks(t *testing.T) {
	obj := makeObject(4096)
	s := NewSender(obj, Config{})
	r := NewReceiver(int64(len(obj)), Config{Discard: true, AckFrequency: 1})
	for q := 0; q < 4; q++ {
		if due, _ := r.HandleData(wire.Data{Seq: uint32(q), Total: 4}); due {
			s.HandleAck(r.BuildAck())
		}
	}
	if !s.KnownComplete() {
		t.Fatal("sender bitmap incomplete after acks covering all packets")
	}
	if _, ok := s.NextPacket(); ok {
		t.Fatal("NextPacket yielded with a full bitmap")
	}
}

func TestWasteMetric(t *testing.T) {
	st := SenderStats{PacketsSent: 103, PacketsNeeded: 100}
	if got := st.Waste(); got != 0.03 {
		t.Fatalf("Waste = %v, want 0.03", got)
	}
	if (SenderStats{}).Waste() != 0 {
		t.Fatal("zero stats waste not 0")
	}
}

// --- receiver --------------------------------------------------------------

func TestReceiverDuplicateCounting(t *testing.T) {
	r := NewReceiver(4096, Config{Discard: true})
	d := wire.Data{Seq: 2, Total: 4}
	r.HandleData(d)
	r.HandleData(d)
	st := r.Stats()
	if st.Received != 1 || st.Duplicates != 1 {
		t.Fatalf("received=%d dup=%d, want 1/1", st.Received, st.Duplicates)
	}
}

func TestReceiverAckDueAtFrequency(t *testing.T) {
	r := NewReceiver(100*1024, Config{Discard: true, AckFrequency: 10})
	due := 0
	for q := 0; q < 100; q++ {
		d, _ := r.HandleData(wire.Data{Seq: uint32(q), Total: 100})
		if d {
			due++
			r.BuildAck()
		}
	}
	if due != 10 {
		t.Fatalf("acks due %d times over 100 packets at F=10, want 10", due)
	}
}

func TestReceiverAckDueOnCompletion(t *testing.T) {
	// Completion forces an ack even if the frequency counter is not full.
	r := NewReceiver(3*1024, Config{Discard: true, AckFrequency: 1000})
	var lastDue bool
	for q := 0; q < 3; q++ {
		lastDue, _ = r.HandleData(wire.Data{Seq: uint32(q), Total: 3})
	}
	if !lastDue {
		t.Fatal("completion did not trigger an ack")
	}
	if !r.Complete() {
		t.Fatal("receiver not complete")
	}
}

func TestReceiverRejectsMismatchedTotal(t *testing.T) {
	r := NewReceiver(4096, Config{Discard: true})
	if _, err := r.HandleData(wire.Data{Seq: 0, Total: 99}); err == nil {
		t.Fatal("mismatched Total accepted")
	}
	if r.Stats().Rejected != 1 {
		t.Fatal("rejection not counted")
	}
}

func TestReceiverRejectsWrongPayloadLength(t *testing.T) {
	r := NewReceiver(4096, Config{})
	if _, err := r.HandleData(wire.Data{Seq: 0, Total: 4, Payload: make([]byte, 5)}); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestReceiverIgnoresForeignTransfer(t *testing.T) {
	r := NewReceiver(4096, Config{Transfer: 9, Discard: true})
	due, err := r.HandleData(wire.Data{Transfer: 1, Seq: 0, Total: 4})
	if due || err != nil {
		t.Fatalf("foreign packet produced due=%v err=%v", due, err)
	}
	if r.Stats().Received != 0 {
		t.Fatal("foreign packet was counted")
	}
}

func TestAckDeltaTracksInterval(t *testing.T) {
	r := NewReceiver(100*1024, Config{Discard: true, AckFrequency: 10})
	for q := 0; q < 10; q++ {
		r.HandleData(wire.Data{Seq: uint32(q), Total: 100})
	}
	a := r.BuildAck()
	if a.Received != 10 || a.Delta != 10 {
		t.Fatalf("first ack received=%d delta=%d, want 10/10", a.Received, a.Delta)
	}
	for q := 10; q < 14; q++ {
		r.HandleData(wire.Data{Seq: uint32(q), Total: 100})
	}
	a = r.BuildAck()
	if a.Received != 14 || a.Delta != 4 {
		t.Fatalf("second ack received=%d delta=%d, want 14/4", a.Received, a.Delta)
	}
}

// Property: merging every ack a receiver emits during a full transfer into
// a fresh bitmap reconstructs the receiver's exact status — the rotating
// fragments eventually cover everything.
func TestAckRotationCoversWholeBitmap(t *testing.T) {
	nPk := 2000 // bitmap larger than one ack fragment at small ack size
	r := NewReceiver(int64(nPk*64), Config{PacketSize: 64, AckPacketSize: 128, AckFrequency: 5, Discard: true})
	s := NewSender(makeObject(nPk*64), Config{PacketSize: 64, AckPacketSize: 128})
	rng := rand.New(rand.NewSource(9))
	perm := rng.Perm(nPk)
	for _, q := range perm {
		if due, _ := r.HandleData(wire.Data{Seq: uint32(q), Total: uint32(nPk)}); due {
			if err := s.HandleAck(r.BuildAck()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The receiver is complete; keep emitting acks until the sender's
	// bitmap catches up (rotation must cover every region).
	words := (nPk + 63) / 64
	wordsPerAck := wire.MaxFragWords(128)
	maxAcks := words/wordsPerAck + 2
	for i := 0; i < maxAcks && !s.KnownComplete(); i++ {
		s.HandleAck(r.BuildAck())
	}
	if !s.KnownComplete() {
		t.Fatalf("sender bitmap incomplete after %d full-rotation acks: knows %d/%d",
			maxAcks, s.Stats().KnownReceived, nPk)
	}
}

func TestDiscardModeKeepsNoObject(t *testing.T) {
	r := NewReceiver(1<<20, Config{Discard: true})
	if r.Object() != nil {
		t.Fatal("Discard receiver allocated an object")
	}
}

// --- batch policies ---------------------------------------------------------

func TestFixedBatch(t *testing.T) {
	if FixedBatch(2).Next(100, 5) != 2 {
		t.Fatal("FixedBatch ignored its value")
	}
	if FixedBatch(2).Name() != "fixed(2)" {
		t.Fatal("unexpected name")
	}
}

func TestAdaptiveBatchClamping(t *testing.T) {
	b := AdaptiveBatch{Min: 2, Max: 32}
	for _, tc := range []struct{ delta, unacked, want int }{
		{0, 100, 2},    // below min
		{10, 100, 10},  // within range
		{500, 100, 32}, // above max
		{10, 4, 4},     // clamped by remaining work
		{0, 0, 1},      // never zero
	} {
		if got := b.Next(tc.delta, tc.unacked); got != tc.want {
			t.Errorf("Next(%d,%d) = %d, want %d", tc.delta, tc.unacked, got, tc.want)
		}
	}
}

func TestBatchSizeUsesPolicy(t *testing.T) {
	obj := makeObject(100 * 1024)
	s := NewSender(obj, Config{Batch: AdaptiveBatch{Min: 1, Max: 64}})
	if got := s.BatchSize(); got != 1 {
		t.Fatalf("pre-ack batch = %d, want Min=1", got)
	}
	s.HandleAck(wire.Ack{AckSeq: 1, Delta: 40})
	if got := s.BatchSize(); got != 40 {
		t.Fatalf("post-ack batch = %d, want 40", got)
	}
}

// --- rate controllers -------------------------------------------------------

func TestGreedyNeverPaces(t *testing.T) {
	g := Greedy{}
	g.OnAckSample(1000, 1)
	if g.Gap() != 0 {
		t.Fatal("greedy controller paced")
	}
}

func TestBackoffGrowsAndDecays(t *testing.T) {
	b := &Backoff{}
	for i := 0; i < 10; i++ {
		b.OnAckSample(100, 20) // 80% loss
	}
	grown := b.Gap()
	if grown == 0 {
		t.Fatal("backoff did not grow under sustained loss")
	}
	if grown > b.MaxGap {
		t.Fatalf("gap %v exceeds MaxGap %v", grown, b.MaxGap)
	}
	for i := 0; i < 10000; i++ {
		b.OnAckSample(100, 100) // clean
	}
	if b.Gap() != 0 {
		t.Fatalf("backoff did not decay to zero, gap=%v", b.Gap())
	}
}

func TestHybridSwitchesAfterPatience(t *testing.T) {
	h := &Hybrid{Patience: 4}
	for i := 0; i < 3; i++ {
		h.OnAckSample(100, 20)
		if h.InTCPMode() {
			t.Fatal("hybrid switched before patience elapsed")
		}
	}
	h.OnAckSample(100, 20)
	if !h.InTCPMode() {
		t.Fatal("hybrid did not switch after patience")
	}
	if h.Gap() <= 0 {
		t.Fatal("hybrid in TCP mode has zero gap")
	}
	for i := 0; i < 100; i++ {
		h.OnAckSample(100, 100)
	}
	if h.InTCPMode() {
		t.Fatal("hybrid did not return to greedy after loss cleared")
	}
	if h.Gap() != 0 {
		t.Fatal("hybrid out of TCP mode still paces")
	}
}

func TestHybridMathisRate(t *testing.T) {
	h := &Hybrid{RTT: 100 * 1e6, Patience: 1} // 100ms in time.Duration
	h.OnAckSample(100, 96)                    // ~4% loss < default threshold: stays greedy
	if h.InTCPMode() {
		t.Fatal("4% loss should not trip the default 5% threshold")
	}
	h2 := &Hybrid{Patience: 1}
	h2.OnAckSample(100, 0) // 100% loss
	if !h2.InTCPMode() {
		t.Fatal("100% loss did not trip hybrid")
	}
	// Gap must be finite and positive.
	if g := h2.Gap(); g <= 0 {
		t.Fatalf("gap = %v", g)
	}
}

func TestLossEstimateClampsNegative(t *testing.T) {
	var l lossEstimate
	l.add(10, 50) // receiver drained backlog: received > sent
	if l.smoothed != 0 {
		t.Fatalf("negative loss not clamped: %v", l.smoothed)
	}
	l.add(0, 0) // no packets: no-op
	if !l.primed {
		t.Fatal("estimate lost its primed state")
	}
}

// --- whole-transfer properties ----------------------------------------------

// Property: for any loss pattern and ack frequency, the transfer completes
// and reconstructs the object exactly.
func TestTransferIntegrityProperty(t *testing.T) {
	f := func(seed int64, freq8 uint8, lossPct uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		loss := float64(lossPct%50) / 100
		freq := int(freq8)%32 + 1
		obj := makeObject(16*1024 + int(seed%1024+1024)%1024)
		cfg := Config{AckFrequency: freq, PacketSize: 512}
		s := NewSender(obj, cfg)
		r := NewReceiver(int64(len(obj)), cfg)
		var acks []wire.Ack
		for step := 0; step < 100000 && !s.Done(); step++ {
			for i := 0; i < s.BatchSize(); i++ {
				d, ok := s.NextPacket()
				if !ok {
					break
				}
				if rng.Float64() < loss {
					continue
				}
				if due, err := r.HandleData(d); err != nil {
					return false
				} else if due {
					acks = append(acks, r.BuildAck())
				}
			}
			if len(acks) > 0 {
				if rng.Float64() < loss { // acks can be lost too
					acks = acks[1:]
				} else {
					if err := s.HandleAck(acks[0]); err != nil {
						return false
					}
					acks = acks[1:]
				}
			}
			if r.Complete() {
				s.SetComplete()
			}
		}
		return s.Done() && bytes.Equal(r.Object(), obj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSenderNextPacket(b *testing.B) {
	obj := make([]byte, 40<<20)
	s := NewSender(obj, Config{})
	b.ReportAllocs()
	b.SetBytes(DefaultPacketSize)
	for i := 0; i < b.N; i++ {
		if _, ok := s.NextPacket(); !ok {
			b.Fatal("exhausted")
		}
	}
}

func BenchmarkReceiverHandleData(b *testing.B) {
	n := 40960
	r := NewReceiver(int64(n)*1024, Config{AckFrequency: 64})
	payload := make([]byte, 1024)
	b.ReportAllocs()
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		d := wire.Data{Seq: uint32(i % n), Total: uint32(n), Payload: payload}
		if due, _ := r.HandleData(d); due {
			r.BuildAck()
		}
	}
}

func TestMissingSeqsDoesNotWrap(t *testing.T) {
	// Regression: FirstUnset searches circularly; MissingSeqs must stop at
	// the end of the object instead of wrapping back to earlier holes
	// forever.
	r := NewReceiver(8*1024, Config{Discard: true})
	for q := 0; q < 8; q++ {
		if q == 3 {
			continue
		}
		r.HandleData(wire.Data{Seq: uint32(q), Total: 8})
	}
	got := r.MissingSeqs(nil)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("MissingSeqs = %v, want [3]", got)
	}
	// All received: empty.
	r.HandleData(wire.Data{Seq: 3, Total: 8})
	if got := r.MissingSeqs(nil); len(got) != 0 {
		t.Fatalf("MissingSeqs on complete = %v, want empty", got)
	}
	// Nothing received: every packet.
	r2 := NewReceiver(4*1024, Config{Discard: true})
	if got := r2.MissingSeqs(nil); len(got) != 4 {
		t.Fatalf("MissingSeqs on empty = %v, want 4 entries", got)
	}
}

func TestFirstMissingDoesNotWrap(t *testing.T) {
	r := NewReceiver(8*1024, Config{Discard: true})
	for _, q := range []int{0, 1, 2, 5, 6, 7} {
		r.HandleData(wire.Data{Seq: uint32(q), Total: 8})
	}
	for _, c := range []struct{ from, want int }{
		{-1, 3}, {0, 3}, {3, 3}, {4, 4}, {5, 8}, {7, 8}, {8, 8}, {99, 8},
	} {
		if got := r.FirstMissing(c.from); got != c.want {
			t.Errorf("FirstMissing(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	r.HandleData(wire.Data{Seq: 3, Total: 8})
	r.HandleData(wire.Data{Seq: 4, Total: 8})
	if got := r.FirstMissing(0); got != 8 {
		t.Fatalf("FirstMissing on complete = %d, want 8", got)
	}
}

// TestDuplicateDoesNotOverwritePlacedBytes pins the property streamed
// content verification rests on: once a packet is placed its bytes are
// final, even if a later copy of the same sequence number carries
// different bytes.
func TestDuplicateDoesNotOverwritePlacedBytes(t *testing.T) {
	r := NewReceiver(2*1024, Config{})
	first := bytes.Repeat([]byte{0xAA}, 1024)
	if _, err := r.HandleData(wire.Data{Seq: 1, Total: 2, Payload: first}); err != nil {
		t.Fatal(err)
	}
	forged := bytes.Repeat([]byte{0x55}, 1024)
	if _, err := r.HandleData(wire.Data{Seq: 1, Total: 2, Payload: forged}); err != nil {
		t.Fatal(err)
	}
	if r.Stats().Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", r.Stats().Duplicates)
	}
	if !bytes.Equal(r.Object()[1024:], first) {
		t.Fatal("a duplicate overwrote a placed packet")
	}
}

// Property: the sender's knowledge is always a subset of the receiver's
// truth — acks can be lost or stale, but the sender must never believe a
// packet arrived that did not.
func TestSenderKnowledgeNeverExceedsTruth(t *testing.T) {
	f := func(seed int64, freq8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		freq := int(freq8)%16 + 1
		obj := makeObject(8 << 10)
		cfg := Config{AckFrequency: freq, PacketSize: 256}
		s := NewSender(obj, cfg)
		r := NewReceiver(int64(len(obj)), cfg)
		var acks []wire.Ack
		for step := 0; step < 5000 && !s.Done(); step++ {
			d, ok := s.NextPacket()
			if ok && rng.Intn(3) != 0 {
				if due, _ := r.HandleData(d); due {
					acks = append(acks, r.BuildAck())
				}
			}
			if len(acks) > 0 && rng.Intn(2) == 0 {
				if rng.Intn(4) == 0 {
					acks = acks[1:] // lose the ack
				} else {
					s.HandleAck(acks[0])
					acks = acks[1:]
				}
			}
			if s.Stats().KnownReceived > r.Stats().Received {
				return false
			}
			if r.Complete() {
				s.SetComplete()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
