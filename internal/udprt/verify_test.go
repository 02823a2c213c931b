package udprt

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/wire"
)

// verifyRig assembles one object through per-stripe core.Receivers the way
// the receive paths do, with a contentVerifier riding along.
type verifyRig struct {
	obj     []byte // the source
	buf     []byte // the receive buffer
	ps      int
	stripes []wire.StripeDesc
	rcvs    []*core.Receiver
	cv      *contentVerifier
	cache   *contentCache
}

// newVerifyRig plans obj over n stripes (n == 1 is a classic HELLO) and
// builds the verifier for an honest CHECK carrying whole-object and
// per-stripe digests.
func newVerifyRig(obj []byte, ps, n int) *verifyRig {
	r := &verifyRig{obj: obj, buf: make([]byte, len(obj)), ps: ps, cache: newContentCache(Options{})}
	plan := recvPlan{
		base:        1,
		objectSize:  uint64(len(obj)),
		packetSize:  ps,
		hasCheck:    true,
		checkDigest: core.ContentID(obj),
		checkVerify: true,
		checkDedup:  true,
	}
	r.stripes = splitStripes(int64(len(obj)), ps, n, 1)
	if n > 1 {
		plan.stripes = r.stripes
	}
	for _, sd := range r.stripes {
		cfg := core.Config{PacketSize: ps, Transfer: sd.Transfer}
		r.rcvs = append(r.rcvs, core.NewReceiverInto(r.buf[sd.Offset:sd.Offset+sd.Length], cfg))
		plan.stripeDigests = append(plan.stripeDigests, core.ContentID(obj[sd.Offset:sd.Offset+sd.Length]))
	}
	r.cv = newContentVerifier(plan, r.buf, r.rcvs, r.cache)
	return r
}

// packet is one (stripe, sequence) arrival.
type packet struct{ stripe, seq int }

// all lists every packet of the object, stripe by stripe.
func (r *verifyRig) all() []packet {
	var out []packet
	for i, rcv := range r.rcvs {
		for q := 0; q < rcv.NumPackets(); q++ {
			out = append(out, packet{i, q})
		}
	}
	return out
}

// deliver hands one packet to its stripe's receiver, carrying forged bytes
// when forge is set (a duplicate must not be able to change placed bytes).
func (r *verifyRig) deliver(t *testing.T, p packet, forge bool) {
	t.Helper()
	sd := r.stripes[p.stripe]
	lo := int(sd.Offset) + p.seq*r.ps
	hi := lo + r.ps
	if end := int(sd.Offset + sd.Length); hi > end {
		hi = end
	}
	payload := r.obj[lo:hi]
	if forge {
		payload = bytes.Repeat([]byte{0xEE}, hi-lo)
	}
	d := wire.Data{Transfer: sd.Transfer, Seq: uint32(p.seq), Total: uint32(r.rcvs[p.stripe].NumPackets()), Payload: payload}
	if _, err := r.rcvs[p.stripe].HandleData(d); err != nil {
		t.Fatalf("packet %+v: %v", p, err)
	}
}

// run delivers arrivals in order, repeating every dupEvery-th one with
// forged bytes, and advances the verifier once per batch of 8 as the
// receive loop does.
func (r *verifyRig) run(t *testing.T, arrivals []packet, dupEvery int) {
	t.Helper()
	for i, p := range arrivals {
		r.deliver(t, p, false)
		if dupEvery > 0 && i%dupEvery == 0 {
			r.deliver(t, p, true)
		}
		if i%8 == 7 {
			r.cv.advance()
		}
	}
	r.cv.advance()
}

// check requires the streamed verdict to match core.ContentID of the final
// object, and the staged cache copy to be the object.
func (r *verifyRig) check(t *testing.T) {
	t.Helper()
	if !bytes.Equal(r.buf, r.obj) {
		t.Fatal("assembled object differs from the source")
	}
	if err := r.cv.verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if [32]byte(r.cv.whole.Sum(nil)) != core.ContentID(r.obj) {
		t.Fatal("streamed digest differs from core.ContentID of the object")
	}
	r.cv.commit()
	got, ok := r.cache.lookup(core.ContentID(r.obj))
	if !ok || !bytes.Equal(got, r.obj) {
		t.Fatal("committed cache copy differs from the object")
	}
}

// TestContentVerifierMatchesContentID feeds the verifier every arrival
// order the network can produce and requires the streamed digest to equal
// the one-shot digest of the final object.
func TestContentVerifierMatchesContentID(t *testing.T) {
	const ps = 1024
	obj := makeObj(1<<20 + 333) // short last packet
	shuffled := func(r *verifyRig, seed int64) []packet {
		a := r.all()
		rand.New(rand.NewSource(seed)).Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		return a
	}
	cases := []struct {
		name    string
		stripes int
		order   func(r *verifyRig) []packet
	}{
		{"in-order", 1, func(r *verifyRig) []packet { return r.all() }},
		{"reversed", 1, func(r *verifyRig) []packet {
			a := r.all()
			for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
				a[i], a[j] = a[j], a[i]
			}
			return a
		}},
		{"shuffled", 1, func(r *verifyRig) []packet { return shuffled(r, 7) }},
		{"striped-in-order", 3, func(r *verifyRig) []packet { return r.all() }},
		{"striped-shuffled", 3, func(r *verifyRig) []packet { return shuffled(r, 8) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newVerifyRig(obj, ps, tc.stripes)
			r.run(t, tc.order(r), 5)
			if tc.name == "in-order" && r.cv.done < len(obj)-verifyChunk {
				t.Fatalf("in-order arrival left %d of %d bytes unhashed for completion",
					len(obj)-r.cv.done, len(obj))
			}
			r.check(t)
		})
	}
}

// TestContentVerifierUnequalStripes covers stripes of different packet
// counts whose last packet is short, delivered interleaved.
func TestContentVerifierUnequalStripes(t *testing.T) {
	obj := makeObj(5*4096 + 1001) // 6 packets of 4 KiB over 4 stripes
	r := newVerifyRig(obj, 4096, 4)
	if r.stripes[0].Length == r.stripes[3].Length {
		t.Fatalf("stripes not unequal: %+v", r.stripes)
	}
	a := r.all()
	rand.New(rand.NewSource(3)).Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	r.run(t, a, 2)
	r.check(t)
}

// TestContentVerifierResumedPrefix verifies a receiver restored from a
// retained partial object: the restored bytes are hashed like any other
// placed prefix.
func TestContentVerifierResumedPrefix(t *testing.T) {
	const ps = 1024
	obj := makeObj(600<<10 + 77)
	first := newVerifyRig(obj, ps, 1)
	var held []packet
	for _, p := range first.all() {
		if p.seq < 400 || p.seq%3 == 0 {
			held = append(held, p)
		}
	}
	first.run(t, held, 0)

	// The restart: a fresh receiver over the retained buffer and bitmap.
	r := newVerifyRig(obj, ps, 1)
	copy(r.buf, first.buf)
	if _, err := r.rcvs[0].Restore(first.rcvs[0].HaveWords(nil)); err != nil {
		t.Fatal(err)
	}
	var rest []packet
	for _, p := range r.all() {
		if !(p.seq < 400 || p.seq%3 == 0) {
			rest = append(rest, p)
		}
	}
	r.run(t, rest, 4)
	r.check(t)
}

// TestContentVerifierIncompleteNeverMatches withholds one packet whose
// source bytes are zero — so the receive buffer is byte-identical to the
// object — and requires the verdict to fail anyway: unplaced bytes are
// never vouched for.
func TestContentVerifierIncompleteNeverMatches(t *testing.T) {
	const ps = 1024
	obj := makeObj(64 << 10)
	copy(obj[10*ps:11*ps], make([]byte, ps))
	for _, stripes := range []int{1, 2} {
		r := newVerifyRig(obj, ps, stripes)
		var arrivals []packet
		for _, p := range r.all() {
			if int(r.stripes[p.stripe].Offset)+p.seq*ps != 10*ps {
				arrivals = append(arrivals, p)
			}
		}
		r.run(t, arrivals, 0)
		if !bytes.Equal(r.buf, obj) {
			t.Fatal("rig precondition: buffer should equal the object")
		}
		if err := r.cv.verify(); !errors.Is(err, ErrDigestMismatch) {
			t.Fatalf("%d stripes: verify over an incomplete object = %v, want ErrDigestMismatch", stripes, err)
		}
	}
}

// TestContentVerifierRejectsWrongDigests checks both verdicts: a lying
// whole-object digest and a lying stripe digest each fail the transfer,
// and a no-CHECK plan verifies nothing.
func TestContentVerifierRejectsWrongDigests(t *testing.T) {
	obj := makeObj(64 << 10)
	t.Run("whole", func(t *testing.T) {
		r := newVerifyRig(obj, 1024, 1)
		r.cv.want[0] ^= 1
		r.run(t, r.all(), 0)
		if err := r.cv.verify(); !errors.Is(err, ErrDigestMismatch) {
			t.Fatalf("verify = %v, want ErrDigestMismatch", err)
		}
	})
	t.Run("stripe", func(t *testing.T) {
		r := newVerifyRig(obj, 1024, 2)
		r.cv.stripeWant[1][0] ^= 1
		r.run(t, r.all(), 0)
		if err := r.cv.verify(); !errors.Is(err, ErrDigestMismatch) {
			t.Fatalf("verify = %v, want ErrDigestMismatch", err)
		}
	})
	t.Run("no-check", func(t *testing.T) {
		cv := newContentVerifier(recvPlan{}, obj, nil, nil)
		cv.advance()
		if err := cv.verify(); err != nil || cv != nil {
			t.Fatalf("no-CHECK verifier = %v, verify = %v; want nil, nil", cv, err)
		}
		cv.commit()
	})
}

// TestCheckFrameStripeDigestsOnlyUnderVerify pins the sender half: only a
// Verify plan, whose receiver checks them, hashes and announces per-stripe
// digests; a plain striped CHECK carries the whole-object digest alone.
func TestCheckFrameStripeDigestsOnlyUnderVerify(t *testing.T) {
	obj := makeObj(256 << 10)
	for _, verify := range []bool{false, true} {
		opts := Options{Streams: 3, Verify: verify}
		p, err := newSenderPlan(obj, core.Config{Transfer: 4}, opts)
		if err != nil {
			t.Fatal(err)
		}
		c, err := wire.DecodeCheck(p.checkFrame(opts))
		if err != nil {
			t.Fatal(err)
		}
		if c.Digest != core.ContentID(obj) {
			t.Fatalf("verify=%v: whole-object digest wrong", verify)
		}
		want := 0
		if verify {
			want = 3
		}
		if len(c.StripeDigests) != want {
			t.Fatalf("verify=%v: %d stripe digests, want %d", verify, len(c.StripeDigests), want)
		}
		for i, sd := range p.stripes {
			if verify && c.StripeDigests[i] != core.ContentID(obj[sd.Offset:sd.Offset+sd.Length]) {
				t.Fatalf("stripe %d digest wrong", i)
			}
		}
	}
}
