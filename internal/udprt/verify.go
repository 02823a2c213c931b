package udprt

import (
	"crypto/sha256"
	"fmt"
	"hash"

	"github.com/hpcnet/fobs/internal/core"
)

// verifyChunk is how far the placed prefix must grow past the hashed bytes
// before advance hashes again. Per received batch the verifier then costs
// one bitmap probe, and a single stream leaves completion less than a
// chunk to hash. Not an option: it trades per-call overhead against tail
// length, and neither depends on the caller.
const verifyChunk = 256 << 10

// contentVerifier checks an inbound object against the content identity
// its CHECK prelude announced: the whole-object SHA-256 always, and each
// stripe's digest when the sender demanded verification. It hashes the
// object's contiguous placed prefix while later packets are still landing,
// so completion only hashes the remaining tail. That is sound because
// core.Receiver copies a payload only on its first receipt: duplicates and
// rejected packets never touch bytes already placed.
//
// The same pass fills the content cache's copy of the object, so a
// verified object can be committed to the cache before COMPLETE is written
// at no extra cost on the critical path.
//
// A nil verifier (no CHECK arrived) verifies nothing; every method is
// nil-safe. A verifier is not safe for concurrent use: it must run on the
// goroutine that drives its receivers, or after they stopped.
type contentVerifier struct {
	obj        []byte
	packetSize int
	parts      []verifyPart // stripes in object order; one for a classic HELLO
	want       [32]byte

	whole hash.Hash
	// stripe hashes the current stripe alone when Verify demanded
	// per-stripe digests; nil otherwise.
	stripe     hash.Hash
	stripeWant [][32]byte
	sum        [32]byte // Sum scratch, so finishing a stripe allocates nothing

	cur  int // index of the stripe being hashed
	next int // first packet of parts[cur] not yet known placed
	done int // bytes of obj hashed (and staged) so far

	// cache receives the staged copy on commit; stage is nil when the
	// object is not to be cached.
	cache *contentCache
	stage []byte
	err   error // latched mismatch: a stripe digest, or their count
}

// verifyPart is one stripe's receiver and its byte range within the object.
type verifyPart struct {
	rcv      *core.Receiver
	off, end int
}

// newContentVerifier builds the verifier for plan over obj, whose stripes
// are assembled by rcvs (one per plan stripe, or one for a classic HELLO).
// It returns nil when no CHECK arrived. With a dedup-permitting CHECK and a
// cache, the verified bytes are staged for the cache as they are hashed.
func newContentVerifier(plan recvPlan, obj []byte, rcvs []*core.Receiver, cache *contentCache) *contentVerifier {
	if !plan.hasCheck {
		return nil
	}
	v := &contentVerifier{
		obj:        obj,
		packetSize: plan.packetSize,
		want:       plan.checkDigest,
		whole:      sha256.New(),
	}
	if plan.striped() {
		for i, sd := range plan.stripes {
			v.parts = append(v.parts, verifyPart{rcv: rcvs[i], off: int(sd.Offset), end: int(sd.Offset + sd.Length)})
		}
	} else {
		v.parts = []verifyPart{{rcv: rcvs[0], off: 0, end: len(obj)}}
	}
	if plan.checkVerify && plan.striped() && len(plan.stripeDigests) > 0 {
		if len(plan.stripeDigests) != len(plan.stripes) {
			v.err = fmt.Errorf("udprt: %d stripe digests announced for %d stripes: %w",
				len(plan.stripeDigests), len(plan.stripes), ErrDigestMismatch)
		}
		v.stripe = sha256.New()
		v.stripeWant = plan.stripeDigests
	}
	if cache != nil && plan.checkDedup {
		v.cache = cache
		v.stage = make([]byte, len(obj))
	}
	return v
}

// advance hashes the placed prefix forward once it has grown by at least
// verifyChunk. The receive loop calls it once per received batch.
func (v *contentVerifier) advance() {
	if v != nil {
		v.feed(verifyChunk)
	}
}

// feed hashes the contiguous placed prefix in object order: each full
// stripe to its end, then on into the next, and the partly placed current
// stripe only once at least threshold of its placed bytes are unhashed.
func (v *contentVerifier) feed(threshold int) {
	for v.err == nil && v.cur < len(v.parts) {
		p := &v.parts[v.cur]
		v.next = p.rcv.FirstMissing(v.next)
		full := v.next == p.rcv.NumPackets()
		end := p.end
		if !full {
			end = p.off + v.next*v.packetSize
		}
		if !full && end-v.done < threshold {
			return
		}
		v.hash(end)
		if !full {
			return
		}
		v.finishStripe()
		v.cur++
		v.next = 0
	}
}

// hash consumes obj[done:end] into the digests and the cache stage.
func (v *contentVerifier) hash(end int) {
	chunk := v.obj[v.done:end]
	v.whole.Write(chunk)
	if v.stripe != nil {
		v.stripe.Write(chunk)
	}
	if v.stage != nil {
		copy(v.stage[v.done:], chunk)
	}
	v.done = end
}

// finishStripe checks the just-completed stripe's own digest, when
// per-stripe digests are checked.
func (v *contentVerifier) finishStripe() {
	if v.stripe == nil {
		return
	}
	if [32]byte(v.stripe.Sum(v.sum[:0])) != v.stripeWant[v.cur] {
		v.err = fmt.Errorf("udprt: stripe %d does not match its announced digest: %w", v.cur, ErrDigestMismatch)
	}
	v.stripe.Reset()
}

// verify hashes whatever placed tail advance has not yet consumed and
// checks the digests. An object with any packet still missing never
// matches. A mismatch is corruption the CRC survived, or a sender
// announcing one object and blasting another; either way the bytes must
// not be delivered or cached.
func (v *contentVerifier) verify() error {
	if v == nil {
		return nil
	}
	v.feed(0)
	if v.err != nil {
		return v.err
	}
	if v.cur < len(v.parts) {
		return fmt.Errorf("udprt: object incomplete at content verification (%d of %d bytes placed): %w",
			v.done, len(v.obj), ErrDigestMismatch)
	}
	if [32]byte(v.whole.Sum(v.sum[:0])) != v.want {
		return fmt.Errorf("udprt: assembled object does not match announced content digest: %w", ErrDigestMismatch)
	}
	return nil
}

// commit installs the staged copy of a verified object in the content
// cache. Callers commit only after verify succeeded and before writing
// COMPLETE, so a sender that has seen COMPLETE can rely on the cache.
func (v *contentVerifier) commit() {
	if v != nil && v.stage != nil {
		v.cache.add(v.want, v.stage, v.packetSize)
	}
}
