// Receiver-side content cache: the dedup point that turns repeated pushes
// of one hot object into a single control RPC. Every completed inbound
// transfer whose announcement carried a dedup-permitting CHECK is kept
// (bounded, oldest-evicted) keyed by its SHA-256 content identity, so the
// next sender asking "do you already have digest D?" is answered with a
// full HAVE plus COMPLETE and never dials a data flow — the Dominator
// objectserver's CheckObjects-before-AddObjects shape, folded into the
// FOBS handshake. With Options.Checkpoint set, entries are also persisted
// through the internal/checkpoint container (the same file format the
// resume store uses, under a distinct name prefix), so a restarted
// receiver still deduplicates the objects it verified before the restart.
package udprt

import (
	"sync"
	"time"

	"github.com/hpcnet/fobs/internal/checkpoint"
	"github.com/hpcnet/fobs/internal/core"
)

// maxCached bounds how many objects one endpoint's content cache holds;
// beyond it the oldest entry is evicted. Cached entries are whole objects,
// so the bound is deliberately small (the hot-object fan-out workload this
// serves has a tiny working set).
const maxCached = 8

// cachedObject is one completed, digest-verified object.
type cachedObject struct {
	obj        []byte
	packetSize int
	addedAt    time.Time
}

// contentCache answers CHECK queries for a listener or server. A nil cache
// (Options.NoDedup) answers every query as a miss and stores nothing; all
// methods are nil-safe.
type contentCache struct {
	dir string // checkpoint directory; empty = memory only
	max int    // entry bound; maxCached except under test

	mu      sync.Mutex
	entries map[[32]byte]*cachedObject
}

// newContentCache builds the cache for defaulted options, loading any
// persisted entries a previous process left under Options.Checkpoint.
// Loaded entries are re-verified — an entry whose bytes no longer hash to
// its claimed digest is skipped, never served — so a corrupt or tampered
// file degrades to a cache miss, exactly like a torn resume checkpoint
// degrades to a fresh transfer.
func newContentCache(opts Options) *contentCache {
	if opts.NoDedup {
		return nil
	}
	c := &contentCache{
		dir:     opts.Checkpoint,
		max:     maxCached,
		entries: make(map[[32]byte]*cachedObject),
	}
	if c.dir != "" {
		states, err := checkpoint.LoadCacheDir(c.dir)
		if err == nil {
			for _, st := range states {
				if core.ContentID(st.Object) != st.Content {
					continue
				}
				c.add(st.Content, st.Object, int(st.PacketSize))
			}
		}
	}
	return c
}

// lookup returns a copy of the cached object for a digest. The copy is
// deliberate: cached bytes back dedup answers for the cache's whole
// lifetime, so the caller a hit is served to must not alias them (add, for
// the same reason, takes a buffer no one else holds).
func (c *contentCache) lookup(content [32]byte) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	ent := c.entries[content]
	c.mu.Unlock()
	if ent == nil {
		return nil, false
	}
	out := make([]byte, len(ent.obj))
	copy(out, ent.obj)
	return out, true
}

// add installs one completed object under its content digest, evicting the
// oldest entry past the bound and persisting a cache file when a directory
// is configured. The cache takes ownership of obj: the caller hands over a
// buffer nothing else references or will write (a receive path's staged
// copy, a freshly loaded file). Persistence is best-effort, like resume
// checkpoints: a full disk must not turn a completed transfer into a
// failure.
func (c *contentCache) add(content [32]byte, obj []byte, packetSize int) {
	if c == nil || len(obj) == 0 {
		return
	}
	ent := &cachedObject{
		obj:        obj,
		packetSize: packetSize,
		addedAt:    time.Now(),
	}
	c.mu.Lock()
	if _, replacing := c.entries[content]; !replacing && len(c.entries) >= c.max {
		var oldestID [32]byte
		var oldest *cachedObject
		for id, e := range c.entries {
			if oldest == nil || e.addedAt.Before(oldest.addedAt) {
				oldestID, oldest = id, e
			}
		}
		delete(c.entries, oldestID)
		if c.dir != "" {
			checkpoint.RemoveCache(c.dir, oldestID)
		}
	}
	c.entries[content] = ent
	dir := c.dir
	c.mu.Unlock()
	if dir != "" {
		_ = checkpoint.SaveCache(dir, &checkpoint.State{
			ObjectSize: uint64(len(ent.obj)),
			PacketSize: uint32(packetSize),
			Received:   uint32(core.NumPackets(int64(len(ent.obj)), packetSize)),
			Object:     ent.obj,
			Content:    content,
			HasContent: true,
		})
	}
}

// len reports the entry count, for tests and gauges.
func (c *contentCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// fullWords builds the every-packet-received HAVE bitmap for n packets —
// the dedup hit answer, and what a deduplicated sender restores its
// stripes from.
func fullWords(n int) []uint64 {
	words := make([]uint64, (n+63)/64)
	for i := range words {
		words[i] = ^uint64(0)
	}
	if rem := n % 64; rem != 0 {
		words[len(words)-1] = (uint64(1) << rem) - 1
	}
	return words
}
