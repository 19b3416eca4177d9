// Package tracesvc is the long-running serving layer over the interval
// format: a registry of opened trace files, a sharded byte-budgeted LRU
// cache of decoded frames, and the HTTP handlers behind cmd/utetraced.
// The paper's utilities are one-shot — every stats table or preview
// re-opens and re-decodes the trace — while the serving layer keeps
// directories and hot decoded frames resident, so repeated window
// queries against the same trace become sublinear (the VampirServer /
// Jumpshot preview-then-drill-down model).
package tracesvc

import (
	"sync"

	"tracefw/internal/interval"
	"tracefw/internal/promtext"
)

// frameKey identifies one cached frame: the registry-assigned file
// number plus the frame's byte offset (unique within a file).
type frameKey struct {
	file uint64
	off  int64
}

// FrameCache is a sharded LRU cache of decoded frames — columnar
// batches, the one decoded representation every consumer reads — keyed
// by (file, frame offset) and bounded by a byte budget. Concurrent
// requests for the same missing frame are collapsed into a single
// decode (singleflight); everyone else blocks on the winner. Cached
// batches are shared with every caller and read-only by contract (the
// same contract interval.FrameDecoder states); eviction only drops the
// cache's reference, so a batch a request still holds stays valid.
type FrameCache struct {
	shards      []cacheShard
	shardBudget int64

	// stats are approximate across shards and exported via /metrics.
	hits      promtext.Counter
	misses    promtext.Counter
	evictions promtext.Counter
	bytes     promtext.Gauge
	entries   promtext.Gauge
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[frameKey]*cacheEntry
	// LRU list of ready entries: head is most recent, tail the next
	// victim. In-flight entries sit in the map but not in the list, so
	// eviction can never pick a frame that is still decoding.
	head, tail *cacheEntry
	bytes      int64
}

type cacheEntry struct {
	key        frameKey
	batch      *interval.Batch
	size       int64
	prev, next *cacheEntry
	// ready closes when the decode finished; err is set before ready
	// closes and never written afterwards.
	ready chan struct{}
	err   error
	// linked tracks list membership: an entry can leave the list (and
	// the map) through invalidation while a waiter still holds it.
	linked bool
}

// NewFrameCache builds a cache with the given total byte budget spread
// over nShards shards (both floored to sane minimums). The budget
// counts each resident batch's exact column footprint
// (interval.Batch.Footprint); load functions return right-sized batches,
// so nothing uncounted rides along.
func NewFrameCache(budgetBytes int64, nShards int) *FrameCache {
	if nShards < 1 {
		nShards = 1
	}
	if budgetBytes < 1<<16 {
		budgetBytes = 1 << 16
	}
	c := &FrameCache{
		shards:      make([]cacheShard, nShards),
		shardBudget: budgetBytes / int64(nShards),
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[frameKey]*cacheEntry)
	}
	return c
}

func (c *FrameCache) shard(k frameKey) *cacheShard {
	// Frame offsets are distinct multiples of small sizes; fold both key
	// halves through a 64-bit mix (splitmix64 finalizer) so shard
	// assignment is uniform regardless of alignment.
	h := k.file*0x9e3779b97f4a7c15 + uint64(k.off)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return &c.shards[h%uint64(len(c.shards))]
}

// Get returns the cached batch for key (file, off), or runs load
// exactly once — however many callers ask concurrently — and caches its
// result. A failed load is not cached; every waiter sees the error and
// the next Get retries.
func (c *FrameCache) Get(file uint64, off int64, load func() (*interval.Batch, error)) (*interval.Batch, error) {
	k := frameKey{file, off}
	sh := c.shard(k)

	sh.mu.Lock()
	if e := sh.entries[k]; e != nil {
		select {
		case <-e.ready:
			// Ready entry: bump it to the front and serve.
			sh.moveToFront(e)
			sh.mu.Unlock()
			c.hits.Add(1)
			return e.batch, e.err
		default:
		}
		// Another goroutine is decoding this frame right now: wait for
		// it outside the lock. Counted as a hit — no second decode runs.
		sh.mu.Unlock()
		<-e.ready
		c.hits.Add(1)
		return e.batch, e.err
	}
	e := &cacheEntry{key: k, ready: make(chan struct{})}
	sh.entries[k] = e
	sh.mu.Unlock()
	c.misses.Add(1)

	b, err := load()
	e.batch, e.err = b, err

	sh.mu.Lock()
	if err != nil {
		// Do not cache failures; drop our placeholder unless an
		// invalidation already removed it.
		if sh.entries[k] == e {
			delete(sh.entries, k)
		}
	} else if sh.entries[k] == e {
		e.size = b.Footprint()
		sh.linkFront(e)
		sh.bytes += e.size
		c.bytes.Add(e.size)
		c.entries.Add(1)
		c.evictLocked(sh)
	}
	sh.mu.Unlock()
	close(e.ready)
	return b, err
}

// evictLocked drops least-recently-used entries until the shard is back
// under its budget. The caller holds the shard lock.
func (c *FrameCache) evictLocked(sh *cacheShard) {
	for sh.bytes > c.shardBudget && sh.tail != nil {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.entries, victim.key)
		sh.bytes -= victim.size
		c.bytes.Add(-victim.size)
		c.entries.Add(-1)
		c.evictions.Add(1)
	}
}

// InvalidateFile removes every cached frame of the given file; the
// registry calls it when a trace is closed so a later reopen can never
// see stale frames.
func (c *FrameCache) InvalidateFile(file uint64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, e := range sh.entries {
			if k.file != file {
				continue
			}
			delete(sh.entries, k)
			if e.linked {
				sh.unlink(e)
				sh.bytes -= e.size
				c.bytes.Add(-e.size)
				c.entries.Add(-1)
			}
		}
		sh.mu.Unlock()
	}
}

// Flush empties the cache entirely (benchmarks use it to measure the
// cold path).
func (c *FrameCache) Flush() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, e := range sh.entries {
			delete(sh.entries, k)
			if e.linked {
				sh.unlink(e)
				sh.bytes -= e.size
				c.bytes.Add(-e.size)
				c.entries.Add(-1)
			}
		}
		sh.mu.Unlock()
	}
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Bytes, Entries          int64
}

// Stats snapshots the counters (approximate under concurrency).
func (c *FrameCache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evictions.Value(),
		Bytes:     c.bytes.Value(),
		Entries:   c.entries.Value(),
	}
}

// list management — the caller holds the shard lock throughout.

func (sh *cacheShard) linkFront(e *cacheEntry) {
	e.linked = true
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
	e.linked = false
}

func (sh *cacheShard) moveToFront(e *cacheEntry) {
	if !e.linked || sh.head == e {
		return
	}
	sh.unlink(e)
	sh.linkFront(e)
}
