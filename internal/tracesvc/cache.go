// Package tracesvc is the long-running serving layer over the interval
// format: a registry of opened trace files, a sharded byte-budgeted LRU
// memo of what queries compute from them — whole frames' stats partials
// and whole answers — and the HTTP handlers behind cmd/utetraced. The
// paper's utilities are one-shot — every stats table or preview re-opens
// and re-decodes the trace — while the serving layer keeps directories
// resident and memoizes partials and answers, so a repeated window query
// is a lookup and a fresh one over known frames reads only the frames it
// cuts (the VampirServer / Jumpshot preview-then-drill-down model). No
// decoded frame is kept: every frame read decodes into a batch of its
// reader's own.
package tracesvc

import (
	"context"
	"errors"
	"hash/maphash"
	"sync"

	"tracefw/internal/interval"
	"tracefw/internal/promtext"
)

// frameKey identifies one cache entry: the registry-assigned file
// number, the byte offset (unique within a file) of the frame a value
// was memoized from (a whole frame's stats partial), and the memo key. A
// whole answer (Answer) is a frame-less entry: offset answerOff, its
// answer key as the memo key.
type frameKey struct {
	file uint64
	off  int64
	memo string
}

// answerOff is the offset of a frame-less entry, a memoized answer.
const answerOff = -1

// answerSeed spreads one trace's answers over the shards by their keys.
var answerSeed = maphash.MakeSeed()

// FrameCache is a sharded LRU memo of values computed from a trace's
// frames, bounded by a byte budget: the values memoized per frame (Memo)
// — whole frames' stats partials — and whole answers (Answer), two kinds
// under one memo path (memo), each with counters of its own. It holds no
// decoded frame: a frame read to compute a value is decoded into pooled
// scratch and dropped once the value is computed.
//
// One admission rule covers everything the cache holds: a value becomes
// resident on its second use. The first leaves only a once-seen marker,
// charged memoEntryBytes plus its key, so a query nobody repeats — a
// cold pass, a lap's one /stats on a trace deleted right after — copies
// and keeps nothing. Memo's empty key memoizes nothing: that is how a
// frame a window cuts, whose value no later query is likely to share, is
// read.
type FrameCache struct {
	shards      []cacheShard
	shardBudget int64

	// stats are approximate across shards and exported via /metrics.
	// evictions counts the entries of either kind, values and markers,
	// dropped to stay under the budget.
	evictions promtext.Counter
	// The two memo kinds' lookups (Memo's per-frame values, Answer's
	// whole answers) and the bytes their entries are charged.
	partials  memoCounters
	partBytes promtext.Gauge
	answers   memoCounters
	ansBytes  promtext.Gauge
}

// memoCounters counts one memo kind's lookups: answered from a stored
// value, computed leaving a once-seen marker, and computed and stored.
type memoCounters struct{ hits, once, stored promtext.Counter }

type cacheShard struct {
	mu      sync.Mutex
	entries map[frameKey]*cacheEntry
	// LRU list of ready entries: head is most recent, tail the next
	// victim. In-flight entries sit in the map but not in the list, so
	// eviction can never pick a value that is still being stored.
	head, tail *cacheEntry
	bytes      int64
}

type cacheEntry struct {
	key frameKey
	// val is the stored value.
	val        any
	size       int64
	prev, next *cacheEntry
	// ready closes when the load finished; err is set before ready
	// closes and never written afterwards.
	ready chan struct{}
	err   error
	// linked tracks list membership: an entry can leave the list (and
	// the map) through invalidation while a waiter still holds it.
	linked bool
	// once marks a key used once and not stored: a resident marker with
	// no value and no ready channel that admits the key's next use.
	once bool
}

// memoEntryBytes is what a memo entry is charged beyond its value: the
// entry itself plus its key, charged by length (a client chooses it).
const memoEntryBytes = 128

// NewFrameCache builds a cache with the given total byte budget spread
// over nShards shards (both floored to sane minimums). The budget counts
// each stored value at the size its compute reports plus
// memoEntryBytes and its key, and each once-seen marker's charge.
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
	// assignment is uniform regardless of alignment. A frame's memo
	// entries share a shard; answers spread by their keys.
	h := k.file*0x9e3779b97f4a7c15 + uint64(k.off)
	if k.off == answerOff {
		h += maphash.String(answerSeed, k.memo)
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return &c.shards[h%uint64(len(c.shards))]
}

// Memo answers the value memoized under key from the frame at off of
// file number file — the registry's interval.FrameSource Memo. Admission
// is on the second evaluation under a key: the first leaves only a
// once-seen record (charged memoEntryBytes plus the key), so a query
// nobody repeats stores and copies nothing; the second stores its value,
// and every later lookup reuses it. Concurrent lookups of a value being
// stored wait for it (singleflight) unless ctx ends first; the store
// carries on either way. An evaluation decodes the frame into pooled
// scratch that compute must not hold on to, so it leaves no frame
// behind. The empty key memoizes nothing: compute runs over a frame
// decoded that way on every call, and the cache keeps neither a value
// nor a marker.
func (c *FrameCache) Memo(ctx context.Context, file uint64, off int64, key string, decode func(dst *interval.Batch) error, compute func(b *interval.Batch, store bool) (any, int64, error)) (any, bool, error) {
	lent := func(store bool) (any, int64, error) {
		b := scratchPool.Get().(*interval.Batch)
		defer scratchPool.Put(b)
		if err := decode(b); err != nil {
			return nil, 0, err
		}
		return compute(b, store)
	}
	if key == "" {
		v, _, err := lent(false)
		return v, false, err
	}
	return c.memo(ctx, frameKey{file, off, key}, &c.partials, lent)
}

// errLate marks an answer computed after its request ended: the caller
// gets it, the cache keeps nothing.
var errLate = errors.New("tracesvc: answer computed after its request ended")

// Answer returns the answer memoized under key in the namespace of file
// number file — a frame-less entry — computing it when none is stored,
// under Memo's rules. Unlike a per-frame store, a storing computation
// that ends after ctx did keeps nothing: its caller still gets the
// answer, but no cancelled or timed-out answer is ever served from the
// cache.
func (c *FrameCache) Answer(ctx context.Context, file uint64, key string, compute func() (any, int64, error)) (any, error) {
	v, _, err := c.memo(ctx, frameKey{file, answerOff, key}, &c.answers, func(store bool) (any, int64, error) {
		v, size, err := compute()
		if store && err == nil && ctx.Err() != nil {
			err = errLate
		}
		return v, size, err
	})
	if err == errLate {
		err = nil
	}
	return v, err
}

// memo is the one memo path, for per-frame values and whole answers
// alike: the value stored under k, or compute's. The first computation
// under k leaves only a once-seen marker (charged memoEntryBytes plus the
// key) and runs compute(false); the second runs compute(true) and stores
// its value, charged memoEntryBytes, the key and the size compute
// reports; every later lookup reuses it (reused = true). Lookups of a
// value being stored wait for it (singleflight) unless ctx ends first. A
// computation that fails stores nothing, and a waiter on it looks up
// afresh. n counts the lookups by outcome.
func (c *FrameCache) memo(ctx context.Context, k frameKey, n *memoCounters, compute func(store bool) (any, int64, error)) (any, bool, error) {
	sh := c.shard(k)
	for {
		sh.mu.Lock()
		e := sh.entries[k]
		if e != nil && !e.once {
			if err := sh.await(ctx, e); err != nil {
				return nil, false, err
			}
			if e.err != nil {
				continue // the store failed: its error is not this caller's
			}
			n.hits.Add(1)
			return e.val, true, nil
		}
		if e == nil {
			e = &cacheEntry{key: k, once: true, size: memoEntryBytes + int64(len(k.memo))}
			sh.entries[k] = e
			c.link(sh, e)
			c.evictLocked(sh)
			sh.mu.Unlock()
			n.once.Add(1)
			v, _, err := compute(false)
			return v, false, err
		}
		c.drop(sh, e)
		e = &cacheEntry{key: k, ready: make(chan struct{})}
		sh.entries[k] = e
		sh.mu.Unlock()
		v, err := c.fill(sh, e, func() (any, int64, error) {
			v, size, err := compute(true)
			return v, memoEntryBytes + int64(len(k.memo)) + size, err
		})
		if err == nil {
			n.stored.Add(1)
		}
		return v, false, err
	}
}

// scratchPool holds the batches Memo decodes frames into.
var scratchPool = sync.Pool{New: func() any { return new(interval.Batch) }}

// await returns once e's load has finished, bumping a ready entry to the
// LRU front, or once ctx is done. Called with the shard lock held, it
// returns with the lock released.
func (sh *cacheShard) await(ctx context.Context, e *cacheEntry) error {
	select {
	case <-e.ready:
		sh.moveToFront(e)
		sh.mu.Unlock()
		return nil
	default:
	}
	sh.mu.Unlock()
	select {
	case <-e.ready:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// fill runs load for e — in the map, not yet resident, ready still open
// — and publishes the result: a success becomes resident unless an
// invalidation dropped e meanwhile, a failure is not cached, and every
// waiter is released.
func (c *FrameCache) fill(sh *cacheShard, e *cacheEntry, load func() (any, int64, error)) (any, error) {
	v, size, err := load()
	e.val, e.err = v, err
	sh.mu.Lock()
	if sh.entries[e.key] == e {
		if err != nil {
			delete(sh.entries, e.key)
		} else {
			e.size = size
			c.link(sh, e)
			c.evictLocked(sh)
		}
	}
	sh.mu.Unlock()
	close(e.ready)
	return v, err
}

// link makes an entry resident: at the LRU front, charged to the shard's
// budget and its kind's gauge. The caller holds the shard lock.
func (c *FrameCache) link(sh *cacheShard, e *cacheEntry) {
	sh.linkFront(e)
	c.charge(sh, e, 1)
}

// drop removes an entry from the map and, when resident, from the LRU
// and the budget. The caller holds the shard lock.
func (c *FrameCache) drop(sh *cacheShard, e *cacheEntry) {
	delete(sh.entries, e.key)
	if e.linked {
		sh.unlink(e)
		c.charge(sh, e, -1)
	}
}

func (c *FrameCache) charge(sh *cacheShard, e *cacheEntry, sign int64) {
	sh.bytes += sign * e.size
	if e.key.off == answerOff {
		c.ansBytes.Add(sign * e.size)
	} else {
		c.partBytes.Add(sign * e.size)
	}
}

// evictLocked drops least-recently-used entries until the shard is back
// under its budget. The caller holds the shard lock.
func (c *FrameCache) evictLocked(sh *cacheShard) {
	for sh.bytes > c.shardBudget && sh.tail != nil {
		c.evictions.Add(1)
		c.drop(sh, sh.tail)
	}
}

// InvalidateFile removes every memoized value and answer of the given
// file; the registry calls it when a trace is closed so a later
// reopen can never see stale entries.
func (c *FrameCache) InvalidateFile(file uint64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, e := range sh.entries {
			if k.file == file {
				c.drop(sh, e)
			}
		}
		sh.mu.Unlock()
	}
}

// Flush empties the cache (benchmarks use it to measure the cold path).
func (c *FrameCache) Flush() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			c.drop(sh, e)
		}
		sh.mu.Unlock()
	}
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	// Entries of either kind, values and markers, evicted to stay under
	// the budget.
	Evictions int64
	// Memoized values (Memo, under a non-empty key): lookups reusing a
	// stored value, lookups that evaluated (leaving a marker or storing),
	// values stored, and bytes charged to memo entries.
	PartialHits, PartialMisses, PartialsStored int64
	PartialBytes                               int64
	// Whole answers (Answer): lookups reusing a stored answer, those that
	// computed and left a once-seen marker, answers stored, and bytes
	// charged to answer entries.
	AnswerHits, AnswersOnce, AnswersStored int64
	AnswerBytes                            int64
}

// Stats snapshots the counters (approximate under concurrency).
func (c *FrameCache) Stats() CacheStats {
	return CacheStats{
		Evictions:      c.evictions.Value(),
		PartialHits:    c.partials.hits.Value(),
		PartialMisses:  c.partials.once.Value() + c.partials.stored.Value(),
		PartialsStored: c.partials.stored.Value(),
		PartialBytes:   c.partBytes.Value(),
		AnswerHits:     c.answers.hits.Value(),
		AnswersOnce:    c.answers.once.Value(),
		AnswersStored:  c.answers.stored.Value(),
		AnswerBytes:    c.ansBytes.Value(),
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
