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
	"context"
	"errors"
	"hash/maphash"
	"sync"

	"tracefw/internal/interval"
	"tracefw/internal/promtext"
)

// frameKey identifies one cache entry: the registry-assigned file
// number, the frame's byte offset (unique within a file), and — for a
// value memoized from that frame (a whole frame's stats partial) — the
// memo key; "" is the decoded frame itself. A whole answer (Answer) is a
// frame-less entry: offset answerOff, its answer key as the memo key.
type frameKey struct {
	file uint64
	off  int64
	memo string
}

// answerOff is the offset of a frame-less entry, a memoized answer.
const answerOff = -1

// answerSeed spreads one trace's answers over the shards by their keys.
var answerSeed = maphash.MakeSeed()

// FrameCache is a sharded LRU cache of decoded frames — columnar
// batches, the one decoded representation every consumer reads — keyed
// by (file, frame offset) and bounded by a byte budget. Cached batches
// are shared with every caller and read-only by contract (the same
// contract interval.FrameDecoder states); eviction only drops the
// cache's reference, so a batch a request still holds stays valid.
//
// One admission rule covers everything the cache holds: a value becomes
// resident on its second use. The first leaves only a once-seen marker,
// charged memoEntryBytes plus its key, so a frame or query nobody
// repeats — a cold pass, a lap's one /stats on a trace deleted right
// after — copies and keeps nothing. The one first use that stores is a
// frame whose caller lends no scratch to decode into (Get): it needs a
// copy of its own anyway, and the cache keeps that copy.
//
// The same shards, LRU, budget and singleflight hold two memo kinds
// under one memo path (memo), each with counters of its own: the values
// memoized per frame (Memo) — whole frames' stats partials — and whole
// answers (Answer). A frame read only to compute a per-frame value is
// never a use of the frame: a resident frame serves the compute as a
// hit, any other is decoded into scratch and admitted nowhere, neither
// marked nor stored. Memo's empty key reads a frame that way and
// memoizes nothing: that is how a frame a window cuts, whose value no
// later query is likely to share, is read.
type FrameCache struct {
	shards      []cacheShard
	shardBudget int64

	// stats are approximate across shards and exported via /metrics.
	hits      promtext.Counter
	misses    promtext.Counter
	evictions promtext.Counter
	// Frame decodes that left a once-seen marker, those whose frame
	// became resident, and those that fed a memo compute and left
	// nothing; together with failed decodes they are the misses.
	admitOnce   promtext.Counter
	admitStored promtext.Counter
	admitNone   promtext.Counter
	// bytes is charged with resident frames and their once-seen markers,
	// entries counts resident frames alone.
	bytes   promtext.Gauge
	entries promtext.Gauge
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
	// eviction can never pick a frame that is still decoding.
	head, tail *cacheEntry
	bytes      int64
}

type cacheEntry struct {
	key frameKey
	// val is the decoded *interval.Batch or the stored memo value.
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
	// once marks a key used once and not stored. Settled, it is a
	// resident marker with no value and no ready channel that admits the
	// key's next use. A frame's first decode is a once entry with a ready
	// channel while it runs, outside the LRU; wanted records that
	// another request waited on it — the frame's second use — so the
	// decode stores a copy for the waiters.
	once   bool
	wanted bool
}

// memoEntryBytes is what a memo entry is charged beyond its value: the
// entry itself plus its key, charged by length (a client chooses it).
const memoEntryBytes = 128

// NewFrameCache builds a cache with the given total byte budget spread
// over nShards shards (both floored to sane minimums). The budget
// counts each resident batch's exact column footprint
// (interval.Batch.Footprint) — stored batches are right-sized copies, so
// nothing uncounted rides along — and each once-seen marker's charge.
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
	// entries share its shard; answers spread by their keys.
	h := k.file*0x9e3779b97f4a7c15 + uint64(k.off)
	if k.off == answerOff {
		h += maphash.String(answerSeed, k.memo)
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return &c.shards[h%uint64(len(c.shards))]
}

// Get returns the decoded frame at off of file number file under the
// admission rule. A first use decodes into the caller's scratch and
// keeps only a once-seen marker, so the caller gets its scratch back
// with nothing copied; the second use decodes again and stores a
// right-sized copy that it and every later use share. A caller that
// lends no scratch (nil) needs a never-recycled batch of its own — the
// very copy the cache would store — so its first use stores at once:
// keeping it costs no copy. A request arriving while a decode still runs
// waits for it and counts as a hit; a first use with waiters stores a
// copy for them, so however many callers ask for a missing frame at once
// it is decoded once (singleflight). A failed decode is not cached;
// every waiter sees the error and the next Get retries.
func (c *FrameCache) Get(file uint64, off int64, scratch *interval.Batch, decode func(dst *interval.Batch) error) (*interval.Batch, error) {
	k := frameKey{file: file, off: off}
	sh := c.shard(k)
	sh.mu.Lock()
	e := sh.entries[k]
	if e != nil && (!e.once || e.ready != nil) {
		// Resident, being stored, or in its first decode right now: a hit
		// either way — no second decode runs.
		e.wanted = true
		sh.await(context.Background(), e)
		c.hits.Add(1)
		b, _ := e.val.(*interval.Batch)
		return b, e.err
	}
	c.misses.Add(1)
	if e != nil || scratch == nil {
		if e != nil {
			c.drop(sh, e) // the marker gives way to the stored frame
		}
		e = &cacheEntry{key: k, ready: make(chan struct{})}
		sh.entries[k] = e
		sh.mu.Unlock()
		return c.store(sh, e, func() (*interval.Batch, error) {
			b := scratch
			if b == nil {
				b = scratchPool.Get().(*interval.Batch)
				defer scratchPool.Put(b)
			}
			if err := decode(b); err != nil {
				return nil, err
			}
			return b.Clone(), nil
		})
	}
	e = &cacheEntry{key: k, once: true, ready: make(chan struct{})}
	sh.entries[k] = e
	sh.mu.Unlock()
	err := decode(scratch)
	sh.mu.Lock()
	if err == nil && e.wanted {
		sh.mu.Unlock()
		_, err := c.store(sh, e, func() (*interval.Batch, error) { return scratch.Clone(), nil })
		return scratch, err
	}
	e.err = err
	ready := e.ready
	if sh.entries[k] == e {
		if err != nil {
			delete(sh.entries, k)
		} else {
			// Nobody waits on e (wanted is still false), so its ready
			// channel can go: e is a settled marker from here on.
			c.mark(sh, e)
		}
	}
	sh.mu.Unlock()
	close(ready)
	if err != nil {
		return nil, err
	}
	c.admitOnce.Add(1)
	return scratch, nil
}

// scratchPool holds the decode batches of stores whose caller lent none;
// only the right-sized copy of each stays.
var scratchPool = sync.Pool{New: func() any { return new(interval.Batch) }}

// store fills e with the stored copy load makes and counts the admission.
func (c *FrameCache) store(sh *cacheShard, e *cacheEntry, load func() (*interval.Batch, error)) (*interval.Batch, error) {
	v, err := c.fill(sh, e, func() (any, int64, error) {
		b, err := load()
		if err != nil {
			return nil, 0, err
		}
		return b, b.Footprint(), nil
	})
	if err != nil {
		return nil, err
	}
	c.admitStored.Add(1)
	return v.(*interval.Batch), nil
}

// mark settles e as a once-seen marker: resident with no value and no
// ready channel, charged memoEntryBytes plus its key. The caller holds
// the shard lock.
func (c *FrameCache) mark(sh *cacheShard, e *cacheEntry) {
	e.once, e.ready, e.size = true, nil, memoEntryBytes+int64(len(e.key.memo))
	c.link(sh, e)
	c.evictLocked(sh)
}

// Memo answers the value memoized under key from the frame at off of
// file number file — the registry's interval.FrameSource Memo. Admission
// is on the second evaluation under a key: the first leaves only a
// once-seen record (charged memoEntryBytes plus the key), so a query
// nobody repeats stores and copies nothing; the second stores its value,
// and every later lookup reuses it. Concurrent lookups of a value being
// stored wait for it (singleflight) unless ctx ends first; the store
// carries on either way. An evaluation gets the frame from lend, so it
// leaves no frame behind. The empty key memoizes nothing: compute runs
// over a lent frame on every call, and the cache keeps neither a value
// nor a marker.
func (c *FrameCache) Memo(ctx context.Context, file uint64, off int64, key string, decode func(dst *interval.Batch) error, compute func(b *interval.Batch, store bool) (any, int64, error)) (any, bool, error) {
	lent := func(store bool) (any, int64, error) {
		return c.lend(file, off, decode, func(b *interval.Batch) (any, int64, error) { return compute(b, store) })
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
			e = &cacheEntry{key: k}
			sh.entries[k] = e
			c.mark(sh, e)
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

// lend runs fn over the frame at off of file number file without making
// it a use of the frame: a frame resident (or being stored) is handed
// over as is, a hit; any other is decoded into pooled scratch that fn
// must not hold on to, a miss that leaves the cache neither a marker nor
// a copy. A frame in its first decode for a Get is decoded again rather
// than waited on: a waiter would make that decode store. A frame being
// stored is waited on whatever the caller's context: lend runs inside
// Memo's stores, which carry on when their request ends.
func (c *FrameCache) lend(file uint64, off int64, decode func(dst *interval.Batch) error, fn func(b *interval.Batch) (any, int64, error)) (any, int64, error) {
	k := frameKey{file: file, off: off}
	sh := c.shard(k)
	sh.mu.Lock()
	if e := sh.entries[k]; e != nil && !e.once {
		sh.await(context.Background(), e)
		c.hits.Add(1)
		if e.err != nil {
			return nil, 0, e.err
		}
		return fn(e.val.(*interval.Batch))
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	b := scratchPool.Get().(*interval.Batch)
	defer scratchPool.Put(b)
	if err := decode(b); err != nil {
		return nil, 0, err
	}
	c.admitNone.Add(1)
	return fn(b)
}

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
// waiter is released. A frame's first decode that a waiter wanted is
// filled too, and stops being a once entry here.
func (c *FrameCache) fill(sh *cacheShard, e *cacheEntry, load func() (any, int64, error)) (any, error) {
	v, size, err := load()
	e.val, e.err = v, err
	sh.mu.Lock()
	e.once = false
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
	switch {
	case e.key.memo == "":
		c.bytes.Add(sign * e.size)
		if !e.once {
			c.entries.Add(sign)
		}
	case e.key.off == answerOff:
		c.ansBytes.Add(sign * e.size)
	default:
		c.partBytes.Add(sign * e.size)
	}
}

// evictLocked drops least-recently-used entries until the shard is back
// under its budget. The caller holds the shard lock.
func (c *FrameCache) evictLocked(sh *cacheShard) {
	for sh.bytes > c.shardBudget && sh.tail != nil {
		if sh.tail.key.memo == "" && !sh.tail.once {
			c.evictions.Add(1)
		}
		c.drop(sh, sh.tail)
	}
}

// InvalidateFile removes every cached frame and memoized value of the
// given file; the registry calls it when a trace is closed so a later
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

// Flush empties the cache entirely, memoized values included
// (benchmarks use it to measure the cold path).
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
	Hits, Misses, Evictions int64
	// Frame decodes that left a once-seen marker (a first use), those
	// whose frame became resident (a second use, or a first use lending
	// no scratch), and those that fed a memo compute and left nothing.
	AdmittedOnce, AdmittedStored, AdmittedNone int64
	// Bytes charged to resident frames and their markers; frames resident.
	Bytes, Entries int64
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
		Hits:           c.hits.Value(),
		Misses:         c.misses.Value(),
		Evictions:      c.evictions.Value(),
		AdmittedOnce:   c.admitOnce.Value(),
		AdmittedStored: c.admitStored.Value(),
		AdmittedNone:   c.admitNone.Value(),
		Bytes:          c.bytes.Value(),
		Entries:        c.entries.Value(),
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
