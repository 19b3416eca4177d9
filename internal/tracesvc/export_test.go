package tracesvc

import "tracefw/internal/interval"

// MarkerBytes is what the cache charges a once-seen frame marker.
const MarkerBytes = memoEntryBytes

// Resident returns the frames currently linked into the cache, keyed by
// frame offset (tests register one trace, so offsets are unique): the
// decoded batch of a stored frame, nil for a once-seen marker. Memoized
// partials are left out.
func (c *FrameCache) Resident() map[int64]*interval.Batch {
	out := map[int64]*interval.Batch{}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for e := sh.head; e != nil; e = e.next {
			if e.key.memo == "" {
				b, _ := e.val.(*interval.Batch)
				out[e.key.off] = b
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// Waiting reports whether a request is waiting on the decode of frame
// off of file number file.
func (c *FrameCache) Waiting(file uint64, off int64) bool {
	k := frameKey{file: file, off: off}
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[k]
	return e != nil && e.wanted
}

// EvictFrames drops every decoded frame and once-seen frame marker, as
// eviction under a tight budget would, and leaves memoized partials
// resident.
func (c *FrameCache) EvictFrames() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, e := range sh.entries {
			if k.memo == "" {
				c.drop(sh, e)
			}
		}
		sh.mu.Unlock()
	}
}
