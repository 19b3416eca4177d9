package tracesvc

import "tracefw/internal/interval"

// Resident returns the decoded batches currently linked into the cache,
// keyed by frame offset (tests register one trace, so offsets are
// unique); memoized partials are left out.
func (c *FrameCache) Resident() map[int64]*interval.Batch {
	out := map[int64]*interval.Batch{}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for e := sh.head; e != nil; e = e.next {
			if e.key.memo == "" {
				out[e.key.off] = e.val.(*interval.Batch)
			}
		}
		sh.mu.Unlock()
	}
	return out
}
