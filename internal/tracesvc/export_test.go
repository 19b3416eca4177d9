package tracesvc

import "tracefw/internal/interval"

// Resident returns the batches currently linked into the cache, keyed
// by frame offset (tests register one trace, so offsets are unique).
func (c *FrameCache) Resident() map[int64]*interval.Batch {
	out := map[int64]*interval.Batch{}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for e := sh.head; e != nil; e = e.next {
			out[e.key.off] = e.batch
		}
		sh.mu.Unlock()
	}
	return out
}
