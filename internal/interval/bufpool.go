package interval

import "sync"

// bufPool recycles the byte buffers of the hot frame paths: the frame
// read buffer under every batch decode and the Writer's directory group
// and directory flush buffers. Convert and merge open many short-lived
// writers and readers (one per node per pass), so pooling these keeps
// the per-file cost at a handful of allocations instead of one per
// frame.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

// getBuf fetches a pooled buffer with zero length and nonzero capacity.
func getBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// putBuf returns a buffer to the pool. Callers must not touch the
// buffer afterwards.
func putBuf(b *[]byte) {
	if b == nil {
		return
	}
	bufPool.Put(b)
}
