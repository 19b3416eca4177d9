package stats

// The columnar evaluation path: compiled kernels evaluate a whole
// frame's batch columns at a time, never materializing records.

import (
	"sync"

	"tracefw/internal/clock"
	"tracefw/internal/interval"
)

func (prog *compiledProgram) columnarFrame(opts Options, tStart, tEnd clock.Time) frameEval {
	// One executor per worker, pooled: its kernel scratch buffers grow
	// to the largest frame once and are reused for every frame after.
	pool := sync.Pool{New: func() any { return prog.newExec(tStart, tEnd) }}
	return func(_ int, fe interval.FrameEntry, b *interval.Batch, sp *specPartial) error {
		x := pool.Get().(*kexec)
		defer pool.Put(x)
		x.bind(b)
		// Batch-level pruning from directory aggregates: a frame that
		// lies fully inside the window (or any frame when unwindowed)
		// selects every row, so no per-row bitmap test is needed.
		// Fully-outside frames were never selected by the engine.
		sel := x.mbuf(prog.selSlot)
		if opts.Window && !(fe.Start >= opts.Lo && fe.End <= opts.Hi) {
			maskZero(sel)
			for i := 0; i < b.N; i++ {
				if b.Start[i]+b.Dura[i] >= opts.Lo && b.Start[i] <= opts.Hi {
					sel[i>>6] |= 1 << uint(i&63)
				}
			}
		} else {
			maskOnes(sel, b.N)
		}
		for si, ct := range prog.tables {
			sk, err := ct.run(x, sel, sp.pg[si])
			if err != nil {
				return err
			}
			sp.skipped[si] = sk
		}
		return nil
	}
}
