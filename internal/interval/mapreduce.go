package interval

import (
	"context"
	"sync"

	"tracefw/internal/clock"
	"tracefw/internal/par"
)

// This file is the parallel per-frame map-reduce engine the analysis
// tools (utestats tables, SLOG construction, diagram building) share.
// Frames are the format's natural unit of parallelism: each one decodes
// independently, and the directory metadata names every frame up front.
// The engine maps frames on a bounded worker pool (internal/par), each
// decoded only when its map function asks for the records, and
// hands the mapped values to a single reducer in strict frame order, so
// a parallel run reduces in exactly the sequence a sequential scan
// would — the byte-identity guarantee every consumer builds on.

// MapOptions selects frames and sets the worker count for MapFrames.
type MapOptions struct {
	// Parallel is the worker count; <= 0 means GOMAXPROCS. Frames are
	// decoded concurrently only when every file supports positioned
	// reads (ConcurrentReads); otherwise the engine falls back to one
	// worker.
	Parallel int
	// Window restricts the run to frames overlapping [Lo, Hi]. Records
	// inside a selected frame are all delivered, including any spilling
	// past the window edges — callers filter records exactly as they
	// would after a full scan, so results do not depend on frame
	// boundaries.
	Window bool
	Lo, Hi clock.Time
	// Context, when non-nil, aborts the run once it is cancelled: no
	// new frames are issued and the engine returns the context's error.
	// Cancellation is checked per frame, so a long run stops within one
	// frame's worth of work. Servers set it to the request context;
	// batch callers leave it nil (context.Background()).
	Context context.Context
}

// selectFrames lists the frames opts selects for one file — the one
// frame selection, under MapFrames and under every Scanner.
func selectFrames(f *File, opts MapOptions) ([]FrameEntry, error) {
	if opts.Window {
		return f.FramesInWindow(opts.Lo, opts.Hi)
	}
	return f.Frames()
}

// batchPool recycles decode batches across MapFrames workers and runs;
// a recycled batch's columns keep their capacity, so steady-state
// columnar decode allocates nothing.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// Frame is one selected frame as MapFrames hands it to a map function:
// its directory entry, and its records, fetched on the first call to
// Batch. A map function that can answer from the entry alone — or
// through the file's frame source's Memo, which fetches the frame
// itself only on a miss — never calls Batch. A Frame belongs to one map
// call and is not safe for concurrent use.
type Frame struct {
	Entry FrameEntry

	f       *File
	file    int
	scratch *Batch // pooled; nil until Batch is called
	err     error
}

// Batch returns the frame's records, decoding them into a pooled batch
// on the first call. The batch is read-only and valid until the frame's
// reduceFn returns: the map function may return it, or Rows aliasing it,
// as its value for reduceFn to read, but anything kept longer must be
// copied out. Later calls return the same batch and error.
func (fr *Frame) Batch() (*Batch, error) {
	if fr.scratch == nil {
		fr.scratch = batchPool.Get().(*Batch)
		fr.err = fr.f.DecodeFrameBatch(fr.Entry, fr.scratch)
	}
	if fr.err != nil {
		return nil, fr.err
	}
	return fr.scratch, nil
}

// MapFrames runs mapFn over every selected frame of every file — all
// files' frames feed one worker pool, so small files do not idle
// workers — and calls reduceFn with the mapped values in (file, frame)
// order, the same order a sequential scan of the files one after
// another would produce. mapFn runs concurrently and must not touch
// shared state; reduceFn runs on one goroutine at a time in
// deterministic order and may keep state.
//
// Each frame arrives as a lazy Frame: nothing is read until mapFn calls
// its Batch, and a failed fetch is the error Batch returns, which mapFn
// passes on.
//
// At most Workers(Parallel, frames) frames are in flight, so memory
// stays bounded no matter how large the files are. On error the engine
// stops issuing frames and returns the lowest-ordered failure; the
// reducer may have consumed an arbitrary prefix.
func MapFrames[T any](files []*File, opts MapOptions, mapFn func(file int, fr *Frame) (T, error), reduceFn func(file int, fe FrameEntry, v T) error) error {
	selected, err := selectAll(files, opts)
	if err != nil {
		return err
	}
	return mapSelected(files, selected, opts, mapFn, reduceFn)
}

// selectAll lists the frames opts selects in each of files.
func selectAll(files []*File, opts MapOptions) ([][]FrameEntry, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	selected := make([][]FrameEntry, len(files))
	for fi, f := range files {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fes, err := selectFrames(f, opts)
		if err != nil {
			return nil, err
		}
		selected[fi] = fes
	}
	return selected, nil
}

// mapSelected is MapFrames over frames already selected: selected[fi]
// are files[fi]'s, as selectAll lists them.
func mapSelected[T any](files []*File, selected [][]FrameEntry, opts MapOptions, mapFn func(file int, fr *Frame) (T, error), reduceFn func(file int, fe FrameEntry, v T) error) error {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	n := 0
	for _, fes := range selected {
		n += len(fes)
	}
	jobs := make([]Frame, 0, n)
	for fi, fes := range selected {
		for _, fe := range fes {
			jobs = append(jobs, Frame{Entry: fe, f: files[fi], file: fi})
		}
	}
	p := par.Workers(opts.Parallel, len(jobs))
	if p > 1 {
		for _, f := range files {
			if !f.ConcurrentReads() {
				p = 1
				break
			}
		}
	}
	red := par.NewOrderedReducer()
	return par.Do(len(jobs), p, func(i int) error {
		if err := ctx.Err(); err != nil {
			red.Abort()
			return err
		}
		fr := &jobs[i]
		defer func() {
			if fr.scratch != nil {
				batchPool.Put(fr.scratch)
				fr.scratch = nil
			}
		}()
		v, err := mapFn(fr.file, fr)
		if err != nil {
			red.Abort()
			return err
		}
		return red.Reduce(i, func() error { return reduceFn(fr.file, fr.Entry, v) })
	})
}

// The ordered reduction itself lives in par.OrderedReducer — the shard
// router's scatter-gather merge shares it, so both layers agree on the
// frame-order reduce discipline.
