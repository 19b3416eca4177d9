package interval

// SummarizeWindow answers a binned window query — per-bin busy time by
// type and by lane and peak concurrency, plus the window's lane list. It
// is the only implementation of that reduction (the statistics tables
// and the preview are formatters over it) and it has two engines, proven
// byte-identical on every input:
//
//   - scan: decode every frame overlapping the window through MapFrames
//     and accumulate (O(records in window)); answers any file list.
//   - pyramid: partition every bin into maximal aligned pyramid cells
//     plus at most two sub-base-width edge remainders, answer the
//     aligned interior from cell summaries, and read frames only for
//     the remainders (O(bins) cells; zero frame decodes when the
//     window and bin bounds land on base-cell boundaries, and none for
//     a remainder frame whose contribution the file's frame source
//     memoized); answers one file with a pyramid attached.
//
// Nobody picks between them: the pyramid answers whenever it can, and a
// pyramid that would cost more to load than the scan it replaces is
// never built or attached (SidecarOutweighs).
//
// Identity argument, in brief: busy overlap is additive over any
// partition of a bin, and the peak concurrency of a bin is the supremum
// of the (right-continuous) concurrency step function over the bin,
// which is the max of the suprema over the partition's parts — cell
// MaxConc for whole cells, a local sweep over the edge frames for
// remainders. Degenerate bins (window span < bin count) have boundary
// semantics the partition cannot reproduce, so they are the scan's.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"tracefw/internal/clock"
	"tracefw/internal/events"
)

// WindowSummaryOptions configures SummarizeWindow.
type WindowSummaryOptions struct {
	// Bins is the number of equal-width time buckets; must be >= 1.
	Bins int
	// Lo/Hi bound the window. Records are clipped to [Lo, Hi]; the
	// effective coverage is the half-open [Lo, Hi). Hi < Lo is an
	// error; callers clamp to run bounds first.
	Lo, Hi clock.Time
	// Parallel is the scan engine's worker count, as MapOptions.Parallel.
	// The summary is identical at every value.
	Parallel int
	// Context, when non-nil, aborts the query between frames.
	Context context.Context
}

// BinSummary is one time bucket of a window summary. The maps hold
// only strictly positive entries — plus, in a window narrower than its
// bin count, a zero BusyByType entry for every zero-width bucket an
// interval of that type reaches across (the busy table prints those as
// rows) — so two summaries are comparable with reflect.DeepEqual.
type BinSummary struct {
	// Start is the bucket's left bound.
	Start clock.Time
	// PeakConc is the peak number of busy intervals simultaneously
	// open at any instant in the bucket.
	PeakConc int
	// BusyByType sums each type's overlap with the bucket (all types,
	// Running included — consumers filter).
	BusyByType map[events.Type]clock.Time
	// BusyByLane sums busy-interval overlap per (node, cpu) lane.
	BusyByLane map[Lane]clock.Time
}

// WindowSummary is the result of SummarizeWindow.
type WindowSummary struct {
	Lo, Hi clock.Time
	Bins   []BinSummary
	// Lanes lists every lane with busy time anywhere in the window,
	// sorted by (node, cpu).
	Lanes []Lane
	// Engine reports which engine answered: "pyramid" or "scan".
	Engine string
	// CellsUsed counts pyramid cells consulted (0 on the scan engine).
	CellsUsed int
	// FramesDecoded counts frames this query fetched: all overlapping
	// frames on the scan engine, the edge-remainder frames on the
	// pyramid engine.
	FramesDecoded int
}

// SummarizeWindow computes the window summary over files (the list
// MapFrames takes) and is the only place an engine is chosen: a single
// file whose attached pyramid can answer o is answered from it, anything
// else by the scan. WindowSummary.Engine reports the choice; see the
// package comment above for the exactness contract.
func SummarizeWindow(files []*File, o WindowSummaryOptions) (*WindowSummary, error) {
	if o.Bins < 1 {
		return nil, fmt.Errorf("interval: summarize needs at least 1 bin, got %d", o.Bins)
	}
	if o.Hi < o.Lo {
		return nil, fmt.Errorf("interval: summarize window [%d, %d] is inverted", o.Lo, o.Hi)
	}
	if len(files) == 1 {
		if p := files[0].Pyramid(); p.usable(o) {
			return summarizePyramid(files[0], p, o)
		}
	}
	return summarizeScan(files, o)
}

// usable reports whether the pyramid engine can answer o. Degenerate
// windows (span < bins means some buckets are empty; their boundary
// semantics depend on event positions, not ranges) are the scan's.
func (p *Pyramid) usable(o WindowSummaryOptions) bool {
	return p != nil && len(p.Levels) > 0 && int64(o.Hi-o.Lo) >= int64(o.Bins)
}

// binAcc holds a window's per-bin integer sums: what a scan worker
// accumulates its frames into, and the total either engine finishes
// from. Every field merges by addition, concatenation or set union, so
// the order and grouping in which frames reach an accumulator cannot
// show in the summary.
type binAcc struct {
	bins   int
	byType map[events.Type][]clock.Time // one row of bins per type
	byLane map[uint32][]clock.Time      // one row of bins per Lane.key()
	// across is the set of (type, zero-width bin) pairs an interval
	// reached across without overlap; only a window narrower than its bin
	// count has such bins.
	across map[typeBin]struct{}
	// starts/ends are the clipped endpoints of every busy interval, for
	// the scan engine's concurrency sweep.
	starts, ends []clock.Time
}

type typeBin struct {
	typ events.Type
	bin int
}

func newBinAcc(bins int) *binAcc {
	return &binAcc{
		bins:   bins,
		byType: map[events.Type][]clock.Time{},
		byLane: map[uint32][]clock.Time{},
		across: map[typeBin]struct{}{},
	}
}

func (a *binAcc) typeRow(t events.Type) []clock.Time {
	row := a.byType[t]
	if row == nil {
		row = make([]clock.Time, a.bins)
		a.byType[t] = row
	}
	return row
}

func (a *binAcc) laneRow(key uint32) []clock.Time {
	row := a.byLane[key]
	if row == nil {
		row = make([]clock.Time, a.bins)
		a.byLane[key] = row
	}
	return row
}

// addBatch applies every record of one frame: its busy overlap with each
// bin it crosses and its clipped endpoints.
func (a *binAcc) addBatch(b *Batch, g *BinGrid) {
	for i := 0; i < b.N; i++ {
		dura := b.Dura[i]
		if dura < 0 {
			continue
		}
		s, e := b.Start[i], b.Start[i]+dura
		cs, ce := max(s, g.lo), min(e, g.hi)
		if cs >= ce {
			continue
		}
		typ := b.Type[i]
		trow := a.typeRow(typ)
		var lrow []clock.Time
		if busyType(typ) {
			lrow = a.laneRow(Lane{Node: b.Node[i], CPU: b.CPU[i]}.key())
			a.starts, a.ends = append(a.starts, cs), append(a.ends, ce)
		}
		for o := g.Overlaps(cs, ce); o.Next(); {
			if o.Dur == 0 {
				a.across[typeBin{typ, o.Bin}] = struct{}{}
				continue
			}
			trow[o.Bin] += o.Dur
			if lrow != nil {
				lrow[o.Bin] += o.Dur
			}
		}
	}
}

// merge adds b into a.
func (a *binAcc) merge(b *binAcc) {
	for t, row := range b.byType {
		dst := a.typeRow(t)
		for i, v := range row {
			dst[i] += v
		}
	}
	for l, row := range b.byLane {
		dst := a.laneRow(l)
		for i, v := range row {
			dst[i] += v
		}
	}
	for k := range b.across {
		a.across[k] = struct{}{}
	}
	a.starts, a.ends = append(a.starts, b.starts...), append(a.ends, b.ends...)
}

// finish turns the sums into the public summary: positive entries and
// the zero-width bins reached across, and the window-wide lane list.
func (a *binAcc) finish(g *BinGrid, peaks []int) *WindowSummary {
	ws := &WindowSummary{Lo: g.lo, Hi: g.hi, Bins: make([]BinSummary, g.Bins())}
	for bi := range ws.Bins {
		ws.Bins[bi] = BinSummary{Start: g.bounds[bi], PeakConc: peaks[bi]}
	}
	setType := func(bi int, t events.Type, v clock.Time) {
		b := &ws.Bins[bi]
		if b.BusyByType == nil {
			b.BusyByType = map[events.Type]clock.Time{}
		}
		b.BusyByType[t] = v
	}
	for t, row := range a.byType {
		for bi, v := range row {
			if v > 0 {
				setType(bi, t, v)
			}
		}
	}
	for k := range a.across {
		setType(k.bin, k.typ, 0)
	}
	for key, row := range a.byLane {
		lane, any := Lane{Node: uint16(key >> 16), CPU: uint16(key)}, false
		for bi, v := range row {
			if v > 0 {
				b := &ws.Bins[bi]
				if b.BusyByLane == nil {
					b.BusyByLane = map[Lane]clock.Time{}
				}
				b.BusyByLane[lane] = v
				any = true
			}
		}
		if any {
			ws.Lanes = append(ws.Lanes, lane)
		}
	}
	sort.Slice(ws.Lanes, func(i, j int) bool { return ws.Lanes[i].key() < ws.Lanes[j].key() })
	return ws
}

// summarizeScan is the scan engine: every frame overlapping the window
// goes through MapFrames — parallel at o.Parallel, cancellable, fed from
// the files' frame sources — into whichever accumulator is idle;
// the accumulators are then added up and swept once for concurrency.
// (One accumulator per concurrent map call rather than per frame: a
// frame's partial would be lanes × bins words to clear and add for a
// handful of bins touched, and integer sums do not care how they are
// grouped.)
func summarizeScan(files []*File, o WindowSummaryOptions) (*WindowSummary, error) {
	g := NewBinGrid(o.Lo, o.Hi, o.Bins)
	// accs holds every accumulator not inside a map call; however many
	// calls MapFrames runs at once, one that finds it empty makes another.
	var mu sync.Mutex
	var accs []*binAcc
	frames := 0
	err := MapFrames(files, MapOptions{Parallel: o.Parallel, Window: true, Lo: o.Lo, Hi: o.Hi, Context: o.Context},
		func(_ int, fr *Frame) (struct{}, error) {
			b, err := fr.Batch()
			if err != nil {
				return struct{}{}, err
			}
			var a *binAcc
			mu.Lock()
			if n := len(accs); n > 0 {
				a, accs = accs[n-1], accs[:n-1]
			}
			mu.Unlock()
			if a == nil {
				a = newBinAcc(o.Bins)
			}
			a.addBatch(b, g)
			mu.Lock()
			accs = append(accs, a)
			mu.Unlock()
			return struct{}{}, nil
		},
		func(int, FrameEntry, struct{}) error {
			// Counted from the selection, so the number does not depend
			// on how many decodes a shared cache absorbed.
			frames++
			return nil
		})
	if err != nil {
		return nil, err
	}
	total := newBinAcc(o.Bins)
	if len(accs) > 0 {
		total = accs[0]
		for _, a := range accs[1:] {
			total.merge(a)
		}
	}
	ws := total.finish(g, sweepPeaks(g.bounds, total.starts, total.ends))
	ws.Engine = "scan"
	ws.FramesDecoded = frames
	return ws, nil
}

// sweepPeaks returns the peak concurrency in each bin [bounds[i],
// bounds[i+1]) from the endpoints of every busy interval (sorted here, in
// place): the number open on entry holds until the bin's first event, all
// events at one instant apply together (intervals are half-open, so an
// end and a start at the same time do not overlap), and the last bin is
// closed on the right. The scan engine and the pyramid build both sweep
// through here, so a cell's MaxConc and a cell-aligned bin's PeakConc are
// the same number by construction.
func sweepPeaks(bounds, starts, ends []clock.Time) []int {
	slices.Sort(starts)
	slices.Sort(ends)
	// next is the earliest unconsumed endpoint.
	si, ei := 0, 0
	next := func() (clock.Time, bool) {
		switch {
		case si < len(starts) && (ei >= len(ends) || starts[si] <= ends[ei]):
			return starts[si], true
		case ei < len(ends):
			return ends[ei], true
		}
		return 0, false
	}
	peaks := make([]int, len(bounds)-1)
	cur := 0
	for bi := range peaks {
		hi := bounds[bi+1]
		if bi == len(peaks)-1 {
			hi++
		}
		p := -1
		if at, ok := next(); !ok || at > bounds[bi] {
			p = cur
		}
		for at, ok := next(); ok && at < hi; at, ok = next() {
			for ; si < len(starts) && starts[si] == at; si++ {
				cur++
			}
			for ; ei < len(ends) && ends[ei] == at; ei++ {
				cur--
			}
			p = max(p, cur)
		}
		peaks[bi] = max(p, 0)
	}
	return peaks
}

// remSpan is one sub-base-width edge remainder of a bin.
type remSpan struct {
	bin    int
	r0, r1 clock.Time
}

// remAfter returns the index of the first remainder ending after t
// (len(rems) when none does). Remainders are disjoint and ascending, so
// it is the first one t, or a span starting at t, can touch.
func remAfter(rems []remSpan, t clock.Time) int {
	lo, hi := 0, len(rems)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rems[mid].r1 > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// summarizePyramid is the O(bins) engine; see the package comment for
// the partition and the identity argument.
func summarizePyramid(f *File, p *Pyramid, o WindowSummaryOptions) (*WindowSummary, error) {
	g := NewBinGrid(o.Lo, o.Hi, o.Bins)
	a := newBinAcc(o.Bins)
	peaks := make([]int, o.Bins)
	w := int64(p.BaseWidth)
	cellsUsed := 0
	var rems []remSpan
	for bi := range peaks {
		b0, b1 := g.bounds[bi], g.bounds[bi+1]
		// Align the interior to the base grid: ia rounds b0 up, ib
		// rounds b1 down.
		ia := clock.Time(floorDivTime(b0+clock.Time(w-1), p.BaseWidth) * w)
		ib := clock.Time(floorDivTime(b1, p.BaseWidth) * w)
		if ia >= ib {
			rems = append(rems, remSpan{bin: bi, r0: b0, r1: b1})
			continue
		}
		if b0 < ia {
			rems = append(rems, remSpan{bin: bi, r0: b0, r1: ia})
		}
		if ib < b1 {
			rems = append(rems, remSpan{bin: bi, r0: ib, r1: b1})
		}
		for x := ia; x < ib; {
			lvl, idx := p.coarsestCell(x, ib)
			cellsUsed++
			if c := p.Levels[lvl].Cell(idx); c != nil {
				peaks[bi] = max(peaks[bi], c.MaxConc)
				for _, tb := range c.ByType {
					a.typeRow(tb.Type)[bi] += tb.Busy
				}
				for _, lb := range c.ByLane {
					a.laneRow(lb.Lane.key())[bi] += lb.Busy
				}
			}
			x += p.Levels[lvl].Width
		}
	}
	fetched, err := f.resolveRemainders(a, peaks, rems, g, o)
	if err != nil {
		return nil, err
	}
	ws := a.finish(g, peaks)
	ws.Engine = "pyramid"
	ws.CellsUsed = cellsUsed
	ws.FramesDecoded = fetched
	return ws, nil
}

// coarsestCell returns the deepest (widest) level whose cell starts at
// x and ends at or before limit, with x's absolute cell index there.
// x must be base-aligned and < limit.
func (p *Pyramid) coarsestCell(x, limit clock.Time) (level int, idx int64) {
	idx = floorDivTime(x, p.BaseWidth)
	for level+1 < len(p.Levels) {
		w := p.Levels[level+1].Width
		if idx&1 != 0 || x+w > limit {
			break
		}
		idx >>= 1
		level++
	}
	return level, idx
}

// resolveRemainders answers the edge spans one frame at a time: every
// frame overlapping a remainder is fetched once — through the file's
// frame source under the empty memo key, so a serving cache lends a
// resident frame and admits no other, or decoded into one pooled batch
// — and each of its records, clipped to the window, adds its busy
// overlap to the remainders it overlaps. Nothing of a frame outlives its
// turn but the clipped endpoints of its busy intervals, for one
// concurrency sweep over the remainders after the last frame. It returns
// how many frames were fetched.
func (f *File) resolveRemainders(a *binAcc, peaks []int, rems []remSpan, g *BinGrid, o WindowSummaryOptions) (int, error) {
	if len(rems) == 0 {
		return 0, nil
	}
	// The frames overlapping the remainders' hull, filtered with
	// FramesInWindow's exact predicate per remainder (the window is
	// closed; [r0, r1) needs End >= r0 and Start <= r1-1).
	hull, err := f.FramesInWindow(rems[0].r0, rems[len(rems)-1].r1-1)
	if err != nil {
		return 0, err
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var pooled *Batch
	if f.src == nil {
		pooled = batchPool.Get().(*Batch)
		defer batchPool.Put(pooled)
	}
	// The clipped endpoints of every busy interval reaching a remainder,
	// each interval once however many it reaches, in buffers a warm query
	// reuses.
	eps := endpointPool.Get().(*endpoints)
	defer endpointPool.Put(eps)
	starts, ends := eps.starts[:0], eps.ends[:0]
	defer func() { eps.starts, eps.ends = starts, ends }()
	var near []remSpan // the frame being resolved's remainders
	add := func(b *Batch, _ bool) (any, int64, error) {
		for ri := 0; ri < b.N; ri++ {
			typ, dura := b.Type[ri], b.Dura[ri]
			if dura < 0 {
				continue
			}
			s, e := b.Start[ri], b.Start[ri]+dura
			cs, ce := max(s, g.lo), min(e, g.hi)
			if cs >= ce {
				continue
			}
			// The first remainder the clipped interval can reach is the
			// first ending after its clipped start.
			k := remAfter(near, cs)
			if k == len(near) || near[k].r0 >= ce {
				continue
			}
			busy := busyType(typ)
			trow := a.typeRow(typ)
			var lrow []clock.Time
			if busy {
				lrow = a.laneRow(Lane{Node: b.Node[ri], CPU: b.CPU[ri]}.key())
				starts, ends = append(starts, cs), append(ends, ce)
			}
			for ; k < len(near) && near[k].r0 < ce; k++ {
				rs := &near[k]
				ov := min(ce, rs.r1) - max(cs, rs.r0)
				trow[rs.bin] += ov
				if busy {
					lrow[rs.bin] += ov
				}
			}
		}
		return nil, 0, nil
	}
	frames := 0
	for _, fe := range hull {
		// The remainders the frame overlaps are rems[lo:hi]; its records
		// go to those alone.
		lo, hi := remAfter(rems, fe.Start), remAfter(rems, fe.End)
		if hi < len(rems) && rems[hi].r0 <= fe.End {
			hi++
		}
		if hi <= lo {
			continue
		}
		near = rems[lo:hi]
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if f.src != nil {
			_, _, err = f.src.Memo(ctx, f, fe, "", add)
		} else if err = f.DecodeFrameBatch(fe, pooled); err == nil {
			_, _, err = add(pooled, false)
		}
		if err != nil {
			return 0, err
		}
		frames++
	}
	// One concurrency sweep over all the remainders: every busy interval
	// open at an instant of a remainder reaches it, so its endpoints are
	// here. The sweep's bins are the remainders and the gaps between them,
	// whose peaks are dropped. What lies outside cannot raise a peak:
	// before the first remainder there are only starts of intervals still
	// open at it, and at the last one's end (where the sweep closes its
	// final bin) only ends.
	bounds := make([]clock.Time, 0, 2*len(rems))
	remBin := make([]int, len(rems))
	for k, rs := range rems {
		if n := len(bounds); n == 0 || bounds[n-1] != rs.r0 {
			bounds = append(bounds, rs.r0)
		}
		remBin[k] = len(bounds) - 1
		bounds = append(bounds, rs.r1)
	}
	pks := sweepPeaks(bounds, starts, ends)
	for k, rs := range rems {
		peaks[rs.bin] = max(peaks[rs.bin], pks[remBin[k]])
	}
	return frames, nil
}

// endpoints holds a remainder query's endpoint buffers between queries.
type endpoints struct{ starts, ends []clock.Time }

var endpointPool = sync.Pool{New: func() any { return new(endpoints) }}
