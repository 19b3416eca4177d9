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
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/par"
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
	// NoLanes keeps no per-lane rows: Lanes and every BusyByLane stay
	// empty, and lanes cost the summary nothing against
	// MaxSummaryCells. A caller that reads only BusyByType and PeakConc
	// (the preview) sets it.
	NoLanes bool
}

// BinSummary is one time bucket of a window summary. BusyByType holds
// only strictly positive entries — plus, in a window narrower than its
// bin count, a zero entry for every zero-width bucket an interval of
// that type reaches across (the busy table prints those as rows) — so
// two summaries are comparable with reflect.DeepEqual.
type BinSummary struct {
	// Start is the bucket's left bound.
	Start clock.Time
	// PeakConc is the peak number of busy intervals simultaneously
	// open at any instant in the bucket.
	PeakConc int
	// BusyByType sums each type's overlap with the bucket (all types,
	// Running included — consumers filter).
	BusyByType map[events.Type]clock.Time
	// BusyByLane sums busy-interval overlap per (node, cpu) lane, one
	// entry per WindowSummary.Lanes entry in the same order, zero for a
	// lane idle in this bucket; nil when the window has no lanes. Every
	// bucket's row is a slice of one backing array.
	BusyByLane []clock.Time
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

// MaxSummaryCells bounds the per-bin state one window summary may hold:
// bins times the rows it keeps, one per type seen and one per busy
// (node, cpu) lane. stats.MaxBins caps the bins a caller names; this caps
// what those bins cost on the trace at hand, since every row is bins
// wide. It is checked as each accumulator allocates a row, and the scan
// engine's accumulators share it (summarizeScan), so a summary over
// budget fails with ErrSummaryBudget having held at most two budgets at
// any worker count. A
// 216×4 sweep cell at 64 bins (864 lanes, 6 types) uses 1.3% of it;
// sPPM 4×8 at stats.MaxBins (4 lanes, 7 types) 17%.
const MaxSummaryCells = 1 << 22

// scanAccRows is the row count the scan engine sizes its accumulators
// for (a wide machine's lanes, about): summarizeScan keeps no more
// accumulators than give each a share of MaxSummaryCells this many rows
// wide.
const scanAccRows = 1024

// ErrSummaryBudget is the error SummarizeWindow wraps when a summary
// would pass MaxSummaryCells: a request too large for the trace, which a
// caller can fix by asking for fewer bins.
var ErrSummaryBudget = errors.New("interval: summary over its cell budget")

// budgetErr is the error of a summary at bins whose rows pass
// MaxSummaryCells. It names bins alone, so every engine and worker
// count refuses a request in the same words.
func budgetErr(bins int) error {
	return fmt.Errorf("%w: %d bins × more than %d type and lane rows pass %d cells (ask for fewer bins)",
		ErrSummaryBudget, bins, MaxSummaryCells/bins, MaxSummaryCells)
}

// errShare is a scan accumulator passing its share of MaxSummaryCells.
// It is not the window's failure: summarizeScan answers it.
var errShare = errors.New("interval: summary accumulator over its share")

// binAcc holds a window's per-bin integer sums: what a scan worker
// accumulates its frames into, and the total either engine finishes
// from. Every field merges by addition, concatenation or set union, so
// the order and grouping in which frames reach an accumulator cannot
// show in the summary.
type binAcc struct {
	bins int
	// limit is the cells the accumulator may hold: MaxSummaryCells, or a
	// scan accumulator's share of it.
	limit int
	// noLanes is WindowSummaryOptions.NoLanes: no lane rows are kept.
	noLanes bool
	types   rowSet // one row of bins per type, keyed by events.Type
	lanes   rowSet // one row of bins per busy lane, keyed by Lane.key()
	// slab holds the cells the next rows are cut from.
	slab []clock.Time
	// across is the set of (type, zero-width bin) pairs an interval
	// reached across without overlap; only a window narrower than its bin
	// count has such bins (nil until one does).
	across map[typeBin]struct{}
	// starts/ends are the clipped endpoints of every busy interval, for
	// the scan engine's concurrency sweep.
	starts, ends []clock.Time
}

type typeBin struct {
	typ events.Type
	bin int
}

// rowSet is a set of rows found by key through an open-addressing index,
// not a map: the scan looks a lane row up for every busy record.
type rowSet struct {
	keys []uint32
	rows [][]clock.Time
	// slots holds row index+1 at a key's probe position (0 = empty); its
	// length is a power of two and it is kept at most half full.
	slots []int32
}

func newBinAcc(o WindowSummaryOptions, limit int) *binAcc {
	return &binAcc{bins: o.Bins, limit: limit, noLanes: o.NoLanes,
		types: rowSet{slots: make([]int32, 16)}, lanes: rowSet{slots: make([]int32, 16)}}
}

// slot returns key's first probe position.
func (s *rowSet) slot(key uint32) int {
	h := key * 0x9e3779b1
	return int((h ^ h>>15) & uint32(len(s.slots)-1))
}

// row returns the row for key in set s (a.types or a.lanes), allocating
// it zeroed on first sight unless that would pass the accumulator's
// limit.
func (a *binAcc) row(s *rowSet, key uint32) ([]clock.Time, error) {
	mask := len(s.slots) - 1
	i := s.slot(key)
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		if r := s.slots[i] - 1; s.keys[r] == key {
			return s.rows[r], nil
		}
	}
	n := len(a.types.rows) + len(a.lanes.rows)
	if (n+1)*a.bins > a.limit {
		if a.limit < MaxSummaryCells {
			return nil, errShare
		}
		return nil, budgetErr(a.bins)
	}
	// Rows are cut from slabs that grow with the rows allocated so far,
	// up to slabCells: a handful of allocations per accumulator.
	const slabCells = 4096
	if len(a.slab) < a.bins {
		a.slab = make([]clock.Time, max(1, min(n, slabCells/a.bins))*a.bins)
	}
	row := a.slab[:a.bins:a.bins]
	a.slab = a.slab[a.bins:]
	s.keys, s.rows = append(s.keys, key), append(s.rows, row)
	s.slots[i] = int32(len(s.rows))
	if 2*len(s.rows) > len(s.slots) {
		s.slots = make([]int32, 2*len(s.slots))
		for r, k := range s.keys {
			j := s.slot(k)
			for s.slots[j] != 0 {
				j = (j + 1) & (len(s.slots) - 1)
			}
			s.slots[j] = int32(r + 1)
		}
	}
	return row, nil
}

// addBatch applies every record of one frame: its busy overlap with each
// bin it crosses and its clipped endpoints.
func (a *binAcc) addBatch(b *Batch, g *BinGrid) error {
	n := b.N
	// Room for every record's endpoints, checked once per frame (the scan
	// reserves it up front). On an error the accumulator is abandoned
	// with the query, so only success stores the new lengths back.
	starts, ends := slices.Grow(a.starts, n), slices.Grow(a.ends, n)
	k := len(starts)
	starts, ends = starts[:k+n], ends[:k+n]
	lo, hi := g.lo, g.hi
	// The last type seen and its row: consecutive records share types far
	// more often than lanes.
	var ltyp events.Type
	var trow []clock.Time
	var err error
	for i, dura := range b.Dura[:n] {
		if dura < 0 {
			continue
		}
		s := b.Start[i]
		cs, ce := max(s, lo), min(s+dura, hi)
		if cs >= ce {
			continue
		}
		typ := b.Type[i]
		if trow == nil || typ != ltyp {
			if trow, err = a.row(&a.types, uint32(typ)); err != nil {
				return err
			}
			ltyp = typ
		}
		var lrow []clock.Time
		if busyType(typ) {
			if !a.noLanes {
				if lrow, err = a.row(&a.lanes, Lane{Node: b.Node[i], CPU: b.CPU[i]}.key()); err != nil {
					return err
				}
			}
			starts[k], ends[k] = cs, ce
			k++
		}
		for o := g.Overlaps(cs, ce); o.Next(); {
			if o.Dur == 0 {
				a.addAcross(typ, o.Bin)
				continue
			}
			trow[o.Bin] += o.Dur
			if lrow != nil {
				lrow[o.Bin] += o.Dur
			}
		}
	}
	a.starts, a.ends = starts[:k], ends[:k]
	return nil
}

// addAcross records that an interval of typ reached across zero-width
// bin bin.
func (a *binAcc) addAcross(typ events.Type, bin int) {
	if a.across == nil {
		a.across = map[typeBin]struct{}{}
	}
	a.across[typeBin{typ, bin}] = struct{}{}
}

// merge adds b into a.
func (a *binAcc) merge(b *binAcc) error {
	for _, set := range []struct{ dst, src *rowSet }{{&a.types, &b.types}, {&a.lanes, &b.lanes}} {
		for r, key := range set.src.keys {
			dst, err := a.row(set.dst, key)
			if err != nil {
				return err
			}
			for i, v := range set.src.rows[r] {
				dst[i] += v
			}
		}
	}
	for k := range b.across {
		a.addAcross(k.typ, k.bin)
	}
	a.starts, a.ends = append(a.starts, b.starts...), append(a.ends, b.ends...)
	return nil
}

// finish turns the sums into the public summary: positive type entries
// and the zero-width bins reached across, and the lanes with busy time
// anywhere in the window, sorted, with their rows laid out bin by bin in
// one array.
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
	for r, key := range a.types.keys {
		for bi, v := range a.types.rows[r] {
			if v > 0 {
				setType(bi, events.Type(key), v)
			}
		}
	}
	for k := range a.across {
		setType(k.bin, k.typ, 0)
	}
	// The lane rows to keep, by key.
	var busy []int
	for r, row := range a.lanes.rows {
		if slices.ContainsFunc(row, func(v clock.Time) bool { return v > 0 }) {
			busy = append(busy, r)
		}
	}
	if len(busy) == 0 {
		return ws
	}
	slices.SortFunc(busy, func(x, y int) int { return cmp.Compare(a.lanes.keys[x], a.lanes.keys[y]) })
	nl := len(busy)
	ws.Lanes = make([]Lane, nl)
	cells := make([]clock.Time, nl*len(ws.Bins))
	for j, r := range busy {
		key := a.lanes.keys[r]
		ws.Lanes[j] = Lane{Node: uint16(key >> 16), CPU: uint16(key)}
		for bi, v := range a.lanes.rows[r] {
			cells[bi*nl+j] = v
		}
	}
	for bi := range ws.Bins {
		ws.Bins[bi].BusyByLane = cells[bi*nl : (bi+1)*nl : (bi+1)*nl]
	}
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
//
// The accumulators share MaxSummaryCells. There are n of them — one per
// worker at the usual bin counts, down to a single shared one at
// thousands of bins (decoding stays parallel; only the adds queue) —
// each holding at most a 1/n share, at least scanAccRows rows wide. One
// that would pass its share stops the scan, and the window is read
// again into one accumulator holding the whole budget, which fails if
// the window's rows pass it. So the accumulators of one pass hold at
// most one budget between them, whatever the worker count and the
// window's width, and a request at most two; whether it fails is the
// window's property, the same at every width.
func summarizeScan(files []*File, o WindowSummaryOptions) (*WindowSummary, error) {
	g := NewBinGrid(o.Lo, o.Hi, o.Bins)
	mo := MapOptions{Parallel: o.Parallel, Window: true, Lo: o.Lo, Hi: o.Hi, Context: o.Context}
	selected, err := selectAll(files, mo)
	if err != nil {
		return nil, err
	}
	n := max(1, min(par.Workers(o.Parallel, math.MaxInt), MaxSummaryCells/scanAccRows/o.Bins))
	accs, frames, err := scanInto(files, selected, mo, g, o, n)
	if errors.Is(err, errShare) {
		accs, frames, err = scanInto(files, selected, mo, g, o, 1)
	}
	if err != nil {
		return nil, err
	}
	if len(accs) == 0 {
		accs = append(accs, newBinAcc(o, MaxSummaryCells))
	}
	total := accs[0]
	total.limit = MaxSummaryCells
	for _, a := range accs[1:] {
		if err := total.merge(a); err != nil {
			return nil, err
		}
	}
	ws := total.finish(g, sweepPeaks(g.bounds, total.starts, total.ends))
	ws.Engine = "scan"
	ws.FramesDecoded = frames
	return ws, nil
}

// scanInto maps the selected frames into at most n accumulators of a
// 1/n share of MaxSummaryCells each (n = 1: the whole budget) and
// returns the ones it made, with the number of frames mapped.
func scanInto(files []*File, selected [][]FrameEntry, mo MapOptions, g *BinGrid, o WindowSummaryOptions, n int) ([]*binAcc, int, error) {
	// The endpoints of the window's busy intervals are at most the records
	// of the frames it selects (counts the directory holds, bounded by the
	// file's size): each accumulator starts with room for its share, so
	// the adds do not regrow the endpoint columns — a lone accumulator
	// never does.
	records := 0
	for _, fes := range selected {
		for _, fe := range fes {
			records += int(fe.Records)
		}
	}
	share := (records + n - 1) / n
	// accs holds every accumulator not inside a map call, and nil for
	// each one not made yet; a map call waits for one.
	accs := make(chan *binAcc, n)
	for range n {
		accs <- nil
	}
	frames := 0
	err := mapSelected(files, selected, mo,
		func(_ int, fr *Frame) (struct{}, error) {
			b, err := fr.Batch()
			if err != nil {
				return struct{}{}, err
			}
			a := <-accs
			if a == nil {
				a = newBinAcc(o, MaxSummaryCells/n)
				a.starts, a.ends = make([]clock.Time, 0, share), make([]clock.Time, 0, share)
			}
			err = a.addBatch(b, g)
			accs <- a
			return struct{}{}, err
		},
		func(int, FrameEntry, struct{}) error {
			// Counted from the selection: every selected frame is read.
			frames++
			return nil
		})
	if err != nil {
		return nil, 0, err
	}
	close(accs)
	var made []*binAcc
	for a := range accs {
		if a != nil {
			made = append(made, a)
		}
	}
	return made, frames, nil
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
	a := newBinAcc(o, MaxSummaryCells)
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
					row, err := a.row(&a.types, uint32(tb.Type))
					if err != nil {
						return nil, err
					}
					row[bi] += tb.Busy
				}
				for _, lb := range c.ByLane {
					if a.noLanes {
						break // no lane rows kept
					}
					row, err := a.row(&a.lanes, lb.Lane.key())
					if err != nil {
						return nil, err
					}
					row[bi] += lb.Busy
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
// frame source under the empty memo key, which memoizes nothing, or
// decoded into one pooled batch — and each of its records, clipped to the window, adds its busy
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
	// reach returns the remainders a frame overlaps, rems[lo:hi]: the
	// frame is fetched when there are any, and its records go to those
	// alone. The hull's other frames lie between remainders — the
	// interior of a window whose first and last bins have one is all of
	// them.
	reach := func(fe FrameEntry) (lo, hi int) {
		lo, hi = remAfter(rems, fe.Start), remAfter(rems, fe.End)
		if hi < len(rems) && rems[hi].r0 <= fe.End {
			hi++
		}
		return lo, hi
	}
	records := 0
	for _, fe := range hull {
		if lo, hi := reach(fe); hi > lo {
			records += int(fe.Records)
		}
	}
	// The clipped endpoints of every busy interval reaching a remainder,
	// each interval once however many it reaches, in buffers a warm query
	// reuses — with room for every record of the fetched frames made once,
	// as the scan makes it, so the appends never regrow them.
	eps := endpointPool.Get().(*endpoints)
	defer endpointPool.Put(eps)
	starts, ends := slices.Grow(eps.starts[:0], records), slices.Grow(eps.ends[:0], records)
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
			trow, err := a.row(&a.types, uint32(typ))
			if err != nil {
				return nil, 0, err
			}
			var lrow []clock.Time
			if busy {
				if !a.noLanes {
					if lrow, err = a.row(&a.lanes, Lane{Node: b.Node[ri], CPU: b.CPU[ri]}.key()); err != nil {
						return nil, 0, err
					}
				}
				starts, ends = append(starts, cs), append(ends, ce)
			}
			for ; k < len(near) && near[k].r0 < ce; k++ {
				rs := &near[k]
				ov := min(ce, rs.r1) - max(cs, rs.r0)
				trow[rs.bin] += ov
				if lrow != nil {
					lrow[rs.bin] += ov
				}
			}
		}
		return nil, 0, nil
	}
	frames := 0
	for _, fe := range hull {
		lo, hi := reach(fe)
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
