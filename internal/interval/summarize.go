package interval

// SummarizeWindow answers a binned window query — per-bin busy time by
// type and by lane, start counts, peak concurrency, plus a window-wide
// top-k and lane list — from either of two engines that are proven
// byte-identical on every input:
//
//   - scan: decode every frame overlapping the window and accumulate,
//     the reference implementation (O(records in window)).
//   - pyramid: partition every bin into maximal aligned pyramid cells
//     plus at most two sub-base-width edge remainders, answer the
//     aligned interior from cell summaries, and decode frames only for
//     the remainders (O(bins) cells; zero frame decodes when the
//     window and bin bounds land on base-cell boundaries).
//
// Identity argument, in brief: busy overlap and start counts are
// additive over any partition of a bin; the peak concurrency of a bin
// is the supremum of the (right-continuous) concurrency step function
// over the bin, which is the max of the suprema over the partition's
// parts — cell MaxConc for whole cells, a local sweep over the edge
// frames for remainders; and a distinct interval in the window's top-k
// must be in the top-k of every cell it overlaps. Degenerate bins
// (window span < bin count) have boundary semantics the partition
// cannot reproduce, so the pyramid engine refuses them and auto falls
// back to scan.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sort"

	"tracefw/internal/clock"
	"tracefw/internal/events"
)

// SummaryEngine selects how SummarizeWindow answers.
type SummaryEngine int

const (
	// SummaryAuto answers from the pyramid when one is attached and
	// applicable, silently falling back to the scan engine otherwise.
	// The default.
	SummaryAuto SummaryEngine = iota
	// SummaryPyramid requires the pyramid; the query fails when no
	// usable pyramid is attached.
	SummaryPyramid
	// SummaryScan forces the frame-scan reference engine.
	SummaryScan
)

func (e SummaryEngine) String() string {
	switch e {
	case SummaryPyramid:
		return "pyramid"
	case SummaryScan:
		return "scan"
	default:
		return "auto"
	}
}

// ParseSummaryEngine maps the CLI/HTTP engine names.
func ParseSummaryEngine(s string) (SummaryEngine, error) {
	switch s {
	case "", "auto":
		return SummaryAuto, nil
	case "pyramid":
		return SummaryPyramid, nil
	case "scan":
		return SummaryScan, nil
	}
	return SummaryAuto, fmt.Errorf("interval: unknown summary engine %q (auto, pyramid, scan)", s)
}

// WindowSummaryOptions configures SummarizeWindow.
type WindowSummaryOptions struct {
	// Bins is the number of equal-width time buckets; must be >= 1.
	Bins int
	// Lo/Hi bound the window. Records are clipped to [Lo, Hi]; the
	// effective coverage is the half-open [Lo, Hi). Hi < Lo is an
	// error; callers clamp to run bounds first.
	Lo, Hi clock.Time
	// Engine picks the evaluator; see the SummaryEngine constants.
	Engine SummaryEngine
	// TopK asks for the window's k longest distinct busy intervals;
	// 0 disables the top list. The pyramid engine can only answer
	// TopK up to the pyramid's stored per-cell k.
	TopK int
	// Context, when non-nil, aborts the query between frames.
	Context context.Context
}

// BinSummary is one time bucket of a window summary. The maps hold
// only strictly positive entries, so two summaries are comparable with
// reflect.DeepEqual.
type BinSummary struct {
	// Start is the bucket's left bound.
	Start clock.Time
	// Records counts the records (any type, zero-duration included)
	// whose start time lies in the bucket.
	Records int64
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
	// Top is the window's k longest distinct busy intervals (empty
	// when TopK was 0).
	Top []TopInterval
	// Engine reports which engine answered: "pyramid" or "scan".
	Engine string
	// CellsUsed counts pyramid cells consulted (0 on the scan engine).
	CellsUsed int
	// FramesDecoded counts frames this query decoded: all overlapping
	// frames on the scan engine, only edge-remainder frames on the
	// pyramid engine.
	FramesDecoded int
}

// binBound mirrors the stats bucket ruler exactly: bound(i) = lo +
// (span/bins)*i + (span%bins)*i/bins, giving bound(0) = lo,
// bound(bins) = hi, and widths within one nanosecond of each other.
// The two copies must stay identical; the stats differential suite
// compares their outputs byte for byte.
func binBound(lo clock.Time, span int64, bins, i int) clock.Time {
	return lo + clock.Time((span/int64(bins))*int64(i)+(span%int64(bins))*int64(i)/int64(bins))
}

// ScaleBin returns off*bins/span clamped to [0, bins-1], for span > 0
// and bins >= 1: the first guess at the bin holding an offset into the
// span, shared with the stats bucket ruler. The product is taken in 128
// bits — in 64 it overflows once bins times the span in nanoseconds
// passes 2^63, a 33 s run at 3·10^8 bins.
func ScaleBin(off, span int64, bins int) int {
	if off <= 0 {
		return 0
	}
	if off >= span {
		return bins - 1
	}
	hi, lo := bits.Mul64(uint64(off), uint64(bins))
	q, _ := bits.Div64(hi, lo, uint64(span)) // off < span, so q < bins: no overflow
	return int(q)
}

func binOf(lo clock.Time, span int64, bins int, t clock.Time) int {
	if span <= 0 {
		return 0
	}
	i := ScaleBin(int64(t-lo), span, bins)
	for i > 0 && t < binBound(lo, span, bins, i) {
		i--
	}
	for i < bins-1 && t >= binBound(lo, span, bins, i+1) {
		i++
	}
	return i
}

// SummarizeWindow computes the window summary; see the package comment
// above for engine selection and the exactness contract.
func (f *File) SummarizeWindow(o WindowSummaryOptions) (*WindowSummary, error) {
	if o.Bins < 1 {
		return nil, fmt.Errorf("interval: summarize needs at least 1 bin, got %d", o.Bins)
	}
	if o.Hi < o.Lo {
		return nil, fmt.Errorf("interval: summarize window [%d, %d] is inverted", o.Lo, o.Hi)
	}
	if o.TopK < 0 {
		return nil, fmt.Errorf("interval: summarize top-k %d is negative", o.TopK)
	}
	switch o.Engine {
	case SummaryScan:
		return f.summarizeScan(o)
	case SummaryPyramid:
		if reason := f.pyramidUsable(o); reason != "" {
			return nil, fmt.Errorf("interval: pyramid engine unavailable: %s", reason)
		}
		return f.summarizePyramid(o)
	default:
		if f.pyramidUsable(o) == "" {
			return f.summarizePyramid(o)
		}
		return f.summarizeScan(o)
	}
}

// pyramidUsable reports why the pyramid engine cannot answer o, or ""
// when it can. Degenerate windows (span < bins means some buckets are
// empty; their boundary semantics depend on event positions, not
// ranges) and over-long top-k requests fall back to scan.
func (f *File) pyramidUsable(o WindowSummaryOptions) string {
	p := f.pyr
	if p == nil {
		return "no pyramid attached"
	}
	if len(p.Levels) == 0 {
		return "pyramid is empty"
	}
	if int64(o.Hi-o.Lo) < int64(o.Bins) {
		return "window narrower than bin count"
	}
	if o.TopK > p.TopK {
		return fmt.Sprintf("top-k %d exceeds pyramid's %d", o.TopK, p.TopK)
	}
	return ""
}

// summaryAcc accumulates one window summary under construction.
type summaryAcc struct {
	lo, hi clock.Time
	span   int64
	bins   []BinSummary
	tops   []TopInterval
}

func newSummaryAcc(o WindowSummaryOptions) *summaryAcc {
	a := &summaryAcc{lo: o.Lo, hi: o.Hi, span: int64(o.Hi - o.Lo), bins: make([]BinSummary, o.Bins)}
	for i := range a.bins {
		a.bins[i].Start = binBound(o.Lo, a.span, o.Bins, i)
	}
	return a
}

func (a *summaryAcc) addBusy(bi int, typ events.Type, v clock.Time) {
	b := &a.bins[bi]
	if b.BusyByType == nil {
		b.BusyByType = map[events.Type]clock.Time{}
	}
	b.BusyByType[typ] += v
}

func (a *summaryAcc) addLane(bi int, lane Lane, v clock.Time) {
	b := &a.bins[bi]
	if b.BusyByLane == nil {
		b.BusyByLane = map[Lane]clock.Time{}
	}
	b.BusyByLane[lane] += v
}

// finish derives the window-wide lane list and top-k.
func (a *summaryAcc) finish(o WindowSummaryOptions) *WindowSummary {
	laneSet := map[Lane]bool{}
	for i := range a.bins {
		for l := range a.bins[i].BusyByLane {
			laneSet[l] = true
		}
	}
	lanes := make([]Lane, 0, len(laneSet))
	for l := range laneSet {
		lanes = append(lanes, l)
	}
	sort.Slice(lanes, func(i, j int) bool { return lanes[i].key() < lanes[j].key() })
	return &WindowSummary{
		Lo: a.lo, Hi: a.hi,
		Bins:  a.bins,
		Lanes: lanes,
		Top:   mergeTop(a.tops, o.TopK),
	}
}

// summaryEvent is one endpoint of a clipped busy interval.
type summaryEvent struct {
	t clock.Time
	d int
}

func sortSummaryEvents(evs []summaryEvent) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].d < evs[j].d
	})
}

// summarizeScan is the reference engine: decode every frame
// overlapping the window and accumulate per-record. Its concurrency
// loop is a copy of the stats sweep so the two stay byte-identical.
func (f *File) summarizeScan(o WindowSummaryOptions) (*WindowSummary, error) {
	a := newSummaryAcc(o)
	t0, t1 := o.Lo, o.Hi
	// Count the frames this query materializes from metadata, so the
	// number is deterministic even when a shared cache absorbs decodes.
	wfes, err := f.FramesInWindow(t0, t1)
	if err != nil {
		return nil, err
	}
	nFrames := len(wfes)
	var evs []summaryEvent
	sc := f.ScanWindow(t0, t1)
	if o.Context != nil {
		sc.SetContext(o.Context)
	}
	var r Record
	for {
		if err := sc.NextRecordInto(&r); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, err
		}
		a.addRecord(&r, o)
		if s, e := max(r.Start, t0), min(r.Start+r.Dura, t1); s < e && busyType(r.Type) {
			evs = append(evs, summaryEvent{s, +1}, summaryEvent{e, -1})
		}
	}
	sortSummaryEvents(evs)
	a.sweepBins(evs)
	ws := a.finish(o)
	ws.Engine = "scan"
	ws.FramesDecoded = nFrames
	return ws, nil
}

// addRecord applies one record's count, busy, and top contributions to
// the whole window.
func (a *summaryAcc) addRecord(r *Record, o WindowSummaryOptions) {
	if r.Dura < 0 {
		return
	}
	s, e := r.Start, r.Start+r.Dura
	if s >= a.lo && s < a.hi {
		a.bins[binOf(a.lo, a.span, o.Bins, s)].Records++
	}
	cs, ce := max(s, a.lo), min(e, a.hi)
	if cs >= ce {
		return
	}
	busy := busyType(r.Type)
	lane := Lane{Node: r.Node, CPU: r.CPU}
	for bi := binOf(a.lo, a.span, o.Bins, cs); bi < o.Bins && binBound(a.lo, a.span, o.Bins, bi) < ce; bi++ {
		ov := min(ce, binBound(a.lo, a.span, o.Bins, bi+1)) - max(cs, binBound(a.lo, a.span, o.Bins, bi))
		a.addBusy(bi, r.Type, ov)
		if busy {
			a.addLane(bi, lane, ov)
		}
	}
	if busy && o.TopK > 0 {
		a.tops = append(a.tops, TopInterval{Start: s, Dura: r.Dura, Type: r.Type, Node: r.Node, CPU: r.CPU, Thread: r.Thread})
		if len(a.tops) >= 4*o.TopK {
			a.tops = mergeTop(a.tops, o.TopK)
		}
	}
}

// sweepBins fills PeakConc from a sorted global event list — the exact
// loop of the stats concurrency table, entry semantics included.
func (a *summaryAcc) sweepBins(evs []summaryEvent) {
	bins := len(a.bins)
	cur, ei := 0, 0
	for bi := 0; bi < bins; bi++ {
		hi := binBound(a.lo, a.span, bins, bi+1)
		if bi == bins-1 {
			hi = binBound(a.lo, a.span, bins, bins) + 1 // last bucket closed on the right
		}
		p := -1
		if ei >= len(evs) || evs[ei].t > binBound(a.lo, a.span, bins, bi) {
			p = cur
		}
		for ei < len(evs) && evs[ei].t < hi {
			at := evs[ei].t
			for ei < len(evs) && evs[ei].t == at {
				cur += evs[ei].d
				ei++
			}
			p = max(p, cur)
		}
		a.bins[bi].PeakConc = max(p, 0)
	}
}

// remSpan is one sub-base-width edge remainder of a bin.
type remSpan struct {
	bin    int
	r0, r1 clock.Time
}

// summarizePyramid is the O(bins) engine; see the package comment for
// the partition and the identity argument.
func (f *File) summarizePyramid(o WindowSummaryOptions) (*WindowSummary, error) {
	p := f.pyr
	a := newSummaryAcc(o)
	w := int64(p.BaseWidth)
	cellsUsed := 0
	var rems []remSpan
	for bi := 0; bi < o.Bins; bi++ {
		b0 := a.bins[bi].Start
		b1 := binBound(a.lo, a.span, o.Bins, bi+1)
		// Align the interior to the base grid: ia rounds b0 up, ib
		// rounds b1 down.
		ia := clock.Time(floorDivTime(b0+clock.Time(w-1), p.BaseWidth) * w)
		ib := clock.Time(floorDivTime(b1, p.BaseWidth) * w)
		if ia >= ib {
			rems = append(rems, remSpan{bin: bi, r0: b0, r1: b1})
			a.bins[bi].PeakConc = -1
			continue
		}
		if b0 < ia {
			rems = append(rems, remSpan{bin: bi, r0: b0, r1: ia})
		}
		if ib < b1 {
			rems = append(rems, remSpan{bin: bi, r0: ib, r1: b1})
		}
		pk := -1
		x := ia
		for x < ib {
			lvl, idx := p.coarsestCell(x, ib)
			cellsUsed++
			if c := p.Levels[lvl].Cell(idx); c != nil {
				a.bins[bi].Records += c.Records
				pk = max(pk, c.MaxConc)
				for _, tb := range c.ByType {
					a.addBusy(bi, tb.Type, tb.Busy)
				}
				for _, lb := range c.ByLane {
					a.addLane(bi, lb.Lane, lb.Busy)
				}
				if o.TopK > 0 && len(c.Top) > 0 {
					a.tops = append(a.tops, c.Top...)
				}
			} else {
				pk = max(pk, 0)
			}
			x += p.Levels[lvl].Width
		}
		a.bins[bi].PeakConc = pk
	}
	framesDecoded, err := f.resolveRemainders(a, rems, o)
	if err != nil {
		return nil, err
	}
	// Bins whose peak never got a contribution (possible only when the
	// whole bin was remainders that found no events) floor at zero,
	// matching the scan sweep's final clamp.
	for i := range a.bins {
		a.bins[i].PeakConc = max(a.bins[i].PeakConc, 0)
	}
	if o.TopK > 0 {
		a.tops = mergeTop(a.tops, o.TopK)
	}
	ws := a.finish(o)
	ws.Engine = "pyramid"
	ws.CellsUsed = cellsUsed
	ws.FramesDecoded = framesDecoded
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

// resolveRemainders answers the edge spans from frame decodes: every
// frame overlapping a remainder is decoded once (through the file's
// frame-decode hook, so a serving cache absorbs repeats), its records
// are clipped to the window, and counts, busy overlap, top candidates,
// and a local concurrency sweep are applied per span.
func (f *File) resolveRemainders(a *summaryAcc, rems []remSpan, o WindowSummaryOptions) (int, error) {
	if len(rems) == 0 {
		return 0, nil
	}
	type frameRef struct {
		fe FrameEntry
		b  *Batch
	}
	frames := map[int64]*frameRef{}
	order := []int64{}
	spanFrames := make([][]int64, len(rems))
	// One directory walk answers every remainder: enumerate the frames
	// overlapping the remainders' hull once, then filter per span in
	// memory with FramesInWindow's exact predicate (the window is
	// closed; [r0, r1) needs End >= r0 and Start <= r1-1). A walk per
	// remainder would re-read directory headers from disk O(bins)
	// times and dominate deep-zoom queries.
	hullLo, hullHi := rems[0].r0, rems[0].r1
	for _, rs := range rems[1:] {
		hullLo, hullHi = min(hullLo, rs.r0), max(hullHi, rs.r1)
	}
	hull, err := f.FramesInWindow(hullLo, hullHi-1)
	if err != nil {
		return 0, err
	}
	for i, rs := range rems {
		for _, fe := range hull {
			if fe.End < rs.r0 || fe.Start > rs.r1-1 {
				continue
			}
			if _, ok := frames[fe.Offset]; !ok {
				frames[fe.Offset] = &frameRef{fe: fe}
				order = append(order, fe.Offset)
			}
			spanFrames[i] = append(spanFrames[i], fe.Offset)
		}
	}
	for _, off := range order {
		if o.Context != nil {
			if err := o.Context.Err(); err != nil {
				return 0, err
			}
		}
		fr := frames[off]
		if fr.b, err = f.FrameBatch(fr.fe); err != nil {
			return 0, err
		}
	}
	var evs []summaryEvent
	for i, rs := range rems {
		evs = evs[:0]
		for _, off := range spanFrames[i] {
			b := frames[off].b
			for ri := 0; ri < b.N; ri++ {
				typ, dura := b.Type[ri], b.Dura[ri]
				if dura < 0 {
					continue
				}
				s, e := b.Start[ri], b.Start[ri]+dura
				if s >= rs.r0 && s < rs.r1 {
					a.bins[rs.bin].Records++
				}
				cs, ce := max(s, a.lo), min(e, a.hi)
				if cs >= ce {
					continue
				}
				busy := busyType(typ)
				lo, hi := max(cs, rs.r0), min(ce, rs.r1)
				if lo < hi {
					a.addBusy(rs.bin, typ, hi-lo)
					if busy {
						a.addLane(rs.bin, Lane{Node: b.Node[ri], CPU: b.CPU[ri]}, hi-lo)
					}
				}
				if busy && ce > rs.r0 && cs < rs.r1 {
					evs = append(evs, summaryEvent{cs, +1}, summaryEvent{ce, -1})
					if o.TopK > 0 && lo < hi {
						a.tops = append(a.tops, TopInterval{Start: s, Dura: dura, Type: typ, Node: b.Node[ri], CPU: b.CPU[ri], Thread: b.Thread[ri]})
					}
				}
			}
		}
		// Local sweep: entry concurrency at r0 (all events at or before
		// it net out to the covering count), then the peak inside.
		sortSummaryEvents(evs)
		cur, ei := 0, 0
		for ei < len(evs) && evs[ei].t <= rs.r0 {
			cur += evs[ei].d
			ei++
		}
		pk := cur
		for ei < len(evs) && evs[ei].t < rs.r1 {
			cur += evs[ei].d
			ei++
			pk = max(pk, cur)
		}
		a.bins[rs.bin].PeakConc = max(a.bins[rs.bin].PeakConc, pk)
	}
	return len(order), nil
}
