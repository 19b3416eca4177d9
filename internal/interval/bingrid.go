package interval

import (
	"math/bits"

	"tracefw/internal/clock"
)

// DefaultBins is the bin count of every binned whole-run view whose
// caller names none: the SLOG preview, uteview -preview, and the
// predefined statistics tables (the granularity of the paper's Figures 6
// and 7).
const DefaultBins = 50

// BinEdge returns edge i (0 <= i <= bins) of bins equal bins over
// [lo, hi]: lo + (span/bins)*i + (span%bins)*i/bins, in integer
// nanoseconds — the one formula for where a bin starts. Edge 0 is lo,
// edge bins is hi, and widths are within one nanosecond of each other.
// Neither product can overflow: the first is at most the span, the
// second below bins².
func BinEdge(lo, hi clock.Time, bins, i int) clock.Time {
	span := int64(hi - lo)
	q, r := span/int64(bins), span%int64(bins)
	return lo + clock.Time(q*int64(i)+r*int64(i)/int64(bins))
}

// BinGrid is the bin ruler: the edges of bins equal bins over [lo, hi]
// (BinEdge), the bin holding an instant, and the walk of a span over the
// bins it overlaps. Bins are half-open [edge i, edge i+1). Every binned
// view of a run — SummarizeWindow's engines, the SLOG preview, the
// preview renderers — reads its bins from here.
type BinGrid struct {
	lo, hi clock.Time
	span   int64
	bounds []clock.Time
}

// NewBinGrid returns the ruler of bins (>= 1) equal bins over [lo, hi].
func NewBinGrid(lo, hi clock.Time, bins int) *BinGrid {
	g := &BinGrid{lo: lo, hi: hi, span: int64(hi - lo), bounds: make([]clock.Time, bins+1)}
	for i := range g.bounds {
		g.bounds[i] = BinEdge(lo, hi, bins, i)
	}
	return g
}

// Bins returns the bin count.
func (g *BinGrid) Bins() int { return len(g.bounds) - 1 }

// scaleBin returns off*bins/span clamped to [0, bins-1], for span > 0
// and bins >= 1: the first guess at the bin holding an offset into the
// span. The product is taken in 128 bits — in 64 it overflows once bins
// times the span in nanoseconds passes 2^63, a 33 s run at 3·10^8 bins.
func scaleBin(off, span int64, bins int) int {
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

// BinOf returns the bin holding t, clamped to the grid.
func (g *BinGrid) BinOf(t clock.Time) int {
	if g.span <= 0 {
		return 0
	}
	i := scaleBin(int64(t-g.lo), g.span, g.Bins())
	for i > 0 && t < g.bounds[i] {
		i--
	}
	for i < g.Bins()-1 && t >= g.bounds[i+1] {
		i++
	}
	return i
}

// Overlaps starts the walk of the span [s, e), clipped to [lo, hi), over
// the bins it reaches, left to right:
//
//	for o := g.Overlaps(s, e); o.Next(); {
//		row[o.Bin] += o.Dur
//	}
//
// The overlaps of a span inside the grid add up to its length exactly.
func (g *BinGrid) Overlaps(s, e clock.Time) Overlap {
	s, e = max(s, g.lo), min(e, g.hi)
	return Overlap{g: g, s: s, e: e, Bin: g.BinOf(s) - 1}
}

// Overlap is one step of a span's walk over a BinGrid (Overlaps).
type Overlap struct {
	g    *BinGrid
	s, e clock.Time
	// Bin is the bin reached; Dur is the span's overlap with it — zero for
	// a zero-width bin the span reaches across (only a grid narrower in
	// nanoseconds than its bin count has those).
	Bin int
	Dur clock.Time
}

// Next advances to the next bin the span reaches; false once it has none
// left (at once for an empty span).
func (o *Overlap) Next() bool {
	o.Bin++
	b := o.g.bounds
	if o.s >= o.e || o.Bin >= len(b)-1 || b[o.Bin] >= o.e {
		return false
	}
	o.Dur = min(o.e, b[o.Bin+1]) - max(o.s, b[o.Bin])
	return true
}
