package interval

// Pyramid construction: one pass over the file's frames, as batches,
// accumulates the base level (busy histograms and the endpoints of a
// global concurrency sweep), and every higher level folds pairs of
// children. All accumulation is integer nanoseconds, so the result is a
// pure function of the record set — the property the differential suite
// and utecheck's cell recomputation rely on. The pass reads each batch's
// columns in place and keeps nothing of a batch but values (interval
// endpoints), so it holds to MapFrames' batch-lifetime contract with no
// copies.

import (
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"slices"

	"tracefw/internal/clock"
	"tracefw/internal/events"
)

// PyramidOptions tunes BuildPyramid.
type PyramidOptions struct {
	// BaseCells targets the finest level's cell count: the base width
	// is the smallest power of two covering the run in at most
	// BaseCells cells. <= 0 means 4096.
	BaseCells int
}

// busyType reports whether a record type counts as a busy interval for
// lane time and concurrency: everything except the synthetic Running
// background state and clock records.
func busyType(t events.Type) bool {
	return t != events.EvRunning && t != events.EvGlobalClock
}

// pyrAcc is one cell's accumulation state during a build. A cell sees a
// handful of types, so byType is the cell's own unsorted list, searched
// linearly; lanes can run to hundreds per cell on a wide machine, where a
// dense row per cell would dwarf the trace, so byLane stays a map.
type pyrAcc struct {
	byType []TypeBusy
	byLane map[uint32]clock.Time
}

func (a *pyrAcc) addType(t events.Type, ov clock.Time) {
	for i := range a.byType {
		if a.byType[i].Type == t {
			a.byType[i].Busy += ov
			return
		}
	}
	a.byType = append(a.byType, TypeBusy{Type: t, Busy: ov})
}

// seal converts accumulation state into the canonical cell form.
func (a *pyrAcc) seal(maxConc int) PyramidCell {
	c := PyramidCell{MaxConc: maxConc, ByType: a.byType}
	slices.SortFunc(c.ByType, func(x, y TypeBusy) int { return cmp.Compare(x.Type, y.Type) })
	if len(a.byLane) > 0 {
		c.ByLane = make([]LaneBusy, 0, len(a.byLane))
		for lk, v := range a.byLane {
			c.ByLane = append(c.ByLane, LaneBusy{Lane: Lane{Node: uint16(lk >> 16), CPU: uint16(lk)}, Busy: v})
		}
		slices.SortFunc(c.ByLane, func(x, y LaneBusy) int { return cmp.Compare(x.Lane.key(), y.Lane.key()) })
	}
	return c
}

// PyramidBuilder accumulates a file's pyramid from its frames' batches,
// fed one at a time in file order. BuildPyramid feeds it from its own
// pass over the file; utemerge feeds it the batches of the SLOG build's
// pass over the file it has just written, so one decode serves both.
type PyramidBuilder struct {
	p         *Pyramid
	firstCell int64
	accs      []pyrAcc
	// The endpoints of every busy interval, for the concurrency sweep.
	starts, ends []clock.Time
	// lanes is, per entry of the frame being added's dictionary, the
	// lane key its rows' busy time goes to, or -1 for a type not busy.
	lanes []int64
}

// NewPyramidBuilder fixes the pyramid's geometry and signature from f's
// frame directory; the batches fed to Add must be f's frames, in file
// order.
func NewPyramidBuilder(f *File, opts PyramidOptions) (*PyramidBuilder, error) {
	baseCells := opts.BaseCells
	if baseCells <= 0 {
		baseCells = 4096
	}
	sig, err := f.Signature()
	if err != nil {
		return nil, err
	}
	first, last, nrec, err := f.Stats()
	if err != nil {
		return nil, err
	}
	pb := &PyramidBuilder{p: &Pyramid{BaseWidth: 1, Sig: sig}}
	if nrec == 0 {
		return pb, nil
	}
	span := int64(last - first)
	w := clock.Time(1)
	for span/int64(w) >= int64(baseCells) {
		w <<= 1
	}
	pb.p.BaseWidth = w
	pb.firstCell = floorDivTime(first, w)
	lastCell := floorDivTime(last, w)
	count := lastCell - pb.firstCell + 1
	if count <= 0 || count > int64(2*baseCells)+2 {
		return nil, fmt.Errorf("interval: pyramid base range [%d,%d] is inconsistent", pb.firstCell, lastCell)
	}
	pb.accs = make([]pyrAcc, count)
	// The directory's record count bounds both endpoint lists; sized once,
	// they never leave a half-grown copy behind for the GC, which is what
	// keeps utemerge's high-water mark near the parent's while this build
	// overlaps the SLOG pass.
	pb.starts = make([]clock.Time, 0, nrec)
	pb.ends = make([]clock.Time, 0, nrec)
	return pb, nil
}

// Add accumulates one frame's records. It reads the batch in place and
// keeps nothing of it but values, so the batch may be recycled as soon
// as Add returns.
func (pb *PyramidBuilder) Add(b *Batch) {
	w := pb.p.BaseWidth
	firstCell, count := pb.firstCell, int64(len(pb.accs))
	lastCell := firstCell + count - 1
	pb.lanes = PerEntry(pb.lanes, b, func(k *Key) int64 {
		if !busyType(k.Type) {
			return -1
		}
		return int64(Lane{Node: k.Node, CPU: k.CPU}.key())
	})
	for i := 0; i < b.N; i++ {
		dura := b.Dura[i]
		s, e := b.Start[i], b.Start[i]+dura
		// A negative duration cannot come from the writer; such a record
		// is skipped, exactly as every clipped consumer skips it.
		if dura < 0 || e <= s {
			continue
		}
		typ, lane := b.Key(i).Type, pb.lanes[b.Code[i]]
		if lane >= 0 {
			pb.starts, pb.ends = append(pb.starts, s), append(pb.ends, e)
		}
		lo, hi := floorDivTime(s, w), floorDivTime(e-1, w)
		for ci := max(lo, firstCell); ci <= min(hi, lastCell); ci++ {
			a := &pb.accs[ci-firstCell]
			cLo := clock.Time(ci) * w
			ov := min(e, cLo+w) - max(s, cLo)
			a.addType(typ, ov)
			if lane >= 0 {
				if a.byLane == nil {
					a.byLane = map[uint32]clock.Time{}
				}
				a.byLane[uint32(lane)] += ov
			}
		}
	}
}

// Pyramid finishes the build once every frame has been added: peak
// concurrency from the global endpoint sweep, the base level's cells,
// and every higher level folded from pairs of children. Call it once.
func (pb *PyramidBuilder) Pyramid() *Pyramid {
	p := pb.p
	if len(pb.accs) == 0 {
		return p
	}
	// Every endpoint lies below the last edge, so the sweep closing its
	// last bin on the right changes nothing here.
	w := p.BaseWidth
	edges := make([]clock.Time, len(pb.accs)+1)
	for i := range edges {
		edges[i] = clock.Time(pb.firstCell+int64(i)) * w
	}
	peaks := sweepPeaks(edges, pb.starts, pb.ends)

	base := PyramidLevel{Width: w, First: pb.firstCell, Cells: make([]PyramidCell, len(pb.accs))}
	for i := range pb.accs {
		base.Cells[i] = pb.accs[i].seal(peaks[i])
	}
	p.Levels = []PyramidLevel{base}
	for len(p.Levels) < pyrMaxLevels {
		top := &p.Levels[len(p.Levels)-1]
		// One cell is the root. The two cells either side of time zero are
		// a root too: on a grid anchored at zero no cell holds both, so
		// folding them would only repeat them at twice the width.
		if len(top.Cells) == 1 || top.First == -1 && len(top.Cells) == 2 {
			break
		}
		p.Levels = append(p.Levels, foldLevel(top))
	}
	return p
}

// BuildPyramid computes the summary pyramid of f from its frames. The
// file is read once; the pyramid is bound to the file's current frame
// directory through its signature.
func BuildPyramid(f *File, opts PyramidOptions) (*Pyramid, error) {
	pb, err := NewPyramidBuilder(f, opts)
	if err != nil {
		return nil, err
	}
	// One worker: the accumulation is the work, and it is sequential.
	err = MapFrames([]*File{f}, MapOptions{Parallel: 1},
		func(_ int, fr *Frame) (*Batch, error) { return fr.Batch() },
		func(_ int, _ FrameEntry, b *Batch) error {
			pb.Add(b)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return pb.Pyramid(), nil
}

// foldLevel builds the next-coarser level: parent cell i merges
// children 2i and 2i+1 (absolute indices). Sums stay sums and the peak
// is the max of the children's peaks.
func foldLevel(child *PyramidLevel) PyramidLevel {
	// Arithmetic shift is floor division, so negative indices pair up
	// correctly too.
	pf := child.First >> 1
	pl := (child.First + int64(len(child.Cells)) - 1) >> 1
	out := PyramidLevel{Width: child.Width * 2, First: pf, Cells: make([]PyramidCell, pl-pf+1)}
	for i := range out.Cells {
		pi := pf + int64(i)
		out.Cells[i] = mergeCells(child.Cell(2*pi), child.Cell(2*pi+1))
	}
	return out
}

func mergeCells(a, b *PyramidCell) PyramidCell {
	if a == nil && b == nil {
		return PyramidCell{}
	}
	if b == nil {
		return copyCell(a)
	}
	if a == nil {
		return copyCell(b)
	}
	return PyramidCell{
		MaxConc: max(a.MaxConc, b.MaxConc),
		ByType:  mergeTypeBusy(a.ByType, b.ByType),
		ByLane:  mergeLaneBusy(a.ByLane, b.ByLane),
	}
}

func copyCell(a *PyramidCell) PyramidCell {
	c := *a
	c.ByType = append([]TypeBusy(nil), a.ByType...)
	c.ByLane = append([]LaneBusy(nil), a.ByLane...)
	return c
}

func mergeTypeBusy(a, b []TypeBusy) []TypeBusy {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make([]TypeBusy, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i].Type < b[j].Type):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j].Type < a[i].Type:
			out = append(out, b[j])
			j++
		default:
			out = append(out, TypeBusy{Type: a[i].Type, Busy: a[i].Busy + b[j].Busy})
			i++
			j++
		}
	}
	return out
}

func mergeLaneBusy(a, b []LaneBusy) []LaneBusy {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make([]LaneBusy, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i].Lane.key() < b[j].Lane.key()):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j].Lane.key() < a[i].Lane.key():
			out = append(out, b[j])
			j++
		default:
			out = append(out, LaneBusy{Lane: a[i].Lane, Busy: a[i].Busy + b[j].Busy})
			i++
			j++
		}
	}
	return out
}

// SidecarBuild reports what BuildPyramidSidecar built and how it
// measured against the trace.
type SidecarBuild struct {
	Pyramid *Pyramid
	// Bytes is the sidecar's serialized size, TraceBytes the trace's.
	Bytes, TraceBytes int64
}

// Declined reports that the size rule kept the sidecar off the disk.
func (b *SidecarBuild) Declined() bool { return SidecarOutweighs(b.Bytes, b.TraceBytes) }

// BuildPyramidSidecar opens the trace at tracePath, builds its pyramid,
// and writes the sidecar next to it (atomic temp + rename) — unless the
// sidecar would outweigh the trace, in which case nothing is written
// and a sidecar left by an earlier build is removed. utecheck
// -repair-pyramid and utemerge without -slog call it; utemerge -slog
// feeds a PyramidBuilder from the SLOG's pass instead and writes through
// WritePyramidSidecar.
func BuildPyramidSidecar(tracePath string, opts PyramidOptions) (*SidecarBuild, error) {
	f, err := Open(tracePath, WithPyramid(false))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := BuildPyramid(f, opts)
	if err != nil {
		return nil, err
	}
	return WritePyramidSidecar(tracePath, p, f.Size)
}

// WritePyramidSidecar writes p, built from the traceBytes-byte trace at
// tracePath, as that trace's sidecar under the size rule, exactly as
// BuildPyramidSidecar does.
func WritePyramidSidecar(tracePath string, p *Pyramid, traceBytes int64) (*SidecarBuild, error) {
	data := p.Encode()
	b := &SidecarBuild{Pyramid: p, Bytes: int64(len(data)), TraceBytes: traceBytes}
	if b.Declined() {
		if err := os.Remove(PyramidPath(tracePath)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		return b, nil
	}
	return b, writeSidecar(PyramidPath(tracePath), data)
}
