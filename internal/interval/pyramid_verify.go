package interval

// Sampled cross-validation of a summary pyramid against the frames it
// claims to summarize — the check utility's defense against a sidecar
// whose CRCs and signature pass but whose cells no longer (or never
// did) match the data. Each sampled base cell is recomputed two ways:
// the pyramid engine answers the cell-aligned window from the stored
// summaries, the scan engine from a frame decode, and the two must
// agree exactly (the same contract the differential test suite pins
// down for arbitrary windows).

import (
	"fmt"
	"reflect"

	"tracefw/internal/clock"
)

// verifyCells is the sample size VerifyPyramid aims at: base cells are
// sampled evenly across the stored range.
const verifyCells = 16

// VerifyPyramid cross-validates p against f's frames on a sample of
// base cells and returns how many cells it checked. An error means the
// stored summaries diverge from a frame recompute (or the frames could
// not be read) — callers should treat the sidecar as damaged and
// rebuild it.
func (f *File) VerifyPyramid(p *Pyramid) (int, error) {
	if len(p.Levels) == 0 {
		return 0, nil
	}
	base := p.Levels[0]
	step := max(1, len(base.Cells)/verifyCells)
	checked := 0
	for i := 0; i < len(base.Cells); i += step {
		c := base.First + int64(i)
		lo := clock.Time(c) * base.Width
		if err := f.compareCellWindow(p, lo, lo+base.Width); err != nil {
			return checked, fmt.Errorf("interval: pyramid cell %d [%v .. %v): %w", c, lo, lo+base.Width, err)
		}
		checked++
	}
	return checked, nil
}

// compareCellWindow summarizes one cell-aligned window on both engines
// and compares everything but the engine metadata.
func (f *File) compareCellWindow(p *Pyramid, lo, hi clock.Time) error {
	o := WindowSummaryOptions{Bins: 1, Lo: lo, Hi: hi}
	pyr, err := summarizePyramid(f, p, o)
	if err != nil {
		return err
	}
	scan, err := summarizeScan([]*File{f}, o)
	if err != nil {
		return err
	}
	for _, ws := range []*WindowSummary{pyr, scan} {
		ws.Engine, ws.CellsUsed, ws.FramesDecoded = "", 0, 0
	}
	if !reflect.DeepEqual(pyr, scan) {
		return fmt.Errorf("stored cells disagree with frame recompute")
	}
	return nil
}
