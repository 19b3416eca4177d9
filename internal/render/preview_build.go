package render

// BuildPreview computes the whole-run (or windowed) preview histogram
// directly from a merged interval file, without a SLOG build: the bins
// come from interval.SummarizeWindow, so a file with a summary pyramid
// answers in O(bins) cells and a file without one falls back to the
// frame-scan engine — byte-identically, per the interval package's
// differential suite. The result plugs into the same PreviewSVG /
// PreviewASCII renderers as a SLOG file's stored preview.

import (
	"context"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/slog"
)

// PreviewOptions configures BuildPreview.
type PreviewOptions struct {
	// Bins is the number of time buckets; <= 0 means interval.DefaultBins.
	Bins int
	// T0/T1 select the window; T1 <= T0 selects the whole run.
	T0, T1 clock.Time
	// Context, when non-nil, aborts construction between frames.
	Context context.Context
}

// PreviewResult is a built preview plus the observability the query
// planner reports: which engine answered and what it cost.
type PreviewResult struct {
	Preview *slog.Preview
	// Engine is "pyramid" or "scan".
	Engine string
	// CellsUsed counts pyramid cells consulted (0 on the scan engine).
	CellsUsed int
	// FramesDecoded counts the frames the query fetched.
	FramesDecoded int
}

// BuildPreview renders the preview histogram of a merged interval file.
// Over the whole run its durations are a SLOG file's stored preview of the
// same file, cell for cell (both bin by interval.BinGrid); unlike the
// stored one the call-count column is not carried (Count stays zero), and
// no renderer draws it.
func BuildPreview(mf *interval.File, opts PreviewOptions) (*PreviewResult, error) {
	bins := opts.Bins
	if bins <= 0 {
		bins = interval.DefaultBins
	}
	t0, t1 := opts.T0, opts.T1
	if t1 <= t0 {
		fs, fe, _, err := mf.Stats()
		if err != nil {
			return nil, err
		}
		t0, t1 = fs, fe
		if t1 <= t0 {
			t1 = t0 + 1 // degenerate runs still get a well-formed axis
		}
	}
	ws, err := interval.SummarizeWindow([]*interval.File{mf}, interval.WindowSummaryOptions{
		Bins:    bins,
		Lo:      t0,
		Hi:      t1,
		Context: opts.Context,
	})
	if err != nil {
		return nil, err
	}
	p := &slog.Preview{
		TStart: t0,
		TEnd:   t1,
		States: events.StateTypes,
		Dur:    make([][]clock.Time, len(events.StateTypes)),
		Count:  make([]int64, len(events.StateTypes)),
	}
	for si, ty := range events.StateTypes {
		row := make([]clock.Time, bins)
		for bi := range ws.Bins {
			row[bi] = ws.Bins[bi].BusyByType[ty]
		}
		p.Dur[si] = row
	}
	return &PreviewResult{
		Preview:       p,
		Engine:        ws.Engine,
		CellsUsed:     ws.CellsUsed,
		FramesDecoded: ws.FramesDecoded,
	}, nil
}
