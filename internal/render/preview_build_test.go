package render_test

// Differential and regression tests for BuildPreview (the merged-file
// preview path) and the empty-window placeholders: the same trace opened
// with and without its sidecar must render byte-identical documents —
// each reporting the engine expected to have answered — and a window
// that overlaps no records must produce the placeholder note, never an
// axis-only or full-run document.

import (
	"strings"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/mpisim"
	"tracefw/internal/render"
	"tracefw/internal/slog"
	"tracefw/internal/testutil"
)

// pyramidPair is a trace on disk, opened with its sidecar and without:
// merged's machine running its workload ten times over, so that a
// 128-cell sidecar weighs less than the trace.
func pyramidPair(t *testing.T) (with, without *interval.File) {
	t.Helper()
	raws := testutil.RunWorkload(t, shape, func(p *mpisim.Proc) {
		for i := 0; i < 10; i++ {
			sppmish(p)
		}
	})
	files := testutil.ConvertRun(t, raws, interval.WriterOptions{})
	path := testutil.MergeToDisk(t, files, merge.Options{Writer: interval.WriterOptions{FrameBytes: 2048}})
	return testutil.OpenSidecarPair(t, path, interval.PyramidOptions{BaseCells: 128})
}

// preview builds a preview and requires the named engine to have
// answered it.
func preview(t *testing.T, mf *interval.File, opts render.PreviewOptions, engine string) *render.PreviewResult {
	t.Helper()
	res, err := render.BuildPreview(mf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != engine {
		t.Fatalf("preview answered by %q, want %q", res.Engine, engine)
	}
	return res
}

func TestBuildPreviewDifferential(t *testing.T) {
	mf, bare := pyramidPair(t)
	t0, t1, _, err := mf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	span := t1 - t0
	for _, tc := range []struct {
		name   string
		bins   int
		lo, hi clock.Time
	}{
		{"full-default", 0, 0, 0},
		{"full-64", 64, 0, 0},
		{"interior", 30, t0 + span/4, t0 + 3*span/4},
		{"odd", 17, t0 + 13, t1 - 7},
		{"overhang", 25, t0 - span, t1 + span},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := render.PreviewOptions{Bins: tc.bins, T0: tc.lo, T1: tc.hi}
			pyr := preview(t, mf, opts, "pyramid")
			scan := preview(t, bare, opts, "scan")
			if pyr.CellsUsed == 0 {
				t.Fatal("pyramid engine consulted no cells")
			}
			if scan.CellsUsed != 0 || scan.FramesDecoded == 0 {
				t.Fatalf("scan engine reports %d cells, %d frames", scan.CellsUsed, scan.FramesDecoded)
			}
			if got, want := render.PreviewSVG(pyr.Preview), render.PreviewSVG(scan.Preview); got != want {
				t.Errorf("SVG differs between engines")
			}
			if got, want := render.PreviewASCII(pyr.Preview, 60), render.PreviewASCII(scan.Preview, 60); got != want {
				t.Errorf("ASCII differs between engines:\npyramid:\n%s\nscan:\n%s", got, want)
			}
		})
	}
}

// TestBuildPreviewRemainderRouting: every bin narrower than the base
// width, so the pyramid answers each one from frame decodes alone, over
// a trace whose outer marker state spans every one of those remainders —
// for the whole run and for a window clipping records at both ends. The
// remainders tile the window, so the pyramid decodes exactly the frames
// the scan does.
func TestBuildPreviewRemainderRouting(t *testing.T) {
	raws := testutil.RunWorkload(t, shape, func(p *mpisim.Proc) {
		outer := p.DefineMarker("outer")
		p.MarkerBegin(outer)
		for i := 0; i < 10; i++ {
			sppmish(p)
		}
		p.MarkerEnd(outer)
	})
	files := testutil.ConvertRun(t, raws, interval.WriterOptions{})
	path := testutil.MergeToDisk(t, files, merge.Options{Writer: interval.WriterOptions{FrameBytes: 2048}})
	mf, bare := testutil.OpenSidecarPair(t, path, interval.PyramidOptions{BaseCells: 128})
	t0, t1, _, err := mf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	span, w := t1-t0, mf.Pyramid().BaseWidth
	for _, tc := range []struct {
		name   string
		bins   int
		lo, hi clock.Time
	}{
		{"full-512", 512, 0, 0},
		{"clipped-100", 100, t0 + span/3 + 7, t0 + span/3 + 7 + 20*w},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := render.PreviewOptions{Bins: tc.bins, T0: tc.lo, T1: tc.hi}
			pyr := preview(t, mf, opts, "pyramid")
			scan := preview(t, bare, opts, "scan")
			if pyr.CellsUsed != 0 || pyr.FramesDecoded == 0 || pyr.FramesDecoded != scan.FramesDecoded {
				t.Fatalf("pyramid %d cells/%d frames, scan %d frames", pyr.CellsUsed, pyr.FramesDecoded, scan.FramesDecoded)
			}
			if got, want := render.PreviewSVG(pyr.Preview), render.PreviewSVG(scan.Preview); got != want {
				t.Errorf("SVG differs between engines")
			}
		})
	}
}

func TestBuildPreviewWithoutPyramidScans(t *testing.T) {
	res := preview(t, merged(t), render.PreviewOptions{}, "scan")
	if res.FramesDecoded == 0 {
		t.Fatal("scan decoded no frames")
	}
	svg := render.PreviewSVG(res.Preview)
	if strings.Count(svg, "<rect") < 10 {
		t.Fatalf("preview svg too empty:\n%s", svg)
	}
}

// TestBuildPreviewEmptyWindow: a window beyond the run must render the
// placeholder note — not an axis-only document and (the old bug) not
// the full run after inverted clamping.
func TestBuildPreviewEmptyWindow(t *testing.T) {
	mf, bare := pyramidPair(t)
	_, t1, _, err := mf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for eng, f := range map[string]*interval.File{"pyramid": mf, "scan": bare} {
		res := preview(t, f, render.PreviewOptions{T0: t1 + clock.Second, T1: t1 + 2*clock.Second}, eng)
		svg := render.PreviewSVG(res.Preview)
		if !strings.Contains(svg, "no data in window") {
			t.Fatalf("engine %v: placeholder missing:\n%s", eng, svg)
		}
		if strings.Contains(svg, "<rect") {
			t.Fatalf("engine %v: empty window rendered bars", eng)
		}
		txt := render.PreviewASCII(res.Preview, 40)
		if !strings.Contains(txt, "(no data in window)") {
			t.Fatalf("engine %v: ascii placeholder missing:\n%s", eng, txt)
		}
	}
}

// TestPreviewPlaceholderShapes covers the structural-empty cases the
// renderer must survive: no states, zero bins, all-zero durations.
func TestPreviewPlaceholderShapes(t *testing.T) {
	for _, p := range []*slog.Preview{
		{TStart: 0, TEnd: clock.Second},
		{TStart: 0, TEnd: clock.Second, Dur: [][]clock.Time{}},
		{TStart: 0, TEnd: clock.Second, Dur: [][]clock.Time{make([]clock.Time, 10)}},
	} {
		svg := render.PreviewSVG(p)
		if !strings.Contains(svg, "no data in window") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
			t.Fatalf("placeholder svg malformed:\n%s", svg)
		}
	}
}

// TestDiagramEmptyWindow: a diagram window overlapping no frames must
// render the placeholder, keeping the requested (not inverted) bounds.
func TestDiagramEmptyWindow(t *testing.T) {
	mf := merged(t)
	_, t1, _, err := mf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	d, err := render.BuildDiagram(mf, render.ProcessorActivity,
		render.Options{T0: t1 + clock.Second, T1: t1 + 2*clock.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 0 {
		t.Fatalf("beyond-run window produced %d rows", len(d.Rows))
	}
	svg := d.SVG()
	if !strings.Contains(svg, "no data in window") {
		t.Fatalf("svg placeholder missing:\n%s", svg)
	}
	if strings.Contains(svg, "<rect") {
		t.Fatal("empty diagram rendered segments")
	}
	if !strings.Contains(d.ASCII(40), "(no data in window)") {
		t.Fatalf("ascii placeholder missing:\n%s", d.ASCII(40))
	}
}
