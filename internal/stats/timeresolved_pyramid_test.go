package stats_test

// Differential tests for the time-resolved tables' two summary
// engines. Nobody picks one: the same trace is opened with and without
// its sidecar, each answer must report the engine that is expected to
// have produced it, and the two must emit byte-identical TSV for all
// three tables on every window and bin count.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/mpisim"
	"tracefw/internal/stats"
	"tracefw/internal/testutil"
)

// pyramidPair is a trace on disk, opened with its sidecar and without:
// mergedFile's machine running work twenty times over, so that a
// 128-cell sidecar weighs less than the trace and small frames give the
// scan something to merge.
func pyramidPair(t *testing.T) (with, without *interval.File) {
	t.Helper()
	raws := testutil.RunWorkload(t, shape, func(p *mpisim.Proc) {
		for i := 0; i < 20; i++ {
			work(p)
		}
	})
	files := testutil.ConvertRun(t, raws, interval.WriterOptions{})
	path := testutil.MergeToDisk(t, files, merge.Options{Writer: interval.WriterOptions{FrameBytes: 2048}})
	return testutil.OpenSidecarPair(t, path, interval.PyramidOptions{BaseCells: 128})
}

// timeResolved runs TimeResolved and requires every table to report
// the named engine, so a silent fallback cannot pass as a pyramid
// answer.
func timeResolved(t *testing.T, files []*interval.File, bins int, opts interval.MapOptions, engine string) []*stats.Table {
	t.Helper()
	tabs, err := stats.TimeResolved(files, bins, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tabs {
		if tb.Engine != engine {
			t.Fatalf("table %s answered by %q, want %q", tb.Name, tb.Engine, engine)
		}
	}
	return tabs
}

func TestTimeResolvedPyramidMatchesScan(t *testing.T) {
	mf, bare := pyramidPair(t)
	t0, t1, _, err := mf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	span := t1 - t0
	for _, tc := range []struct {
		name string
		bins int
		opts interval.MapOptions
	}{
		{"full-1", 1, interval.MapOptions{}},
		{"full-7", 7, interval.MapOptions{}},
		{"full-64", 64, interval.MapOptions{}},
		{"windowed", 9, interval.MapOptions{Window: true, Lo: t0 + span/4, Hi: t0 + span/2}},
		{"odd-window", 13, interval.MapOptions{Window: true, Lo: t0 + 7, Hi: t1 - 13}},
		{"overhang", 5, interval.MapOptions{Window: true, Lo: t0 - span, Hi: t1 + span}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pyr := timeResolved(t, []*interval.File{mf}, tc.bins, tc.opts, "pyramid")
			scan := timeResolved(t, []*interval.File{bare}, tc.bins, tc.opts, "scan")
			if len(pyr) != len(scan) {
				t.Fatalf("table counts differ: %d vs %d", len(pyr), len(scan))
			}
			for i := range pyr {
				if got, want := pyr[i].TSV(), scan[i].TSV(); got != want {
					t.Errorf("table %s differs between engines:\npyramid:\n%s\nscan:\n%s", pyr[i].Name, got, want)
				}
				if pyr[i].CellsUsed == 0 || scan[i].CellsUsed != 0 || scan[i].FramesDecoded == 0 {
					t.Errorf("table %s plans: pyramid %d cells/%d frames, scan %d cells/%d frames", pyr[i].Name,
						pyr[i].CellsUsed, pyr[i].FramesDecoded, scan[i].CellsUsed, scan[i].FramesDecoded)
				}
			}
		})
	}
}

// TestTimeResolvedManyLanes is the differential on a 40 × 4 machine
// running 4 tasks a node (160 lanes): the sidecar kept under the trace's
// size by few base cells, windows and bins on cell bounds and off them,
// the three tables byte-identical from both engines and from the scan
// at any width — and a bin count whose lane rows pass the summary's cell
// budget refused by both engines with the same error.
func TestTimeResolvedManyLanes(t *testing.T) {
	raws := testutil.RunWorkload(t, testutil.Shape{Nodes: 40, TasksPerNode: 4, CPUs: 4, Seed: 7}, testutil.NestedWork(3))
	files := testutil.ConvertRun(t, raws, interval.WriterOptions{})
	path := testutil.MergeToDisk(t, files, merge.Options{Writer: interval.WriterOptions{FrameBytes: 4096}})
	mf, bare := testutil.OpenSidecarPair(t, path, interval.PyramidOptions{BaseCells: 16})
	t0, t1, _, err := mf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	span, w := t1-t0, mf.Pyramid().BaseWidth
	alo := (t0 + w - 1) / w * w // the first cell bound in the run
	for _, tc := range []struct {
		name string
		bins int
		opts interval.MapOptions
	}{
		{"full-1", 1, interval.MapOptions{}},
		{"full-64", 64, interval.MapOptions{}},
		{"odd-window", 13, interval.MapOptions{Window: true, Lo: t0 + 7, Hi: t1 - span/5}},
		{"aligned-4", 4, interval.MapOptions{Window: true, Lo: alo, Hi: alo + 8*w}},
		{"aligned-8", 8, interval.MapOptions{Window: true, Lo: alo, Hi: alo + 8*w}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pyr := timeResolved(t, []*interval.File{mf}, tc.bins, tc.opts, "pyramid")
			scan := timeResolved(t, []*interval.File{bare}, tc.bins, tc.opts, "scan")
			tc.opts.Parallel = 4
			par := timeResolved(t, []*interval.File{bare}, tc.bins, tc.opts, "scan")
			if scan[0].Lanes < 128 || pyr[0].Lanes != scan[0].Lanes {
				t.Fatalf("lanes: pyramid %d, scan %d; want the same, at least 128", pyr[0].Lanes, scan[0].Lanes)
			}
			if got, want := renderTables(pyr), renderTables(scan); got != want {
				t.Fatalf("tables differ between engines:\npyramid:\n%s\nscan:\n%s", got, want)
			}
			if renderTables(par) != renderTables(scan) {
				t.Fatal("tables differ between Parallel 1 and 4")
			}
		})
	}
	var msgs []string
	for _, f := range []*interval.File{mf, bare} {
		_, err := stats.TimeResolved([]*interval.File{f}, stats.MaxBins, interval.MapOptions{})
		if !errors.Is(err, interval.ErrSummaryBudget) {
			t.Fatalf("%d bins over 160 lanes (sidecar attached: %v): error %v, want the cell budget's", stats.MaxBins, f.Pyramid() != nil, err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("engines refuse differently:\n%s\n%s", msgs[0], msgs[1])
	}
}

// TestTimeResolvedRemainderRouting: every bin narrower than the base
// width, so the pyramid answers each one from frame decodes alone, over
// a trace whose outer marker state spans every one of those remainders —
// for the whole run and for a window clipping records at both ends. The
// remainders tile the window, so the pyramid decodes exactly the frames
// the scan does.
func TestTimeResolvedRemainderRouting(t *testing.T) {
	raws := testutil.RunWorkload(t, shape, func(p *mpisim.Proc) {
		outer := p.DefineMarker("outer")
		p.MarkerBegin(outer)
		for i := 0; i < 20; i++ {
			work(p)
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
		name string
		bins int
		opts interval.MapOptions
	}{
		{"full-512", 512, interval.MapOptions{}},
		{"clipped-100", 100, interval.MapOptions{Window: true, Lo: t0 + span/3 + 7, Hi: t0 + span/3 + 7 + 20*w}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pyr := timeResolved(t, []*interval.File{mf}, tc.bins, tc.opts, "pyramid")
			scan := timeResolved(t, []*interval.File{bare}, tc.bins, tc.opts, "scan")
			for i := range pyr {
				if got, want := pyr[i].TSV(), scan[i].TSV(); got != want {
					t.Errorf("table %s differs between engines:\npyramid:\n%s\nscan:\n%s", pyr[i].Name, got, want)
				}
				if pyr[i].CellsUsed != 0 || pyr[i].FramesDecoded == 0 || pyr[i].FramesDecoded != scan[i].FramesDecoded {
					t.Errorf("table %s plans: pyramid %d cells/%d frames, scan %d frames", pyr[i].Name,
						pyr[i].CellsUsed, pyr[i].FramesDecoded, scan[i].FramesDecoded)
				}
			}
		})
	}
}

// TestTimeResolvedPyramidFallbacks: what the pyramid cannot answer is
// the scan's, silently and identically — no sidecar, a degenerate
// window, a window beyond the run, several files.
func TestTimeResolvedPyramidFallbacks(t *testing.T) {
	mf, bare := pyramidPair(t)
	t0, t1, _, err := mf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	timeResolved(t, []*interval.File{bare}, 4, interval.MapOptions{}, "scan")
	for _, tc := range []struct {
		name string
		bins int
		opts interval.MapOptions
	}{
		// Narrower than the bin count: some buckets are empty.
		{"span<bins", 50, interval.MapOptions{Window: true, Lo: t0, Hi: t0 + 10}},
		{"zero-span", 3, interval.MapOptions{Window: true, Lo: t0 + 5, Hi: t0 + 5}},
		// Beyond the run the clamped window is zero-span at the run's end.
		{"beyond-run", 4, interval.MapOptions{Window: true, Lo: t1 + clock.Second, Hi: t1 + 2*clock.Second}},
	} {
		got := timeResolved(t, []*interval.File{mf}, tc.bins, tc.opts, "scan")
		want := timeResolved(t, []*interval.File{bare}, tc.bins, tc.opts, "scan")
		if renderTables(got) != renderTables(want) {
			t.Fatalf("%s: the sidecar changed a scan answer", tc.name)
		}
		if n := len(got[2].Rows); n != tc.bins {
			t.Fatalf("%s: %d concurrency rows, want %d", tc.name, n, tc.bins)
		}
	}
	// Several files: peak concurrency is a merged-event property, so the
	// pyramid declines even when every file has one attached.
	timeResolved(t, []*interval.File{mf, mf}, 4, interval.MapOptions{}, "scan")
}

// pinnedTables renders TimeResolved at Parallel 1 and 4, requires the
// two byte-equal, and compares their SHA-256 with the hash of what the
// commit before the one-summarizer change printed for the same input.
func pinnedTables(t *testing.T, files []*interval.File, bins int, opts interval.MapOptions, want string) {
	t.Helper()
	opts.Parallel = 1
	seq := renderTables(timeResolved(t, files, bins, opts, "scan"))
	opts.Parallel = 4
	if par := renderTables(timeResolved(t, files, bins, opts, "scan")); par != seq {
		t.Fatal("time-resolved tables differ between Parallel 1 and 4")
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(seq))); got != want {
		t.Fatalf("time-resolved tables hash %s, the parent's output hashed %s", got, want)
	}
}

// TestTimeResolvedTwoFiles: a file list is scan-only by definition; the
// per-node files of one run, unmerged, are the case utestats sees.
func TestTimeResolvedTwoFiles(t *testing.T) {
	files := testutil.ConvertRun(t, testutil.RunWorkload(t, shape, work), interval.WriterOptions{})
	if len(files) != 2 {
		t.Fatalf("fixture has %d per-node files, want 2", len(files))
	}
	pinnedTables(t, files, 16, interval.MapOptions{}, "9b944bff0fcd59c437c1ade3d80ee3b0b1df3732767209cb3bbb5441cde3c7af")
	t0, t1, _, err := files[0].Stats()
	if err != nil {
		t.Fatal(err)
	}
	pinnedTables(t, files, 5, interval.MapOptions{Window: true, Lo: t0 + (t1-t0)/3, Hi: t1 - (t1-t0)/4}, "1f5b3fb433ebae44b266ac630515c2f30951c1f7bce3df566650252f9550ebfc")
}

// TestTimeResolvedWide512 is the lanes × bins corner: 52 lanes whose
// intervals each cross many of 512 bins, over 4 KiB frames.
func TestTimeResolvedWide512(t *testing.T) {
	raws := testutil.RunWorkload(t, testutil.WideShape, testutil.NestedWork(6))
	files := testutil.ConvertRun(t, raws, interval.WriterOptions{})
	mf, _ := testutil.MergeRun(t, files, merge.Options{Writer: interval.WriterOptions{FrameBytes: 4096}})
	pinnedTables(t, []*interval.File{mf}, 512, interval.MapOptions{}, "5438be21a4990f8e42876d072e6a05efe64b61a86f46fbc7f04fb38a3c307022")
}

// TestTimeResolvedNarrowWindow pins a window narrower than its bin
// count, laid inside a state interval: the zero-width buckets the
// interval reaches across are rows of tr_busy_by_type with busy 0 (72 of
// its 92 rows here), which a with/without-sidecar comparison cannot see
// go missing — both sides are the scan.
func TestTimeResolvedNarrowWindow(t *testing.T) {
	files := testutil.ConvertRun(t, testutil.RunWorkload(t, shape, work), interval.WriterOptions{})
	mf, _ := testutil.MergeRun(t, files, merge.Options{Writer: interval.WriterOptions{FrameBytes: 2048}})
	recs, err := mf.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Type != events.EvRunning && r.Type != events.EvGlobalClock && r.Dura >= 1000 {
			lo := r.Start + 100
			pinnedTables(t, []*interval.File{mf}, 50, interval.MapOptions{Window: true, Lo: lo, Hi: lo + 10}, "fd0d32ac12239be144ac274a934ebfbef3b23866838975285a97e84277f5b3f7")
			return
		}
	}
	t.Fatal("fixture has no state interval of 1 µs")
}

// TestTimeResolvedPyramidOracleWindows sweeps windows against the
// brute-force bound replica to make sure the fast path keeps the exact
// bucket geometry (not just scan parity on a handful of cases).
func TestTimeResolvedPyramidOracleWindows(t *testing.T) {
	mf, _ := pyramidPair(t)
	t0, t1, _, err := mf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	span := t1 - t0
	for wi := 0; wi < 8; wi++ {
		lo := t0 + span*clock.Time(wi)/16
		hi := t1 - span*clock.Time(wi)/17
		bins := 3 + wi*5
		tabs := timeResolved(t, []*interval.File{mf}, bins, interval.MapOptions{Window: true, Lo: lo, Hi: hi}, "pyramid")
		concT := tabs[2]
		if len(concT.Rows) != bins {
			t.Fatalf("window %d: %d rows, want %d", wi, len(concT.Rows), bins)
		}
		for bi, row := range concT.Rows {
			want := trBound(max(lo, t0), int64(min(hi, t1)-max(lo, t0)), bins, bi).Seconds()
			if got := row.X[1].Text(); got != fmt.Sprintf("%g", want) {
				t.Fatalf("window %d bin %d: t0 %s, want %g", wi, bi, got, want)
			}
		}
	}
}
