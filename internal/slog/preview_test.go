package slog_test

import (
	"fmt"
	"testing"

	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/render"
	"tracefw/internal/slog"
	"tracefw/internal/testutil"
	"tracefw/internal/workload"
)

// TestStoredPreviewIsBuildPreview: the preview a SLOG file stores is
// render.BuildPreview of its merged file over the whole run, cell for
// cell and rendered byte for byte, at every bin count, whichever engine
// answers BuildPreview — both bin by interval.BinGrid. The fixtures' spans
// are ones on which a float product of the bin width puts an edge off the
// integer ruler: at 7 bins seed 68's last edge falls one nanosecond short
// of the run's end (MPI_Barrier, bin 6, loses it), at 50 bins seed 71's
// edge 25 falls early (Running, bin 24), at 40 bins seed 25's edge 25
// (marker state, bin 24).
func TestStoredPreviewIsBuildPreview(t *testing.T) {
	for _, tc := range []struct {
		seed  uint64
		steps int
		shape testutil.Shape
	}{
		{68, 150, testutil.Shape{Nodes: 1, TasksPerNode: 1, CPUs: 1, Seed: 68 * 7}},
		{71, 400, testutil.Shape{Nodes: 3, TasksPerNode: 2, CPUs: 4, Seed: 71 * 7}},
		{25, 400, testutil.Shape{Nodes: 2, TasksPerNode: 1, CPUs: 2, Seed: 25 * 7}},
	} {
		raws := testutil.RunWorkload(t, tc.shape, workload.Random{Seed: tc.seed, Steps: tc.steps}.Main())
		files := testutil.ConvertRun(t, raws, interval.WriterOptions{})
		path := testutil.MergeToDisk(t, files, merge.Options{Writer: interval.WriterOptions{FrameBytes: 2048}})
		with, without := testutil.OpenSidecarPair(t, path, interval.PyramidOptions{BaseCells: 8})
		for _, bins := range []int{1, 7, 40, 50, 512} {
			sb := interval.NewSeekBuffer()
			if _, err := slog.Build(without, sb, slog.WithBins(slog.Options{FrameBytes: 2048}, bins)); err != nil {
				t.Fatal(err)
			}
			sf, err := slog.Read(sb)
			if err != nil {
				t.Fatal(err)
			}
			stored := sf.Preview
			for engine, f := range map[string]*interval.File{"pyramid": with, "scan": without} {
				label := fmt.Sprintf("seed %d, %d bins, %s engine", tc.seed, bins, engine)
				res, err := render.BuildPreview(f, render.PreviewOptions{Bins: bins})
				if err != nil {
					t.Fatal(err)
				}
				if res.Engine != engine {
					t.Fatalf("%s: answered by the %s engine", label, res.Engine)
				}
				built := res.Preview
				if built.TStart != stored.TStart || built.TEnd != stored.TEnd {
					t.Fatalf("%s: run [%d, %d] built, [%d, %d] stored", label, built.TStart, built.TEnd, stored.TStart, stored.TEnd)
				}
				if len(built.Dur) != len(stored.Dur) {
					t.Fatalf("%s: %d state rows built, %d stored", label, len(built.Dur), len(stored.Dur))
				}
				for si := range stored.Dur {
					if len(built.Dur[si]) != bins || len(stored.Dur[si]) != bins {
						t.Fatalf("%s: state %s has %d bins built, %d stored", label, stored.States[si].Name(), len(built.Dur[si]), len(stored.Dur[si]))
					}
					for b := range stored.Dur[si] {
						if got, want := stored.Dur[si][b], built.Dur[si][b]; got != want {
							lo, hi := stored.BinBounds(b)
							t.Fatalf("%s: state %s, bin %d [%d, %d): %d ns stored, %d ns built",
								label, stored.States[si].Name(), b, lo, hi, got, want)
						}
					}
				}
				if render.PreviewSVG(stored) != render.PreviewSVG(built) {
					t.Fatalf("%s: SVG differs", label)
				}
				if render.PreviewASCII(stored, 60) != render.PreviewASCII(built, 60) {
					t.Fatalf("%s: ASCII differs", label)
				}
			}
		}
	}
}
