package slog_test

import (
	"io"
	"testing"

	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/slog"
	"tracefw/internal/testutil"
	"tracefw/internal/workload"
)

// discardSeeker is a write-only sink that tracks its position, so the
// destination's own growth does not count against the builder.
type discardSeeker struct{ pos, size int64 }

func (d *discardSeeker) Write(p []byte) (int, error) {
	d.pos += int64(len(p))
	d.size = max(d.size, d.pos)
	return len(p), nil
}

func (d *discardSeeker) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekCurrent:
		off += d.pos
	case io.SeekEnd:
		off += d.size
	}
	d.pos = off
	return off, nil
}

// TestSealTimeBuildersAllocsPerRecord guards what the two builders
// utemerge runs over every sealed trace allocate, per record, on an
// sPPM-shaped trace: the SLOG build copies nothing out of a batch but the
// Begin rows its open-state tracker retains (0.2 per record; the build
// that materialized every row and re-encoded it through a fresh buffer
// allocated 3.07), and the pyramid build keeps only values (its
// allocations are per cell — cells are sized here as the ledger's sPPM
// trace has them, about 55 records each — where the record-at-a-time
// build with its candidate buffers and two maps per cell allocated 0.60
// per record).
func TestSealTimeBuildersAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	sppm := testutil.Shape{Nodes: 4, TasksPerNode: 1, CPUs: 8, Seed: 31}
	mf, _ := testutil.Pipeline(t, sppm, merge.Options{}, workload.SPPM{Iters: 400}.Main())
	_, _, n, err := mf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	perRecord := func(f func()) float64 { return testing.AllocsPerRun(3, f) / float64(n) }

	if got := perRecord(func() {
		if _, err := slog.Build(mf, &discardSeeker{}, slog.Options{Parallel: 1}); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("slog.Build: %.2f allocations per record over %d records, want at most 1", got, n)
	} else {
		t.Logf("slog.Build: %.2f allocations per record", got)
	}

	cells := 1
	for int64(cells)*55 < n {
		cells <<= 1
	}
	if got := perRecord(func() {
		if _, err := interval.BuildPyramid(mf, interval.PyramidOptions{BaseCells: cells}); err != nil {
			t.Fatal(err)
		}
	}); got > 0.60 {
		t.Errorf("BuildPyramid: %.2f allocations per record over %d records in %d base cells, want at most 0.60", got, n, cells)
	} else {
		t.Logf("BuildPyramid: %.2f allocations per record (%d base cells)", got, cells)
	}
}
