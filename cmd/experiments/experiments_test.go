package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tracefw/internal/render"
)

// fig6SHA256 is fig6.tsv's digest: the Figure 6 table's bytes, which a
// change to how the statistics utility groups rows must leave as they
// are.
const fig6SHA256 = "11fd70b4301cbe8e7dfbdb36a1a4fb27256a5f3bb8ae2463fb414f87600b6a3d"

// TestQuickExperiments regenerates the -quick set into a scratch
// directory and checks what the paper's claims rest on, by counts and
// never by wall time: every section's output is written, each clock's
// divergence in Figure 1 grows linearly with elapsed time, the Figure 6
// table keeps its bytes, Figure 8 shows one idle thread and one thread
// with MPI activity per task, Figure 9 shows threads visiting more than
// one CPU, outlier filtering repairs the de-schedule scenario and the
// piecewise estimator tracks the drift step (§2.2), and a frame fetch
// reads as many bytes from the largest SLOG file as from the smallest
// (§4).
func TestQuickExperiments(t *testing.T) {
	dir := t.TempDir()
	if err := regenerate(dir, "", true); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig1.tsv", "table1.tsv", "fig6.tsv", "fig6.svg", "fig7_preview.svg",
		"fig7_frame.svg", "fig8.svg", "fig9.svg", "clocksync.tsv", "seekscale.tsv", "SUMMARY.txt"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written (%v)", name, err)
		}
	}

	// Figure 1: a constant drift accumulates linearly. Each column is its
	// slope times the elapsed time, to the TSV's 0.1 µs, the reference's
	// slope 0 and some other's not.
	fig1 := readTSV(t, filepath.Join(dir, "fig1.tsv"))
	if len(fig1) < 3 {
		t.Fatalf("fig1.tsv has %d samples", len(fig1))
	}
	last := fig1[len(fig1)-1]
	drifting := 0
	for c := 1; c < len(last); c++ {
		slope := parseFloat(t, last[c]) / parseFloat(t, last[0])
		if slope != 0 {
			drifting++
		}
		for _, row := range fig1 {
			if v, want := parseFloat(t, row[c]), slope*parseFloat(t, row[0]); math.Abs(v-want) > 0.1 {
				t.Fatalf("fig1 clock %d at %ss: %v µs, want %v (linear)", c-1, row[0], v, want)
			}
		}
	}
	if parseFloat(t, last[1]) != 0 || drifting != len(last)-2 {
		t.Errorf("fig1: %d clocks drift from the reference, want %d (and the reference none)", drifting, len(last)-2)
	}

	if data, err := os.ReadFile(filepath.Join(dir, "fig6.tsv")); err != nil {
		t.Error(err)
	} else if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != fig6SHA256 {
		t.Errorf("fig6.tsv digest %s, want %s", got, fig6SHA256)
	}

	// Figures 8 and 9 are views of one deterministic run; count what
	// they show.
	run, err := sppmRun()
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	d, err := run.View(render.ThreadActivity, render.Options{})
	if err != nil {
		t.Fatal(err)
	}
	idle, mpi := threadActivity(d)
	if idle != 4 || len(mpi) != 4 {
		t.Errorf("fig8: %d idle threads, MPI activity per node %v; want 4 idle and one MPI thread on each of 4 nodes", idle, mpi)
	}
	for node, n := range mpi {
		if n != 1 {
			t.Errorf("fig8: %d threads with MPI activity on %s, want 1", n, node)
		}
	}
	tp, err := run.View(render.ThreadProcessor, render.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if moved := migrated(tp); moved < 1 {
		t.Errorf("fig9: %d threads visited more than one CPU, want at least 1", moved)
	}

	clk := readTSV(t, filepath.Join(dir, "clocksync.tsv"))
	maxErr := map[string]float64{}
	for _, row := range clk {
		maxErr[row[0]+" "+row[1]] = parseFloat(t, row[2])
	}
	if v, ok := maxErr["with_outlier rms+filter"]; !ok || v > 1 {
		t.Errorf("with_outlier rms+filter: max error %v µs (present %v), want at most 1", v, ok)
	}
	if v, ok := maxErr["drift_step piecewise"]; !ok || v != 0 {
		t.Errorf("drift_step piecewise: max error %v µs (present %v), want 0", v, ok)
	}

	seek := readTSV(t, filepath.Join(dir, "seekscale.tsv"))
	if len(seek) < 2 {
		t.Fatalf("seekscale.tsv has %d sizes", len(seek))
	}
	first, last := seek[0], seek[len(seek)-1]
	if f0, f1 := parseFloat(t, first[1]), parseFloat(t, last[1]); f1 < 4*f0 {
		t.Fatalf("the SLOG file grew from %v to %v frames: too little to tell", f0, f1)
	}
	lo, hi := parseFloat(t, first[3]), parseFloat(t, first[3])
	for _, row := range seek {
		b := parseFloat(t, row[3])
		lo, hi = min(lo, b), max(hi, b)
	}
	if lo <= 0 || hi > 2*lo {
		t.Errorf("bytes read per frame fetch range over %v to %v as the file grows, want flat", lo, hi)
	}
}

// readTSV returns a TSV file's rows after its header.
func readTSV(t *testing.T, path string) [][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
		rows = append(rows, strings.Split(line, "\t"))
	}
	return rows
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
