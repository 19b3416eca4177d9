package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestQuickExperiments regenerates the -quick set into a scratch
// directory and checks what the paper's claims rest on: every section's
// output is written, outlier filtering repairs the de-schedule scenario
// and the piecewise estimator tracks the drift step (§2.2), and a frame
// fetch reads as many bytes from the largest SLOG file as from the
// smallest (§4).
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
