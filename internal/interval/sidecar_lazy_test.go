package interval

import (
	"os"
	"sync"
	"sync/atomic"
	"testing"
)

// countSidecarReads swaps the sidecar read seam for a counting one.
func countSidecarReads(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	readSidecar = func(path string) ([]byte, error) {
		n.Add(1)
		return os.ReadFile(path)
	}
	t.Cleanup(func() { readSidecar = os.ReadFile })
	return &n
}

// TestSidecarLoadsOnFirstSummary: Open only stats the sidecar. A tool
// that never summarizes — scanning, frame statistics, validation —
// never reads it; the first summary reads it once, and so do two first
// summaries arriving together (run under -race).
func TestSidecarLoadsOnFirstSummary(t *testing.T) {
	dir := t.TempDir()
	path := writeTraceOnDisk(t, dir, 4, 600, CurrentHeaderVersion)
	if _, err := BuildPyramidSidecar(path, PyramidOptions{BaseCells: 64}); err != nil {
		t.Fatal(err)
	}
	reads := countSidecarReads(t)

	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := f.Scan().All()
	if err != nil || len(recs) == 0 {
		t.Fatalf("scan: %d records, %v", len(recs), err)
	}
	if _, _, _, err := f.Stats(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Validate(nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n := reads.Load(); n != 0 {
		t.Fatalf("open, scan, stats, validate, close read the sidecar %d times", n)
	}
	// Nobody asked while the file was open: asking now finds nothing, and
	// does not fail.
	if f.Pyramid() != nil {
		t.Fatal("a closed file produced a pyramid")
	}

	f, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lo, hi, _, _ := f.Stats()
	o := WindowSummaryOptions{Lo: lo, Hi: hi, Bins: 16}
	before := reads.Load()
	var wg sync.WaitGroup
	engines := make([]string, 2)
	for i := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws, err := SummarizeWindow([]*File{f}, o)
			if err != nil {
				t.Error(err)
				return
			}
			engines[i] = ws.Engine
		}()
	}
	wg.Wait()
	if engines[0] != "pyramid" || engines[1] != "pyramid" {
		t.Fatalf("first summaries answered by %v", engines)
	}
	if _, err := SummarizeWindow([]*File{f}, o); err != nil {
		t.Fatal(err)
	}
	if n := reads.Load() - before; n != 1 {
		t.Fatalf("three summaries read the sidecar %d times", n)
	}
}

// TestCorruptSidecarCostsNothingUntilAsked: a damaged sidecar neither
// fails Open nor is looked at by it; the first summary finds it
// unusable, once, and scans.
func TestCorruptSidecarCostsNothingUntilAsked(t *testing.T) {
	dir := t.TempDir()
	path := writeTraceOnDisk(t, dir, 4, 600, CurrentHeaderVersion)
	if _, err := BuildPyramidSidecar(path, PyramidOptions{BaseCells: 64}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(PyramidPath(path))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(PyramidPath(path), data, 0o644); err != nil {
		t.Fatal(err)
	}
	reads := countSidecarReads(t)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if reads.Load() != 0 {
		t.Fatal("Open read the sidecar")
	}
	lo, hi, _, _ := f.Stats()
	for i := 0; i < 2; i++ {
		ws, err := SummarizeWindow([]*File{f}, WindowSummaryOptions{Lo: lo, Hi: hi, Bins: 16})
		if err != nil || ws.Engine != "scan" {
			t.Fatalf("summary %d over a damaged sidecar: engine %v, err %v", i, ws, err)
		}
	}
	if n := reads.Load(); n != 1 {
		t.Fatalf("the damaged sidecar was read %d times", n)
	}
}
