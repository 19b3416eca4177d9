package interval

// Tests for the sampled cross-validation used by utecheck: a faithful
// pyramid verifies, a doctored one is caught even though its encoding
// (and, once re-encoded, its CRCs) are perfectly valid.

import (
	"strings"
	"testing"

	"tracefw/internal/clock"
)

func TestVerifyPyramidOK(t *testing.T) {
	sb, _ := writePyrFile(t, 5, 900, CurrentHeaderVersion)
	f, err := NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := mustBuild(t, f, PyramidOptions{BaseCells: 64, TopK: 4})

	n, err := f.VerifyPyramid(p, VerifyPyramidOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no cells checked")
	}
	if f.Pyramid() != nil {
		t.Fatal("verifying a pyramid attached it")
	}
	// A tighter sample bound checks fewer cells but still some.
	n2, err := f.VerifyPyramid(p, VerifyPyramidOptions{MaxCells: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n2 == 0 || n2 > n {
		t.Fatalf("MaxCells=3 checked %d cells (full sample %d)", n2, n)
	}
}

func TestVerifyPyramidCatchesDoctoredCells(t *testing.T) {
	sb, _ := writePyrFile(t, 6, 900, CurrentHeaderVersion)
	f, err := NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := mustBuild(t, f, PyramidOptions{BaseCells: 64, TopK: 4})

	// Doctor the first base cell — sampling always visits index 0.
	if len(p.Levels) == 0 || len(p.Levels[0].Cells) == 0 {
		t.Fatal("pyramid has no base cells")
	}
	p.Levels[0].Cells[0].Records++
	if _, err := f.VerifyPyramid(p, VerifyPyramidOptions{}); err == nil {
		t.Fatal("doctored record count not caught")
	} else if !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("unexpected error: %v", err)
	}
	p.Levels[0].Cells[0].Records--

	// Doctoring a busy-time histogram entry is caught too.
	c := &p.Levels[0].Cells[0]
	if len(c.ByType) == 0 {
		t.Fatal("first base cell has no busy time")
	}
	c.ByType[0].Busy += clock.Time(1)
	if _, err := f.VerifyPyramid(p, VerifyPyramidOptions{}); err == nil {
		t.Fatal("doctored busy time not caught")
	}
}

func TestVerifyPyramidEmpty(t *testing.T) {
	sb, _ := writePyrFile(t, 7, 0, CurrentHeaderVersion)
	f, err := NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := mustBuild(t, f, PyramidOptions{})
	n, err := f.VerifyPyramid(p, VerifyPyramidOptions{})
	if err != nil || n != 0 {
		t.Fatalf("empty pyramid: %d cells, %v", n, err)
	}
}

func mustBuild(t *testing.T, f *File, opts PyramidOptions) *Pyramid {
	t.Helper()
	p, err := BuildPyramid(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
