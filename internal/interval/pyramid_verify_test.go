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
	p := mustBuild(t, f, PyramidOptions{BaseCells: 64})

	n, err := f.VerifyPyramid(p)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no cells checked")
	}
	if f.Pyramid() != nil {
		t.Fatal("verifying a pyramid attached it")
	}
	// The check samples: it recomputes about verifyCells cells, not all.
	if cells := len(p.Levels[0].Cells); cells > 2*verifyCells && n >= cells {
		t.Fatalf("checked %d of %d base cells: not a sample", n, cells)
	}
}

func TestVerifyPyramidCatchesDoctoredCells(t *testing.T) {
	sb, _ := writePyrFile(t, 6, 900, CurrentHeaderVersion)
	f, err := NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := mustBuild(t, f, PyramidOptions{BaseCells: 64})

	// Doctor the first base cell — sampling always visits index 0 — one
	// stored field at a time; each must be caught, and the pyramid must
	// verify again once the field is restored.
	if len(p.Levels) == 0 || len(p.Levels[0].Cells) == 0 {
		t.Fatal("pyramid has no base cells")
	}
	c := &p.Levels[0].Cells[0]
	if len(c.ByType) == 0 || len(c.ByLane) == 0 || c.MaxConc == 0 {
		t.Fatalf("first base cell is too sparse to doctor: %+v", *c)
	}
	for _, field := range []struct {
		name   string
		doctor func(delta int)
	}{
		{"ByType busy", func(d int) { c.ByType[0].Busy += clock.Time(d) }},
		{"ByLane busy", func(d int) { c.ByLane[0].Busy += clock.Time(d) }},
		{"MaxConc", func(d int) { c.MaxConc += d }},
	} {
		field.doctor(1)
		if _, err := f.VerifyPyramid(p); err == nil {
			t.Fatalf("doctored %s not caught", field.name)
		} else if !strings.Contains(err.Error(), "disagree") {
			t.Fatalf("doctored %s: unexpected error: %v", field.name, err)
		}
		field.doctor(-1)
		if _, err := f.VerifyPyramid(p); err != nil {
			t.Fatalf("restored %s: %v", field.name, err)
		}
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
	n, err := f.VerifyPyramid(p)
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
