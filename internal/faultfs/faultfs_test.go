package faultfs

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func testData(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

// TestInjectorDeterministic: the same seed must produce bit-identical
// faults and damage, and a different seed must (for this data size)
// diverge.
func TestInjectorDeterministic(t *testing.T) {
	base := testData(4096)
	a1, fa1 := New(42).FlipBit(base, 100)
	a2, fa2 := New(42).FlipBit(base, 100)
	if fa1 != fa2 || !bytes.Equal(a1, a2) {
		t.Fatal("same seed produced different faults")
	}
	b1, fb1 := New(43).FlipBit(base, 100)
	if fb1 == fa1 && bytes.Equal(a1, b1) {
		t.Fatal("different seeds produced identical faults")
	}
}

// TestInjectorLeavesInputPristine: every injector method must return a
// copy, never mutate its input.
func TestInjectorLeavesInputPristine(t *testing.T) {
	base := testData(1024)
	orig := append([]byte(nil), base...)
	in := New(7)
	in.Truncate(base, 0)
	in.FlipBit(base, 0)
	in.FlipBitIn(base, 10, 20)
	in.TearZero(base, 0, 64)
	if !bytes.Equal(base, orig) {
		t.Fatal("injector mutated its input")
	}
}

func TestTruncateRange(t *testing.T) {
	base := testData(1000)
	for seed := uint64(0); seed < 50; seed++ {
		out, f := New(seed).Truncate(base, 100)
		if int64(len(out)) != f.Range.Off || f.Range.Off < 100 || f.Range.Off >= 1000 {
			t.Fatalf("seed %d: cut at %d, len %d", seed, f.Range.Off, len(out))
		}
		if f.Range.Off+f.Range.Len != 1000 {
			t.Fatalf("seed %d: lost range %+v does not reach EOF", seed, f.Range)
		}
		if !bytes.Equal(out, base[:len(out)]) {
			t.Fatalf("seed %d: surviving prefix modified", seed)
		}
	}
}

func TestFlipBitDamage(t *testing.T) {
	base := testData(1000)
	for seed := uint64(0); seed < 50; seed++ {
		out, f := New(seed).FlipBit(base, 32)
		if f.Range.Off < 32 || f.Range.Off >= 1000 || f.Range.Len != 1 {
			t.Fatalf("seed %d: fault %+v out of range", seed, f)
		}
		diff := 0
		for i := range out {
			if out[i] != base[i] {
				diff++
				if int64(i) != f.Range.Off || out[i] != base[i]^(1<<f.Bit) {
					t.Fatalf("seed %d: wrong byte damaged: %d vs fault %+v", seed, i, f)
				}
			}
		}
		if diff != 1 {
			t.Fatalf("seed %d: %d bytes damaged", seed, diff)
		}
	}
}

func TestTearZeroDamage(t *testing.T) {
	base := testData(1000)
	for seed := uint64(0); seed < 50; seed++ {
		out, f := New(seed).TearZero(base, 50, 100)
		if f.Range.Off < 50 || f.Range.Len < 1 || f.Range.Len > 100 || f.Range.Off+f.Range.Len > 1000 {
			t.Fatalf("seed %d: fault %+v out of range", seed, f)
		}
		for i := int64(0); i < 1000; i++ {
			in := i >= f.Range.Off && i < f.Range.Off+f.Range.Len
			switch {
			case in && out[i] != 0:
				t.Fatalf("seed %d: byte %d inside tear not zeroed", seed, i)
			case !in && out[i] != base[i]:
				t.Fatalf("seed %d: byte %d outside tear modified", seed, i)
			}
		}
	}
}

func TestRangeOverlaps(t *testing.T) {
	r := Range{Off: 10, Len: 5} // [10, 15)
	cases := []struct {
		off, n int64
		want   bool
	}{
		{0, 10, false}, {0, 11, true}, {14, 1, true}, {15, 1, false},
		{12, 0, false}, {10, 5, true}, {0, 100, true},
	}
	for _, c := range cases {
		if got := r.Overlaps(c.off, c.n); got != c.want {
			t.Errorf("[10,15) overlaps [%d,+%d) = %v, want %v", c.off, c.n, got, c.want)
		}
	}
}

// TestBadSectorFile: reads clear of the poisoned range succeed with the
// right bytes; reads touching it fail with ErrBadSector on both the
// sequential and the positioned path.
func TestBadSectorFile(t *testing.T) {
	data := testData(256)
	f := NewBadSector(data, Range{Off: 100, Len: 10})

	got := make([]byte, 50)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:50]) {
		t.Fatal("clean ReadAt returned wrong bytes")
	}
	if _, err := f.ReadAt(got, 60); !errors.Is(err, ErrBadSector) {
		t.Fatalf("ReadAt over bad sector: %v", err)
	}
	if _, err := f.ReadAt(got, 105); !errors.Is(err, ErrBadSector) {
		t.Fatalf("ReadAt inside bad sector: %v", err)
	}
	if _, err := f.ReadAt(got, 110); err != nil {
		t.Fatalf("ReadAt after bad sector: %v", err)
	}

	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(f); !errors.Is(err, ErrBadSector) {
		t.Fatal("sequential read crossed the bad sector without error")
	}
}

// TestTornWriter: bytes below the horizon land (including backward
// patches), bytes at or beyond it vanish while Write reports success.
func TestTornWriter(t *testing.T) {
	tw := NewTornWriter(10)
	if n, err := tw.Write([]byte("0123456789abcdef")); n != 16 || err != nil {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	if got := string(tw.Bytes()); got != "0123456789" {
		t.Fatalf("content %q", got)
	}
	// A backward patch below the horizon must land.
	if _, err := tw.Seek(2, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Write([]byte("XY")); err != nil {
		t.Fatal(err)
	}
	if got := string(tw.Bytes()); got != "01XY456789" {
		t.Fatalf("after patch: %q", got)
	}
	// A write spanning the horizon is applied only below it.
	if _, err := tw.Seek(8, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Write([]byte("ZZZZ")); err != nil {
		t.Fatal(err)
	}
	if got := string(tw.Bytes()); got != "01XY4567ZZ" {
		t.Fatalf("after spanning write: %q", got)
	}
}
