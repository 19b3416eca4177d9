package interval

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/xrand"
)

// checkedMemo is a frame source that stores every memoized value at its
// first computation and, at every later lookup of the same frame and
// key, computes the value afresh and fails the test unless the stored
// one equals it: a key that leaves out anything its value depends on is
// caught the first time two lookups differing in that thing share it.
// Decode reads from the file; lookups and hits are counted (every lookup
// computes, so a hit still reads its frame).
type checkedMemo struct {
	t            *testing.T
	vals         map[string]any
	lookups, hit int
}

func (c *checkedMemo) Decode(f *File, fe FrameEntry, scratch *Batch) (*Batch, error) {
	if scratch == nil {
		return f.ReadFrameBatch(fe)
	}
	return scratch, f.DecodeFrameBatch(fe, scratch)
}

func (c *checkedMemo) Memo(_ context.Context, f *File, fe FrameEntry, key string, compute func(*Batch, bool) (any, int64, error)) (any, bool, error) {
	c.lookups++
	b, err := f.ReadFrameBatch(fe)
	if err != nil {
		return nil, false, err
	}
	v, _, err := compute(b, true)
	if err != nil {
		return nil, false, err
	}
	k := fmt.Sprintf("%d/%s", fe.Offset, key)
	if old, ok := c.vals[k]; ok {
		if !reflect.DeepEqual(old, v) {
			c.t.Errorf("frame at %d, key %q: the stored value differs from a fresh computation\nstored %+v\nfresh  %+v", fe.Offset, key, old, v)
		}
		c.hit++
		return old, true, nil
	}
	c.vals[k] = v
	return v, false, nil
}

// TestRemainderMemoKeys holds the pyramid engine's memoized edge
// remainders to the scan: random unaligned windows and bin counts —
// and, for each side, two windows built so that one frame's remainders
// are the same under both while the window cuts the frame on that side
// under one and not under the other — asked through a frame source that
// checks every reused contribution against a fresh one, in rounds, so
// that windows meet each other's stored contributions. Every summary equals the
// sidecar-less file's, PartialsReused counts the lookups that hit, and
// in the second round every lookup does.
func TestRemainderMemoKeys(t *testing.T) {
	f, bare := openPair(t, func() *SeekBuffer { sb, _ := writePyrFile(t, 33, 1500, CurrentHeaderVersion); return sb }(), PyramidOptions{BaseCells: 64})
	src := &checkedMemo{t: t, vals: map[string]any{}}
	f.SetFrameSource(src)
	p := f.Pyramid()
	w := p.BaseWidth
	first, last, _, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	floor := func(x clock.Time) clock.Time { return clock.Time(floorDivTime(x, w)) * w }

	var cases []WindowSummaryOptions
	// One frame, two windows ending at the same instant inside it and
	// leaving it the same single remainder: one starts at a base-cell
	// bound inside the frame, after the start of a busy interval that
	// reaches the remainder, the other at a bound before the frame.
	fes, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := f.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, fe := range fes[len(fes)/4:] {
		hi := fe.End - 1
		if hi%w == 0 {
			hi--
		}
		ib := floor(hi)
		for lo := floor(fe.Start) + w; lo < ib && !found; lo += w {
			for _, r := range recs {
				if busyType(r.Type) && r.Start >= fe.Start && r.End() <= fe.End && r.Start < lo && r.End() > ib && r.Dura > 0 {
					found = true
					cases = append(cases, WindowSummaryOptions{Bins: 1, Lo: lo, Hi: hi}, WindowSummaryOptions{Bins: 1, Lo: floor(fe.Start), Hi: hi})
					break
				}
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no frame holds a busy interval across a base-cell bound and into a remainder: the fixture cannot tell a cut side")
	}
	// The same for the other side: two windows starting at the same
	// instant inside a frame and leaving it the same single remainder, up
	// to the next base-cell bound, where one ends while the frame and a
	// busy interval reaching the remainder go on, and the other runs past
	// the frame.
	found = false
	for _, fe := range fes[len(fes)/4:] {
		for _, r := range recs {
			lo := r.Start + 1
			if lo%w == 0 {
				lo++
			}
			hi := floor(lo) + w
			if busyType(r.Type) && r.Start >= fe.Start && r.End() <= fe.End && hi < r.End() && hi < fe.End {
				found = true
				cases = append(cases, WindowSummaryOptions{Bins: 1, Lo: lo, Hi: hi}, WindowSummaryOptions{Bins: 1, Lo: lo, Hi: floor(fe.End) + 2*w + 1})
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no frame holds a busy interval across a base-cell bound past its start: the fixture cannot tell a cut side")
	}
	rng := xrand.New(34)
	for k := 0; k < 24; k++ {
		lo := first + clock.Time(rng.Int63n(int64(last-first)))
		hi := lo + clock.Time(rng.Int63n(int64(last-lo)+1))
		bins := 1 + rng.Intn(40)
		if int64(hi-lo) < int64(bins) {
			continue
		}
		cases = append(cases, WindowSummaryOptions{Bins: bins, Lo: lo, Hi: hi})
		// The same window at another bin count shares the frames cut
		// at its ends.
		cases = append(cases, WindowSummaryOptions{Bins: bins + 1 + rng.Intn(7), Lo: lo, Hi: hi})
	}
	for round := 0; round < 2; round++ {
		for i, o := range cases {
			label := fmt.Sprintf("round %d, case %d [%d, %d] bins=%d", round, i, o.Lo, o.Hi, o.Bins)
			lookups, hits := src.lookups, src.hit
			pyr := summarize(t, label, f, o, "pyramid")
			assertSummariesEqual(t, label, pyr, summarize(t, label, bare, o, "scan"))
			lookups, hits = src.lookups-lookups, src.hit-hits
			if pyr.PartialsReused != hits || round == 1 && hits != lookups {
				t.Fatalf("%s: %d contributions reused, %d of %d lookups hit", label, pyr.PartialsReused, hits, lookups)
			}
		}
	}
	if src.hit == 0 {
		t.Fatal("no contribution was ever reused")
	}
}

// TestRemainderKeyNamesEveryBound: a remainder key tells apart any two
// lookups that differ in a side the window cuts the frame at or in
// either bound of any remainder the frame overlaps — each is something
// the contribution is computed from.
func TestRemainderKeyNamesEveryBound(t *testing.T) {
	fe := FrameEntry{Start: 100, End: 200}
	near := []remSpan{{bin: 0, r0: 120, r1: 130}, {bin: 1, r0: 130, r1: 140}, {bin: 2, r0: 170, r1: 180}}
	base := remKey(fe, NewBinGrid(110, 190, 3), near)
	seen := map[string]string{base: "base"}
	add := func(what, k string) {
		if prev, ok := seen[k]; ok {
			t.Fatalf("%s and %s share the key %q", what, prev, k)
		}
		seen[k] = what
	}
	add("no cut below", remKey(fe, NewBinGrid(90, 190, 3), near))
	add("no cut above", remKey(fe, NewBinGrid(110, 210, 3), near))
	add("another cut below", remKey(fe, NewBinGrid(111, 190, 3), near))
	add("another cut above", remKey(fe, NewBinGrid(110, 189, 3), near))
	for k := range near {
		for _, d := range []struct {
			name   string
			r0, r1 clock.Time
		}{{"r0", 1, 0}, {"r1", 0, 1}} {
			moved := append([]remSpan(nil), near...)
			moved[k].r0 += d.r0
			moved[k].r1 += d.r1
			add(fmt.Sprintf("span %d's %s", k, d.name), remKey(fe, NewBinGrid(110, 190, 3), moved))
		}
	}
	add("one span fewer", remKey(fe, NewBinGrid(110, 190, 3), near[:2]))
}
