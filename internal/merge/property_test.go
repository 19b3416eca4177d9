package merge_test

import (
	"sort"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/profile"
	"tracefw/internal/xrand"
)

// synthFile builds an interval file of n Running records with random
// (but end-time-ordered) times on the given node, tagging each record's
// CPU with a stream-unique value so the merged multiset can be checked.
func synthFile(t *testing.T, rng *xrand.Rand, node, stream, n int) (*interval.File, []interval.Record) {
	t.Helper()
	sb := interval.NewSeekBuffer()
	w, err := interval.NewWriter(sb, interval.Header{
		ProfileVersion: profile.StdVersion,
		HeaderVersion:  interval.CurrentHeaderVersion,
		FieldMask:      profile.MaskIndividual,
		Markers:        map[uint64]string{},
	}, interval.WriterOptions{FrameBytes: 256, FramesPerDir: 2})
	if err != nil {
		t.Fatal(err)
	}
	var recs []interval.Record
	end := clock.Time(rng.Int63n(1000))
	for i := 0; i < n; i++ {
		end += clock.Time(rng.Int63n(int64(clock.Millisecond)))
		dura := clock.Time(rng.Int63n(int64(clock.Millisecond)))
		r := interval.Record{
			Type:   events.EvRunning,
			Bebits: profile.Complete,
			Start:  end - dura,
			Dura:   dura,
			CPU:    uint16(stream),
			Node:   uint16(node),
			Thread: uint16(i % 4),
		}
		recs = append(recs, r)
		if err := w.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := interval.NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	return f, recs
}

// TestMergeIsSortedPermutation: for random stream shapes, the merged
// output is exactly the end-time-ordered union of the inputs.
func TestMergeIsSortedPermutation(t *testing.T) {
	rng := xrand.New(2024)
	for trial := 0; trial < 25; trial++ {
		k := 1 + rng.Intn(8)
		var files []*interval.File
		var all []interval.Record
		for s := 0; s < k; s++ {
			n := rng.Intn(200)
			f, recs := synthFile(t, rng, s, s, n)
			files = append(files, f)
			all = append(all, recs...)
		}
		sb := interval.NewSeekBuffer()
		// EstimatorNone + no clock pairs: identity adjustment, so the
		// merged records must equal the inputs exactly.
		res, err := merge.Merge(files, sb, merge.NoPseudo(merge.Options{Estimator: merge.EstimatorNone}))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		mf, err := interval.NewFile(sb)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mf.Scan().All()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(all) || res.Records != int64(len(all)) {
			t.Fatalf("trial %d: merged %d records, want %d", trial, len(got), len(all))
		}
		// Sorted by end time.
		for i := 1; i < len(got); i++ {
			if got[i].End() < got[i-1].End() {
				t.Fatalf("trial %d: output unsorted at %d", trial, i)
			}
		}
		// Same multiset: compare canonical sorts.
		key := func(r interval.Record) [5]int64 {
			return [5]int64{int64(r.Start), int64(r.Dura), int64(r.CPU), int64(r.Node), int64(r.Thread)}
		}
		a := make([][5]int64, len(all))
		bkeys := make([][5]int64, len(got))
		for i := range all {
			a[i] = key(all[i])
		}
		for i := range got {
			bkeys[i] = key(got[i])
		}
		lessFn := func(x, y [5]int64) bool {
			for i := range x {
				if x[i] != y[i] {
					return x[i] < y[i]
				}
			}
			return false
		}
		sort.Slice(a, func(i, j int) bool { return lessFn(a[i], a[j]) })
		sort.Slice(bkeys, func(i, j int) bool { return lessFn(bkeys[i], bkeys[j]) })
		for i := range a {
			if a[i] != bkeys[i] {
				t.Fatalf("trial %d: multiset differs at %d: %v vs %v", trial, i, a[i], bkeys[i])
			}
		}
	}
}

// TestMergeStreamsStableTieBreak: records with identical end times keep
// input-index order, so merges are reproducible byte-for-byte.
func TestMergeStreamsStableTieBreak(t *testing.T) {
	mk := func(stream int) *interval.File {
		sb := interval.NewSeekBuffer()
		w, err := interval.NewWriter(sb, interval.Header{
			ProfileVersion: profile.StdVersion,
			HeaderVersion:  interval.CurrentHeaderVersion,
			Markers:        map[uint64]string{},
		}, interval.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			r := interval.Record{
				Type: events.EvRunning, Bebits: profile.Complete,
				Start: clock.Time(i) * clock.Second, Dura: clock.Second,
				CPU: uint16(stream),
			}
			if err := w.Add(&r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := interval.NewFile(sb)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	files := []*interval.File{mk(0), mk(1), mk(2)}
	sb := interval.NewSeekBuffer()
	if _, err := merge.Merge(files, sb, merge.NoPseudo(merge.Options{Estimator: merge.EstimatorNone})); err != nil {
		t.Fatal(err)
	}
	mf, _ := interval.NewFile(sb)
	recs, _ := mf.Scan().All()
	for i, r := range recs {
		if int(r.CPU) != i%3 {
			t.Fatalf("tie-break order broken at %d: stream %d", i, r.CPU)
		}
	}
}
