package merge_test

import (
	"bytes"
	"sort"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/profile"
	"tracefw/internal/testutil"
)

// openModel is the reference open-state reconstruction the merge's
// tracker is checked against: a plain map of per-thread stacks.
type openModel map[[2]uint16][]interval.Record

func (m openModel) observe(r interval.Record) {
	k := [2]uint16{r.Node, r.Thread}
	switch r.Bebits {
	case profile.Begin:
		m[k] = append(m[k], r)
	case profile.End:
		for i := len(m[k]) - 1; i >= 0; i-- {
			if m[k][i].Type == r.Type {
				m[k] = append(m[k][:i:i], m[k][i+1:]...)
				return
			}
		}
	}
}

// prologue lists the open states as continuation records stamped at,
// ordered (node, thread, outer→inner).
func (m openModel) prologue(at clock.Time) []interval.Record {
	var keys [][2]uint16
	for k, st := range m {
		if len(st) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
	})
	var out []interval.Record
	for _, k := range keys {
		for _, r := range m[k] {
			r.Bebits, r.Start, r.Dura = profile.Continuation, at, 0
			out = append(out, r)
		}
	}
	return out
}

func encodeAll(recs []interval.Record) []byte {
	var b []byte
	for i := range recs {
		b = recs[i].Append(b)
	}
	return b
}

// TestWideTracePseudoBounded: when the open set alone is larger than
// FrameBytes, frames are sized by their regular records, so pseudo-
// intervals stay at most half of the merged file — and every frame,
// decoded alone, still opens with the complete open set.
func TestWideTracePseudoBounded(t *testing.T) {
	raws := testutil.RunWorkload(t, testutil.WideShape, testutil.NestedWork(6))
	files := testutil.ConvertRun(t, raws, interval.WriterOptions{})
	wopts := interval.WriterOptions{FrameBytes: 4096, FramesPerDir: 4}
	mf, res := testutil.MergeRun(t, files, merge.Options{Writer: wopts, Parallel: 1})
	plain, plainRes := testutil.MergeRun(t, files, merge.NoPseudo(merge.Options{Writer: wopts, Parallel: 1}))
	want, err := plain.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	if plainRes.Records != res.Records-res.Pseudo {
		t.Fatalf("regular records: %d with pseudo-intervals, %d without", res.Records-res.Pseudo, plainRes.Records)
	}

	fes, err := mf.Frames()
	if err != nil {
		t.Fatal(err)
	}
	if len(fes) < 8 {
		t.Fatalf("only %d frames; the test needs several", len(fes))
	}
	model := openModel{}
	var regular []interval.Record
	var pseudo, lastPrologue, widest int
	var lastEnd clock.Time
	for fi, fe := range fes {
		// FrameRecords decodes this frame and nothing else.
		recs, err := mf.FrameRecords(fe)
		if err != nil {
			t.Fatal(err)
		}
		open := model.prologue(lastEnd)
		if len(recs) < len(open) || !bytes.Equal(encodeAll(recs[:len(open)]), encodeAll(open)) {
			t.Fatalf("frame %d does not open with the %d states open at its start", fi, len(open))
		}
		body := recs[len(open):]
		pb, rb := len(encodeAll(open)), len(encodeAll(body))
		if fi < len(fes)-1 && (len(body) < len(open) || rb < pb || rb < wopts.FrameBytes) {
			t.Fatalf("frame %d: %d regular records (%d B) after a prologue of %d (%d B)", fi, len(body), rb, len(open), pb)
		}
		if pb > widest {
			widest = pb
		}
		pseudo += len(open)
		lastPrologue = len(open)
		for _, r := range body {
			model.observe(r)
			lastEnd = r.End()
		}
		regular = append(regular, body...)
	}
	if widest <= wopts.FrameBytes {
		t.Fatalf("widest prologue %d B does not exceed FrameBytes; widen the machine", widest)
	}
	if int64(pseudo) != res.Pseudo {
		t.Fatalf("frames open with %d pseudo-intervals, merge reported %d", pseudo, res.Pseudo)
	}
	if !bytes.Equal(encodeAll(regular), encodeAll(want)) {
		t.Fatal("regular record stream differs from the NoPseudo merge")
	}
	if n := int64(len(regular)); res.Records > 2*n+int64(lastPrologue) {
		t.Fatalf("%d records merged from %d regular: more than 2x + the last prologue (%d)", res.Records, n, lastPrologue)
	}
	if 2*res.Pseudo > res.Records {
		t.Fatalf("pseudo share %d/%d exceeds one half", res.Pseudo, res.Records)
	}
	t.Logf("%d frames, %d records, %d pseudo (%.1f%%), widest prologue %d B",
		len(fes), res.Records, res.Pseudo, 100*float64(res.Pseudo)/float64(res.Records), widest)
}

// TestPseudoIntervalsForUnlistedThreads: the format does not oblige a
// producer to list every thread in its header; states opened on threads
// the union header lacks are still tracked, and replayed in (node,
// thread) order.
func TestPseudoIntervalsForUnlistedThreads(t *testing.T) {
	sb := interval.NewSeekBuffer()
	w, err := interval.NewWriter(sb, interval.Header{
		ProfileVersion: profile.StdVersion,
		HeaderVersion:  interval.CurrentHeaderVersion,
		FieldMask:      profile.MaskIndividual,
		Threads:        []interval.ThreadEntry{{Node: 1, LTID: 2, Type: events.ThreadMPI}},
	}, interval.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var at clock.Time
	add := func(r interval.Record) {
		at += 10
		r.Node, r.Start = 1, at
		if err := w.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	for _, thread := range []uint16{3, 1, 2} {
		add(interval.Record{Type: events.EvMarkerState, Bebits: profile.Begin, Thread: thread, Extra: []uint64{1, 0, 0}})
	}
	for i := 0; i < 60; i++ {
		add(interval.Record{Type: events.EvRunning, Bebits: profile.Complete, Thread: uint16(i % 4)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := interval.NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	mf, res := testutil.MergeRun(t, []*interval.File{f}, merge.Options{
		Writer: interval.WriterOptions{FrameBytes: 256}, Parallel: 1, Estimator: merge.EstimatorNone,
	})
	fes, err := mf.Frames()
	if err != nil {
		t.Fatal(err)
	}
	if len(fes) < 3 || res.Pseudo != int64(3*(len(fes)-1)) {
		t.Fatalf("%d frames, %d pseudo-intervals; want 3 at every frame but the first", len(fes), res.Pseudo)
	}
	for fi, fe := range fes[1:] {
		recs, err := mf.FrameRecords(fe)
		if err != nil {
			t.Fatal(err)
		}
		for i, thread := range []uint16{1, 2, 3} {
			if r := recs[i]; r.Bebits != profile.Continuation || r.Thread != thread {
				t.Fatalf("frame %d record %d: %v, want a continuation on thread %d", fi+1, i, r, thread)
			}
		}
	}
}
