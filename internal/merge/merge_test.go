package merge_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/mpisim"
	"tracefw/internal/profile"
	"tracefw/internal/testutil"
)

var shape2 = testutil.Shape{
	Nodes: 2, TasksPerNode: 1, CPUs: 2, Seed: 7,
	Drifts: []float64{8e-5, -6e-5},
}

func pingPong(iters, bytes int) func(*mpisim.Proc) {
	return func(p *mpisim.Proc) {
		peer := 1 - p.Rank()
		for i := 0; i < iters; i++ {
			if p.Rank() == 0 {
				p.Send(peer, int32(i), bytes)
				p.Recv(int32(peer), int32(i))
			} else {
				p.Recv(int32(peer), int32(i))
				p.Send(peer, int32(i), bytes)
			}
		}
	}
}

func TestMergedFileOrderedByEndTime(t *testing.T) {
	mf, _ := testutil.Pipeline(t, shape2, merge.Options{}, pingPong(10, 512))
	recs, err := mf.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty merged file")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].End() < recs[i-1].End() {
			t.Fatalf("record %d end %v < previous %v", i, recs[i].End(), recs[i-1].End())
		}
	}
	// Both nodes must appear.
	nodes := map[uint16]bool{}
	for _, r := range recs {
		nodes[r.Node] = true
	}
	if !nodes[0] || !nodes[1] {
		t.Fatalf("nodes present: %v", nodes)
	}
}

func TestClockAdjustmentRestoresCausality(t *testing.T) {
	// Send must start before its matching receive ends. With ±1s clock
	// offsets the raw local timestamps grossly violate this; after the
	// merge's alignment and ratio adjustment it must hold.
	mf, _ := testutil.Pipeline(t, shape2, merge.Options{}, pingPong(20, 256))
	recs, _ := mf.Scan().All()

	type key struct{ src, dst, seq uint64 }
	sendStart := map[key]clock.Time{}
	for _, r := range recs {
		if r.Type != events.EvMPISend || (r.Bebits != profile.Complete && r.Bebits != profile.Begin) {
			continue
		}
		peer, _ := r.Field(events.FieldPeer)
		seq, _ := r.Field(events.FieldSeqno)
		// Seqno is only on the final piece; for Begin pieces it is zero,
		// so look it up from the task instead: rank == node here.
		if r.Bebits == profile.Begin {
			continue
		}
		sendStart[key{uint64(r.Node), peer, seq}] = r.Start
	}
	checked := 0
	for _, r := range recs {
		if r.Type != events.EvMPIRecv || (r.Bebits != profile.Complete && r.Bebits != profile.End) {
			continue
		}
		src, _ := r.Field(events.FieldPeer)
		seq, _ := r.Field(events.FieldSeqno)
		ss, ok := sendStart[key{src, uint64(r.Node), seq}]
		if !ok {
			continue
		}
		if r.End() < ss {
			t.Fatalf("recv (node %d seq %d) ends %v before its send starts %v", r.Node, seq, r.End(), ss)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d send/recv pairs checked", checked)
	}
}

func TestRatiosRecovered(t *testing.T) {
	_, res := testutil.Pipeline(t, shape2, merge.Options{}, func(p *mpisim.Proc) {
		p.Compute(5 * clock.Second)
		p.Barrier()
	})
	if len(res.Ratios) != 2 {
		t.Fatalf("ratios: %v", res.Ratios)
	}
	for i, drift := range shape2.Drifts {
		want := 1 / (1 + drift)
		if math.Abs(res.Ratios[i]-want) > 2e-6 {
			t.Fatalf("input %d ratio %.9f, want %.9f", i, res.Ratios[i], want)
		}
	}
}

func TestEstimatorVariants(t *testing.T) {
	raws := testutil.RunWorkload(t, shape2, func(p *mpisim.Proc) {
		p.Compute(4 * clock.Second)
		p.Barrier()
	})
	for _, est := range []merge.Estimator{
		merge.EstimatorRMS, merge.EstimatorLastPair, merge.EstimatorPiecewise, merge.EstimatorNone,
	} {
		files := testutil.ConvertRun(t, raws, interval.WriterOptions{})
		mf, res := testutil.MergeRun(t, files, merge.Options{Estimator: est})
		recs, err := mf.Scan().All()
		if err != nil || len(recs) == 0 {
			t.Fatalf("%v: recs=%d err=%v", est, len(recs), err)
		}
		if est == merge.EstimatorNone {
			for _, r := range res.Ratios {
				if r != 1 {
					t.Fatalf("EstimatorNone ratio %v", r)
				}
			}
		}
	}
}

func TestParseEstimator(t *testing.T) {
	for s, want := range map[string]merge.Estimator{
		"": merge.EstimatorRMS, "rms": merge.EstimatorRMS,
		"lastpair": merge.EstimatorLastPair, "piecewise": merge.EstimatorPiecewise,
		"none": merge.EstimatorNone,
	} {
		got, err := merge.ParseEstimator(s)
		if err != nil || got != want {
			t.Fatalf("ParseEstimator(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := merge.ParseEstimator("bogus"); err == nil {
		t.Fatal("bogus estimator accepted")
	}
}

func TestClockRecordsDroppedByDefault(t *testing.T) {
	raws := testutil.RunWorkload(t, shape2, func(p *mpisim.Proc) {
		p.Compute(3 * clock.Second)
	})
	files := testutil.ConvertRun(t, raws, interval.WriterOptions{})
	mf, _ := testutil.MergeRun(t, files, merge.Options{})
	recs, _ := mf.Scan().All()
	for _, r := range recs {
		if r.Type == events.EvGlobalClock {
			t.Fatal("clock record leaked into merged file")
		}
	}

	files2 := testutil.ConvertRun(t, raws, interval.WriterOptions{})
	mf2, _ := testutil.MergeRun(t, files2, merge.Options{KeepClockRecords: true})
	recs2, _ := mf2.Scan().All()
	kept := 0
	for _, r := range recs2 {
		if r.Type == events.EvGlobalClock {
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("KeepClockRecords kept nothing")
	}
}

func TestThreadTableUnionSorted(t *testing.T) {
	sh := testutil.Shape{Nodes: 3, TasksPerNode: 2, CPUs: 2, Seed: 9}
	mf, _ := testutil.Pipeline(t, sh, merge.Options{}, func(p *mpisim.Proc) {
		p.Spawn(events.ThreadUser, func(q *mpisim.Proc) { q.Compute(clock.Millisecond) })
		p.Barrier()
	})
	th := mf.Header.Threads
	if len(th) != 3*2*2 {
		t.Fatalf("merged thread table has %d entries", len(th))
	}
	for i := 1; i < len(th); i++ {
		a, b := th[i-1], th[i]
		if a.Node > b.Node || (a.Node == b.Node && a.LTID >= b.LTID) {
			t.Fatalf("thread table unsorted at %d: %+v %+v", i, a, b)
		}
	}
}

func TestPseudoIntervalsPlanted(t *testing.T) {
	// A long-lived marker spans many frames; every frame after its begin
	// must start with a zero-duration continuation pseudo-interval for it
	// (until its end), so a viewer jumping mid-file sees the outer state.
	sh := testutil.Shape{Nodes: 2, TasksPerNode: 1, CPUs: 1, Seed: 3}
	raws := testutil.RunWorkload(t, sh, func(p *mpisim.Proc) {
		m := p.DefineMarker("Long Phase")
		p.MarkerBegin(m)
		pingPong(100, 128)(p)
		p.MarkerEnd(m)
	})
	files := testutil.ConvertRun(t, raws, interval.WriterOptions{})
	mf, res := testutil.MergeRun(t, files, merge.Options{
		Writer: interval.WriterOptions{FrameBytes: 2048, FramesPerDir: 4},
	})
	if res.Pseudo == 0 {
		t.Fatal("no pseudo-intervals planted")
	}
	fes, err := mf.Frames()
	if err != nil {
		t.Fatal(err)
	}
	if len(fes) < 4 {
		t.Fatalf("only %d frames; test needs several", len(fes))
	}
	// Find the marker's live range.
	recs, _ := mf.Scan().All()
	var mBegin, mEnd clock.Time
	for _, r := range recs {
		if r.Type == events.EvMarkerState && r.Node == 0 {
			if r.Bebits == profile.Begin {
				mBegin = r.Start
			}
			if r.Bebits == profile.End {
				mEnd = r.End()
			}
		}
	}
	if mEnd <= mBegin {
		t.Fatalf("marker range [%v %v]", mBegin, mEnd)
	}
	// Each frame fully inside the marker's range must contain a
	// zero-duration marker continuation at its start.
	checkedFrames := 0
	for _, fe := range fes[1:] {
		if fe.Start <= mBegin || fe.End >= mEnd {
			continue
		}
		frecs, err := mf.FrameRecords(fe)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range frecs {
			if r.Type == events.EvMarkerState && r.Bebits == profile.Continuation && r.Dura == 0 && r.Node == 0 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("frame [%v %v] lacks marker pseudo-interval", fe.Start, fe.End)
		}
		checkedFrames++
	}
	if checkedFrames == 0 {
		t.Fatal("no frames inside the marker range; widen the workload")
	}
}

func TestNoPseudoOption(t *testing.T) {
	sh := testutil.Shape{Nodes: 2, TasksPerNode: 1, CPUs: 1, Seed: 3}
	raws := testutil.RunWorkload(t, sh, func(p *mpisim.Proc) {
		m := p.DefineMarker("Long Phase")
		p.MarkerBegin(m)
		pingPong(100, 128)(p)
		p.MarkerEnd(m)
	})
	files := testutil.ConvertRun(t, raws, interval.WriterOptions{})
	_, res := testutil.MergeRun(t, files, merge.NoPseudo(merge.Options{
		Writer: interval.WriterOptions{FrameBytes: 2048},
	}))
	if res.Pseudo != 0 {
		t.Fatalf("NoPseudo planted %d pseudo records", res.Pseudo)
	}
}

// adjustedRecords reads one input the way the merge's stream stage
// does, without any of its code: clock records dropped (they fed pair
// extraction), every other record's start and end passed through the
// adjuster est builds from the file's clock pairs.
func adjustedRecords(f *interval.File, est merge.Estimator) ([]interval.Record, error) {
	pairs, err := merge.ExtractPairs(f)
	if err != nil {
		return nil, err
	}
	var adj clock.Adjuster
	switch est {
	case merge.EstimatorRMS:
		adj = clock.NewRatioAdjuster(pairs)
	case merge.EstimatorNone:
		a := &clock.RatioAdjuster{R: 1}
		if len(pairs) > 0 {
			a.G0, a.L0 = pairs[0].Global, pairs[0].Local
		}
		adj = a
	default:
		return nil, fmt.Errorf("no reference adjuster for estimator %v", est)
	}
	recs, err := f.Scan().All()
	if err != nil {
		return nil, err
	}
	out := recs[:0]
	for _, r := range recs {
		if r.Type == events.EvGlobalClock {
			continue
		}
		end := adj.Global(r.End())
		r.Start = adj.Global(r.Start)
		r.Dura = end - r.Start
		out = append(out, r)
	}
	return out, nil
}

// sortReference is the merge's specification, sharing nothing with its
// loop: every input's adjusted records concatenated in input order and
// stable-sorted by end time — that is, ordered by (end, input index,
// position in the input).
func sortReference(t testing.TB, files []*interval.File, est merge.Estimator) []interval.Record {
	t.Helper()
	var all []interval.Record
	for _, f := range files {
		recs, err := adjustedRecords(f, est)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, recs...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].End() < all[j].End() })
	return all
}

func TestMergeMatchesSortReference(t *testing.T) {
	sh := testutil.Shape{Nodes: 4, TasksPerNode: 2, CPUs: 2, Seed: 11}
	work := func(p *mpisim.Proc) {
		peer := (p.Rank() + 1) % p.Size()
		for i := 0; i < 5; i++ {
			p.Isend(peer, int32(i), 1024)
			p.Recv(mpisim.AnySource, int32(i))
			p.Compute(clock.Millisecond)
		}
		p.Barrier()
	}
	raws := testutil.RunWorkload(t, sh, work)
	mf, _ := testutil.MergeRun(t, testutil.ConvertRun(t, raws, interval.WriterOptions{}), merge.NoPseudo(merge.Options{}))
	got, err := mf.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	want := sortReference(t, testutil.ConvertRun(t, raws, interval.WriterOptions{}), merge.EstimatorRMS)
	if len(got) == 0 || !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatalf("merged %d records differ from the %d of the sorted reference", len(got), len(want))
	}
}

func TestRecordCountsAddUp(t *testing.T) {
	raws := testutil.RunWorkload(t, shape2, pingPong(10, 128))
	files := testutil.ConvertRun(t, raws, interval.WriterOptions{})
	var inputRecords, inputClock int64
	for _, f := range files {
		recs, err := f.Scan().All()
		if err != nil {
			t.Fatal(err)
		}
		inputRecords += int64(len(recs))
		for _, r := range recs {
			if r.Type == events.EvGlobalClock {
				inputClock++
			}
		}
	}
	files2 := testutil.ConvertRun(t, raws, interval.WriterOptions{})
	mf, res := testutil.MergeRun(t, files2, merge.Options{})
	recs, _ := mf.Scan().All()
	want := inputRecords - inputClock + res.Pseudo
	if int64(len(recs)) != want {
		t.Fatalf("merged %d records, want %d (inputs %d - clock %d + pseudo %d)",
			len(recs), want, inputRecords, inputClock, res.Pseudo)
	}
	if res.Records != int64(len(recs)) {
		t.Fatalf("result.Records=%d, file has %d", res.Records, len(recs))
	}
}

func TestMergeDeterministic(t *testing.T) {
	raws := testutil.RunWorkload(t, shape2, pingPong(25, 2048))
	out := func() []byte {
		files := testutil.ConvertRun(t, raws, interval.WriterOptions{})
		sb := interval.NewSeekBuffer()
		if _, err := merge.Merge(files, sb, merge.Options{}); err != nil {
			t.Fatal(err)
		}
		return sb.Bytes()
	}
	if string(out()) != string(out()) {
		t.Fatal("merge not deterministic")
	}
}

func TestMergeEmptyInputs(t *testing.T) {
	if _, err := merge.Merge(nil, interval.NewSeekBuffer(), merge.Options{}); err == nil {
		t.Fatal("merge of nothing accepted")
	}
}

func TestExtractPairs(t *testing.T) {
	raws := testutil.RunWorkload(t, shape2, func(p *mpisim.Proc) {
		p.Compute(2500 * clock.Millisecond)
	})
	files := testutil.ConvertRun(t, raws, interval.WriterOptions{})
	pairs, err := merge.ExtractPairs(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) < 3 {
		t.Fatalf("extracted %d pairs", len(pairs))
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Global <= pairs[i-1].Global {
			t.Fatalf("pairs out of order: %+v", pairs)
		}
	}
	// Rescanning after ExtractPairs must still work (fresh scanner).
	if _, err := files[0].Scan().All(); err != nil {
		t.Fatal(err)
	}
}

func TestOutlierFilteredMerge(t *testing.T) {
	// Hand-build an interval file with an outlier clock pair and check
	// the filter keeps the ratio sane.
	sb := interval.NewSeekBuffer()
	w, err := interval.NewWriter(sb, interval.Header{
		ProfileVersion: profile.StdVersion,
		HeaderVersion:  interval.CurrentHeaderVersion,
		FieldMask:      profile.MaskIndividual,
		Markers:        map[uint64]string{},
	}, interval.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	drift := 1e-4
	for i := 0; i < 20; i++ {
		local := clock.Time(float64(i) * float64(clock.Second) * (1 + drift))
		global := clock.Time(i) * clock.Second
		if i == 10 {
			global -= 5 * clock.Millisecond // stale global read (de-schedule)
		}
		rec := interval.Record{
			Type: events.EvGlobalClock, Bebits: profile.Complete,
			Start: local, Extra: []uint64{uint64(global)},
		}
		if err := w.Add(&rec); err != nil {
			t.Fatal(err)
		}
	}
	run := interval.Record{Type: events.EvRunning, Bebits: profile.Complete,
		Start: clock.Time(19) * clock.Second, Dura: clock.Second}
	if err := w.Add(&run); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := interval.NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	_, res := testutil.MergeRun(t, []*interval.File{f}, merge.Options{OutlierTol: 1e-3})
	want := 1 / (1 + drift)
	if math.Abs(res.Ratios[0]-want) > 1e-7 {
		t.Fatalf("filtered ratio %.9f, want %.9f", res.Ratios[0], want)
	}
	// Without filtering the outlier perturbs the estimate measurably.
	f2, _ := interval.NewFile(sb)
	_, res2 := testutil.MergeRun(t, []*interval.File{f2}, merge.Options{})
	if math.Abs(res2.Ratios[0]-want) <= math.Abs(res.Ratios[0]-want) {
		t.Fatalf("unfiltered ratio %.9f unexpectedly at least as good as filtered %.9f",
			res2.Ratios[0], res.Ratios[0])
	}
}

func TestMergedFileScansCleanly(t *testing.T) {
	mf, _ := testutil.Pipeline(t, shape2, merge.Options{
		Writer: interval.WriterOptions{FrameBytes: 1024, FramesPerDir: 2},
	}, pingPong(50, 4096))
	sc := mf.Scan()
	n := 0
	for {
		_, err := sc.NextRecord()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	first, last, total, err := mf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if int(total) != n {
		t.Fatalf("dir stats say %d records, scan found %d", total, n)
	}
	if last <= first {
		t.Fatalf("span [%v %v]", first, last)
	}
}
