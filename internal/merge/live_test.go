package merge_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/profile"
	"tracefw/internal/xrand"
)

// synthStateFile builds a per-node input with nested Begin/End states
// and periodic global-clock records — the shapes that exercise the
// pseudo-interval tracker and the clock-record filter.
func synthStateFile(t *testing.T, rng *xrand.Rand, node, n int) *interval.File {
	t.Helper()
	sb := interval.NewSeekBuffer()
	w, err := interval.NewWriter(sb, interval.Header{
		ProfileVersion: profile.StdVersion,
		HeaderVersion:  interval.CurrentHeaderVersion,
		FieldMask:      profile.MaskIndividual,
		Threads: []interval.ThreadEntry{
			{Task: int32(node), Node: uint16(node), LTID: 0, Type: events.ThreadMPI},
		},
		Markers: map[uint64]string{},
	}, interval.WriterOptions{FrameBytes: 256, FramesPerDir: 2})
	if err != nil {
		t.Fatal(err)
	}
	end := clock.Time(rng.Int63n(1000))
	depth := 0
	for i := 0; i < n; i++ {
		end += clock.Time(rng.Int63n(int64(clock.Millisecond)))
		r := interval.Record{
			Start: end, Dura: 0,
			Node: uint16(node), Thread: 0, CPU: uint16(node),
		}
		switch {
		case i%17 == 0:
			r.Type = events.EvGlobalClock
			r.Bebits = profile.Complete
			r.Extra = []uint64{uint64(end) + uint64(node)*1000}
		case depth < 3 && i%3 == 0:
			r.Type = events.EvMPISend
			r.Bebits = profile.Begin
			r.Extra = []uint64{uint64(i), 1, 64, 0, 0, 0}
			depth++
		case depth > 0 && i%5 == 0:
			r.Type = events.EvMPISend
			r.Bebits = profile.End
			r.Extra = []uint64{uint64(i), 1, 64, 0, 0, 0}
			depth--
		default:
			r.Type = events.EvRunning
			r.Bebits = profile.Complete
			dura := clock.Time(rng.Int63n(int64(clock.Millisecond)))
			r.Start, r.Dura = end-dura, dura
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

// pushFile replays one input file into a live source exactly as the
// batch merge's stream stage would see it under EstimatorNone
// (adjustedRecords).
func pushFile(t *testing.T, f *interval.File, src *merge.LiveSource) {
	recs, err := adjustedRecords(f, merge.EstimatorNone)
	if err != nil {
		t.Error(err)
		src.Fail(err)
		return
	}
	for i := range recs {
		if err := src.Push(&recs[i]); err != nil {
			t.Error(err)
			return
		}
	}
	src.CloseSend()
}

// TestLiveMergeByteIdentical: concurrent producers feeding LiveSources
// yield a file byte-identical to the batch Merge of the same inputs
// under EstimatorNone, with and without pseudo-intervals and at tiny
// queue capacities (exercising backpressure).
func TestLiveMergeByteIdentical(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		k := 1 + trial%5
		mkFiles := func() []*interval.File {
			r := xrand.New(uint64(7000 + trial))
			files := make([]*interval.File, k)
			for s := 0; s < k; s++ {
				files[s] = synthStateFile(t, r, s, 100+r.Intn(300))
			}
			return files
		}
		opts := merge.Options{
			Estimator: merge.EstimatorNone,
			Parallel:  1,
			Writer:    interval.WriterOptions{FrameBytes: 512, FramesPerDir: 2},
		}
		if trial%4 == 1 {
			opts = merge.NoPseudo(opts)
		}

		refOut := interval.NewSeekBuffer()
		refRes, err := merge.Merge(mkFiles(), refOut, opts)
		if err != nil {
			t.Fatalf("trial %d: batch merge: %v", trial, err)
		}

		files := mkFiles()
		hdrs := make([]interval.Header, k)
		sources := make([]*merge.LiveSource, k)
		for i, f := range files {
			hdrs[i] = f.Header
			sources[i] = merge.NewLiveSource(4) // tiny: force backpressure
		}
		liveOut := interval.NewSeekBuffer()
		live, err := merge.NewLive(liveOut, hdrs, sources, opts)
		if err != nil {
			t.Fatalf("trial %d: NewLive: %v", trial, err)
		}
		var wg sync.WaitGroup
		for i := range files {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				pushFile(t, files[i], sources[i])
			}(i)
		}
		if err := live.Run(); err != nil {
			t.Fatalf("trial %d: live merge: %v", trial, err)
		}
		wg.Wait()
		if !bytes.Equal(liveOut.Bytes(), refOut.Bytes()) {
			t.Fatalf("trial %d: live merge differs from batch merge (%d vs %d bytes)",
				trial, liveOut.Len(), refOut.Len())
		}
		if live.Result().Records != refRes.Records || live.Result().Pseudo != refRes.Pseudo {
			t.Fatalf("trial %d: result mismatch: %+v vs %+v", trial, live.Result(), refRes)
		}
		if trial%4 == 1 {
			// Without prologues both are the sorted reference, record for
			// record.
			lf, err := interval.NewFile(liveOut)
			if err != nil {
				t.Fatal(err)
			}
			got, err := lf.Scan().All()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeAll(got), encodeAll(sortReference(t, mkFiles(), merge.EstimatorNone))) {
				t.Fatalf("trial %d: live merge differs from the sorted reference", trial)
			}
		}
	}
}

// TestLiveMergeFailurePropagates: a failed source unblocks the merge
// with its error, poisons sibling producers, and still seals the
// already-merged prefix into an openable file.
func TestLiveMergeFailurePropagates(t *testing.T) {
	boom := errors.New("node crashed")
	sources := []*merge.LiveSource{merge.NewLiveSource(0), merge.NewLiveSource(0)}
	hdrs := []interval.Header{
		{ProfileVersion: profile.StdVersion, Markers: map[uint64]string{}},
		{ProfileVersion: profile.StdVersion, Markers: map[uint64]string{}},
	}
	out := interval.NewSeekBuffer()
	live, err := merge.NewLive(out, hdrs, sources, merge.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := interval.Record{Type: events.EvRunning, Bebits: profile.Complete, Start: 1, Dura: 1}
	if err := sources[0].Push(&r); err != nil {
		t.Fatal(err)
	}
	sources[0].CloseSend()
	sources[1].Fail(boom)
	if err := live.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want %v", err, boom)
	}
	if err := sources[0].Push(&r); err == nil {
		t.Fatal("push on a poisoned sibling source succeeded")
	}
	if _, err := interval.NewFile(interval.NewSeekBufferFrom(out.Bytes())); err != nil {
		t.Fatalf("merged prefix after failure not openable: %v", err)
	}
}

// TestLiveSourcePushCopiesSlices: the queue must own deep copies of
// Extra/Vec. The streaming converter back-patches a marker's end
// address into the open state's extra slice after the begin piece was
// already emitted; if Push aliased that slice, records queued during
// the marker would diverge from the batch pipeline, which encodes at
// emit time. The record is mutated while its chunk is still the
// producer's and again after the chunk is published.
func TestLiveSourcePushCopiesSlices(t *testing.T) {
	s := merge.NewLiveSource(4)
	r := interval.Record{
		Type:   events.EvMarkerState,
		Bebits: profile.Begin,
		Start:  1,
		Extra:  []uint64{7, 42, 0},
		Vec:    []uint64{5},
	}
	if err := s.Push(&r); err != nil {
		t.Fatal(err)
	}
	r.Extra[2] = 99 // the converter's endAddr back-patch, chunk still open
	r.Vec[0] = 99
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	r.Extra[1] = 98 // and after the chunk is published
	r.Vec[0] = 98
	if err := s.Advance(); err != nil {
		t.Fatal(err)
	}
	got := s.Current()
	if got.Extra[1] != 42 || got.Extra[2] != 0 {
		t.Fatalf("queued record saw post-push Extra mutation: extras=%v", got.Extra)
	}
	if got.Vec[0] != 5 {
		t.Fatalf("queued record saw post-push Vec mutation: vec=%v", got.Vec)
	}
}

// advanceAll reads a source to its end and returns the starts of the
// records it delivered, or the error that ended it.
func advanceAll(s *merge.LiveSource) ([]clock.Time, error) {
	var starts []clock.Time
	for {
		if err := s.Advance(); err != nil {
			return starts, err
		}
		if _, done := s.CurrentEnd(); done {
			return starts, nil
		}
		starts = append(starts, s.Current().Start)
	}
}

// TestLiveSourceCloseSemantics: pushes after CloseSend fail and an
// empty closed source reads as immediately done; CloseSend publishes a
// partial chunk; Fail mid-chunk delivers the records already published,
// then the error, and drops the ones still in the open chunk.
func TestLiveSourceCloseSemantics(t *testing.T) {
	s := merge.NewLiveSource(2)
	s.CloseSend()
	r := interval.Record{Type: events.EvRunning, Bebits: profile.Complete}
	if err := s.Push(&r); !errors.Is(err, merge.ErrSourceClosed) {
		t.Fatalf("push after CloseSend: %v", err)
	}
	if err := s.Advance(); err != nil {
		t.Fatal(err)
	}
	if _, done := s.CurrentEnd(); !done {
		t.Fatal("closed empty source not done")
	}

	// CloseSend publishes what the open chunk holds.
	s = merge.NewLiveSource(0)
	for i := 0; i < 3; i++ {
		r.Start = clock.Time(i)
		if err := s.Push(&r); err != nil {
			t.Fatal(err)
		}
	}
	if s.ChunkLen() <= 3 {
		t.Fatalf("chunks of %d records: three pushes fill one", s.ChunkLen())
	}
	s.CloseSend()
	if got, err := advanceAll(s); err != nil || len(got) != 3 || got[2] != 2 {
		t.Fatalf("closed partial chunk delivered %v, %v; want 3 records", got, err)
	}

	// Fail mid-chunk: one record published by Flush, two more open.
	boom := errors.New("node crashed")
	s = merge.NewLiveSource(0)
	r.Start = 10
	if err := s.Push(&r); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 11; i < 13; i++ {
		r.Start = clock.Time(i)
		if err := s.Push(&r); err != nil {
			t.Fatal(err)
		}
	}
	s.Fail(boom)
	if err := s.Push(&r); !errors.Is(err, boom) {
		t.Fatalf("push after Fail: %v", err)
	}
	if err := s.Flush(); !errors.Is(err, boom) {
		t.Fatalf("flush after Fail: %v", err)
	}
	if got, err := advanceAll(s); !errors.Is(err, boom) || len(got) != 1 || got[0] != 10 {
		t.Fatalf("failed source delivered %v, %v; want the published record, then %v", got, err, boom)
	}
	if _, done := s.CurrentEnd(); !done {
		t.Fatal("failed source not done")
	}
	s.CloseSend() // a producer finishing after the failure: no effect

	// A drained source gives every chunk back, the empty one its last
	// publish handed the producer included: a session that finishes
	// holds its sources until it is deleted, so a queue that lived as
	// long as its source would pin ~0.6 MB per node per session, and a
	// chunk kept back ~40 KB.
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	const n, depth = 64, 4096
	finished := make([]*merge.LiveSource, n)
	for i := range finished {
		src := merge.NewLiveSource(depth)
		for j := 0; j < depth; j++ {
			r.Start = clock.Time(j)
			if err := src.Push(&r); err != nil {
				t.Fatal(err)
			}
		}
		src.CloseSend()
		for done := false; !done; _, done = src.CurrentEnd() {
			if err := src.Advance(); err != nil {
				t.Fatal(err)
			}
		}
		finished[i] = src
	}
	if grew := int64(heap()) - int64(before); grew > 1<<20 {
		t.Fatalf("%d finished sources still hold %d KiB", n, grew>>10)
	}
	runtime.KeepAlive(finished)
}

// TestLiveSourceWakesOnPartialChunk: a consumer blocked in Advance wakes
// when the producer publishes fewer records than a chunk holds — what an
// ingest node does at the end of every batch — and again at CloseSend.
func TestLiveSourceWakesOnPartialChunk(t *testing.T) {
	s := merge.NewLiveSource(0)
	got := make(chan []clock.Time, 1)
	errc := make(chan error, 1)
	go func() {
		var starts []clock.Time
		for len(starts) < 2 {
			if err := s.Advance(); err != nil {
				errc <- err
				return
			}
			starts = append(starts, s.Current().Start)
		}
		got <- starts
		rest, err := advanceAll(s)
		if err == nil && len(rest) != 0 {
			err = fmt.Errorf("%d records after CloseSend", len(rest))
		}
		errc <- err
	}()
	for i := 1; i <= 2; i++ {
		r := interval.Record{Type: events.EvRunning, Bebits: profile.Complete, Start: clock.Time(i)}
		if err := s.Push(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case starts := <-got:
		if starts[0] != 1 || starts[1] != 2 {
			t.Fatalf("records arrived as %v", starts)
		}
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatalf("consumer still blocked after a %d-record chunk of %d was published", 2, s.ChunkLen())
	}
	s.CloseSend()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("consumer still blocked after CloseSend")
	}
}

// TestLiveSourceRingIsBounded: a consumer that lags behind its producer
// — it takes the next record only once the producer is capacity-1
// records ahead, as far as the bound lets it get while the consumer
// holds a chunk, so the queue never drains — sees at most the capacity in
// published records and at most the capacity plus one chunk in record
// slots over 100 000 pushes, and every record arrives intact and in
// order. Unbound then lets the queue grow past the capacity for a drain,
// and the drain still delivers everything.
func TestLiveSourceRingIsBounded(t *testing.T) {
	const capRecords, pushes = 64, 100_000
	s := merge.NewLiveSource(capRecords)
	bound := capRecords + s.ChunkLen()
	var pushed atomic.Int64
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		for i := 0; i < pushes; i++ {
			r := interval.Record{Type: events.EvMPISend, Bebits: profile.Complete, Start: clock.Time(i),
				Extra: []uint64{uint64(i), 1, 2, 3, 4, 5}}
			if err := s.Push(&r); err != nil {
				t.Error(err)
				return
			}
			pushed.Add(1)
		}
		if err := s.Flush(); err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < pushes; i++ {
		for pushed.Load() < int64(min(i+capRecords-1, pushes)) {
			runtime.Gosched()
		}
		if err := s.Advance(); err != nil {
			t.Fatal(err)
		}
		if r := s.Current(); r.Start != clock.Time(i) || len(r.Extra) != 6 || r.Extra[0] != uint64(i) {
			t.Fatalf("record %d arrived as %v %v", i, r, r.Extra)
		}
		if n := s.Published(); n > capRecords {
			t.Fatalf("after %d records %d are published, capacity %d", i+1, n, capRecords)
		}
		if n := s.Slots(); n > bound {
			t.Fatalf("after %d records the chunks hold %d slots, capacity %d plus a %d-record chunk",
				i+1, n, capRecords, s.ChunkLen())
		}
	}

	<-produced // one producer at a time: this goroutine takes over
	s.Unbound()
	const drain = 10 * capRecords
	for i := 0; i < drain; i++ {
		r := interval.Record{Type: events.EvRunning, Bebits: profile.Complete, Start: clock.Time(pushes + i)}
		if err := s.Push(&r); err != nil {
			t.Fatal(err)
		}
	}
	s.CloseSend()
	if n := s.Published(); n < drain {
		t.Fatalf("an unbounded source publishes %d records of %d", n, drain)
	}
	for i := 0; ; i++ {
		if err := s.Advance(); err != nil {
			t.Fatal(err)
		}
		if _, done := s.CurrentEnd(); done {
			if i != drain {
				t.Fatalf("drained %d records of %d", i, drain)
			}
			break
		}
		if got := s.Current().Start; got != clock.Time(pushes+i) {
			t.Fatalf("drained record %d has start %d", i, got)
		}
	}
}
