package ingest_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"tracefw/internal/convert"
	"tracefw/internal/core"
	"tracefw/internal/events"
	"tracefw/internal/ingest"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/testutil"
	"tracefw/internal/trace"
	"tracefw/internal/workload"
	"tracefw/internal/xrand"
)

// genRaws runs a random SPMD workload and returns the per-node raw
// trace bytes — the exact streams a live system would POST to ingest.
func genRaws(t *testing.T, seed uint64, nodes, steps int) [][]byte {
	t.Helper()
	drifts := make([]float64, nodes)
	for i := range drifts {
		drifts[i] = float64(i-1) * 30e-6
	}
	raws, _, err := core.Generate(core.Config{
		Nodes:        nodes,
		CPUsPerNode:  2,
		TasksPerNode: 2,
		Seed:         seed,
		Drifts:       drifts,
	}, workload.Random{Seed: seed, Steps: steps}.Main())
	if err != nil {
		t.Fatal(err)
	}
	return raws
}

// referenceMerge runs the batch pipeline — convert all, merge with
// EstimatorNone — over the same raw traces, with the same merged-file
// writer options the ingest path uses. This is the oracle every ingest
// result must match byte for byte.
func referenceMerge(t *testing.T, raws [][]byte, wopts interval.WriterOptions) []byte {
	t.Helper()
	outs, _, err := convert.ConvertBuffers(raws, convert.Options{
		Writer: interval.WriterOptions{FrameBytes: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	files := make([]*interval.File, len(outs))
	for i, sb := range outs {
		if files[i], err = interval.NewFile(sb); err != nil {
			t.Fatal(err)
		}
	}
	msb := interval.NewSeekBuffer()
	if _, err := merge.Merge(files, msb, merge.Options{
		Estimator: merge.EstimatorNone,
		Writer:    wopts,
		Parallel:  1,
	}); err != nil {
		t.Fatal(err)
	}
	return msb.Bytes()
}

// preambleCut returns the end offset of the last thread-info or
// marker-define record: everything up to it is the node's preamble
// batch (raw header plus whole records declaring all tables).
func preambleCut(t *testing.T, raw []byte) int {
	t.Helper()
	off := convert.RawHeaderSize
	cut := off
	for off < len(raw) {
		rec, n, err := trace.Decode(raw[off:])
		if err != nil {
			t.Fatalf("raw trace undecodable at %d: %v", off, err)
		}
		off += n
		if rec.Type == events.EvThreadInfo || rec.Type == events.EvMarkerDefine {
			cut = off
		}
	}
	return cut
}

// splitBatches cuts a raw trace into a preamble batch plus randomly
// sized byte chunks that deliberately ignore record boundaries.
func splitBatches(t *testing.T, rng *xrand.Rand, raw []byte) [][]byte {
	t.Helper()
	cut := preambleCut(t, raw)
	batches := [][]byte{raw[:cut]}
	rest := raw[cut:]
	for len(rest) > 0 {
		n := 1 + rng.Intn(2000)
		if n > len(rest) {
			n = len(rest)
		}
		batches = append(batches, rest[:n])
		rest = rest[n:]
	}
	return batches
}

// feedNode posts one node's batches, occasionally swapping adjacent
// sequence numbers to exercise the reordering window.
func feedNode(t *testing.T, s *ingest.Session, nodeIdx int, batches [][]byte, rng *xrand.Rand) {
	order := make([]int, len(batches))
	for i := range order {
		order[i] = i
	}
	for i := 1; i+1 < len(order); i += 2 {
		if rng.Intn(3) == 0 {
			order[i], order[i+1] = order[i+1], order[i]
		}
	}
	for _, idx := range order {
		last := idx == len(batches)-1
		if err := s.Batch(nodeIdx, uint64(idx), last, batches[idx]); err != nil {
			t.Errorf("node %d batch %d: %v", nodeIdx, idx, err)
			return
		}
	}
}

// TestIngestSingleBatchPerNode: each node POSTs its entire raw stream
// as batch 0 with last set (the curl one-liner from the README). The
// barrier replay must finish such nodes even though nothing is pending
// after it — a regression guard for the session hanging in streaming —
// and the result must still match the batch pipeline byte for byte.
func TestIngestSingleBatchPerNode(t *testing.T) {
	raws := genRaws(t, 11, 2, 30)
	wopts := interval.WriterOptions{FrameBytes: 2048, FramesPerDir: 2}
	want := referenceMerge(t, raws, wopts)

	m, err := ingest.NewManager(ingest.Config{Dir: t.TempDir(), Writer: wopts})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Begin("oneshot", len(raws))
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range raws {
		if err := s.Batch(i, 0, true, raw); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	if err := s.Wait(); err != nil {
		t.Fatalf("session: %v", err)
	}
	if st := s.State(); st != ingest.StateDone {
		t.Fatalf("state %v", st)
	}
	got, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("single-batch ingest differs from batch pipeline (%d vs %d bytes)", len(got), len(want))
	}
}

// TestIngestMatchesBatchPipeline: streaming per-node batches (split at
// arbitrary byte positions, posted out of order, through tiny queues
// that force backpressure) yields a final file byte-identical to the
// batch convert→merge pipeline over the same raw traces.
func TestIngestMatchesBatchPipeline(t *testing.T) {
	var runs [][][]byte
	for seed := uint64(1); seed <= 4; seed++ {
		runs = append(runs, genRaws(t, seed, 2+int(seed%2), 40))
	}
	// A wide machine: the open set alone overflows FrameBytes, so
	// frames are sized by their regular records.
	runs = append(runs, testutil.RunWorkload(t, testutil.WideShape, testutil.NestedWork(4)))
	for i, raws := range runs {
		seed, nodes := uint64(i+1), len(raws)
		wopts := interval.WriterOptions{FrameBytes: 2048, FramesPerDir: 2}
		want := referenceMerge(t, raws, wopts)

		m, err := ingest.NewManager(ingest.Config{
			Dir:          t.TempDir(),
			Writer:       wopts,
			QueueRecords: 64, // tiny: exercise backpressure
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.Begin(fmt.Sprintf("trace%d", seed), nodes)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := range raws {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rng := xrand.New(seed*100 + uint64(i))
				feedNode(t, s, i, splitBatches(t, rng, raws[i]), rng)
			}(i)
		}
		wg.Wait()
		if err := s.Wait(); err != nil {
			t.Fatalf("seed %d: session: %v", seed, err)
		}
		if st := s.State(); st != ingest.StateDone {
			t.Fatalf("seed %d: state %v", seed, st)
		}
		got, err := os.ReadFile(s.Path())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: ingested file differs from batch pipeline (%d vs %d bytes)",
				seed, len(got), len(want))
		}
		si, gen := s.Sealed()
		if gen == 0 || !si.Final || si.Size != int64(len(got)) {
			t.Fatalf("seed %d: final seal %+v gen %d, file %d bytes", seed, si, gen, len(got))
		}
		st := m.Stats()
		if st.SessionsDone != 1 || st.SessionsActive != 0 || st.Seals == 0 {
			t.Fatalf("seed %d: stats %+v", seed, st)
		}
	}
}

// TestIngestLiveTailQueries: while batches stream in, snapshots opened
// at every published seal generation expose exactly a prefix of the
// batch-pipeline reference records — the trace is queryable mid-flight
// with no torn or invented data.
func TestIngestLiveTailQueries(t *testing.T) {
	const nodes = 3
	raws := genRaws(t, 7, nodes, 60)
	wopts := interval.WriterOptions{FrameBytes: 1024, FramesPerDir: 2}
	want := referenceMerge(t, raws, wopts)
	wf, err := interval.NewFile(interval.NewSeekBufferFrom(want))
	if err != nil {
		t.Fatal(err)
	}
	wantRecs, err := wf.Scan().All()
	if err != nil {
		t.Fatal(err)
	}

	m, err := ingest.NewManager(ingest.Config{
		Dir:          t.TempDir(),
		Writer:       wopts,
		QueueRecords: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Begin("live", nodes)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := range raws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := xrand.New(900 + uint64(i))
			feedNode(t, s, i, splitBatches(t, rng, raws[i]), rng)
		}(i)
	}

	// Reader: poll the seal generation and verify every snapshot.
	snapshots := 0
	var lastGen uint64
	done := make(chan struct{})
	go func() { wg.Wait(); s.Wait(); close(done) }()
	for {
		si, gen := s.Sealed()
		if gen > lastGen {
			lastGen = gen
			path, size, _, ready := s.LiveInfo()
			if !ready {
				t.Fatal("seal published but LiveInfo not ready")
			}
			if size < si.Size {
				t.Fatalf("LiveInfo size %d behind seal %d", size, si.Size)
			}
			f, err := interval.Open(path, interval.WithLiveTail(size), interval.WithPyramid(false))
			if err != nil {
				t.Fatalf("snapshot at gen %d (size %d): %v", gen, size, err)
			}
			recs, err := f.Scan().All()
			f.Close()
			if err != nil {
				t.Fatalf("snapshot scan at gen %d: %v", gen, err)
			}
			if len(recs) > len(wantRecs) {
				t.Fatalf("snapshot has %d records, reference only %d", len(recs), len(wantRecs))
			}
			for i := range recs {
				if !reflect.DeepEqual(recs[i], wantRecs[i]) {
					t.Fatalf("snapshot record %d differs from reference:\n%+v\n%+v",
						i, recs[i], wantRecs[i])
				}
			}
			snapshots++
		}
		select {
		case <-done:
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
			if snapshots == 0 {
				t.Fatal("no mid-flight snapshots observed")
			}
			// The final snapshot is the whole reference.
			si, _ := s.Sealed()
			if !si.Final || si.Size != int64(len(want)) {
				t.Fatalf("final seal %+v, want size %d", si, len(want))
			}
			return
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestIngestDrain: draining mid-stream closes open states exactly as
// the batch converter does at end of trace and seals a valid file whose
// records are a prefix-consistent merge of what each node delivered.
func TestIngestDrain(t *testing.T) {
	const nodes = 2
	raws := genRaws(t, 11, nodes, 40)
	wopts := interval.WriterOptions{FrameBytes: 2048, FramesPerDir: 2}

	m, err := ingest.NewManager(ingest.Config{Dir: t.TempDir(), Writer: wopts})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Begin("drainme", nodes)
	if err != nil {
		t.Fatal(err)
	}
	// Feed only a portion of each node's stream, cut mid-record.
	for i, raw := range raws {
		cut := preambleCut(t, raw)
		if err := s.Batch(i, 0, false, raw[:cut]); err != nil {
			t.Fatal(err)
		}
		part := (len(raw) - cut) / 3
		if err := s.Batch(i, 1, false, raw[cut:cut+part]); err != nil {
			t.Fatal(err)
		}
	}
	m.DrainAll()
	if st := s.State(); st != ingest.StateDone {
		t.Fatalf("state after drain: %v (%v)", st, s.Err())
	}
	f, err := interval.Open(s.Path(), interval.WithPyramid(false))
	if err != nil {
		t.Fatalf("drained file: %v", err)
	}
	defer f.Close()
	if _, err := f.Scan().All(); err != nil {
		t.Fatalf("drained file scan: %v", err)
	}
	// New sessions are refused while draining.
	if _, err := m.Begin("later", 1); !errors.Is(err, ingest.ErrDraining) {
		t.Fatalf("Begin while draining: %v", err)
	}
}

// TestIngestSequencer: the per-node sequencing rules — duplicates,
// window overflow, oversized batches, unknown nodes, posts after the
// final batch — are each rejected with their sentinel error.
func TestIngestSequencer(t *testing.T) {
	raws := genRaws(t, 13, 1, 10)
	m, err := ingest.NewManager(ingest.Config{
		Dir:            t.TempDir(),
		MaxBatchBytes:  1 << 20,
		PendingBatches: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Begin("seq", 1)
	if err != nil {
		t.Fatal(err)
	}
	raw := raws[0]
	cut := preambleCut(t, raw)
	check := func(err, want error) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Fatalf("got %v, want %v", err, want)
		}
	}
	check(s.Batch(5, 0, false, raw[:cut]), ingest.ErrUnknownNode)
	check(s.Batch(0, 9, false, nil), ingest.ErrWindow)
	check(s.Batch(0, 0, false, make([]byte, 1<<20+1)), ingest.ErrTooLarge)
	if err := s.Batch(0, 1, false, raw[cut:cut+10]); err != nil {
		t.Fatal(err)
	}
	check(s.Batch(0, 1, false, raw[cut:cut+10]), ingest.ErrDuplicate)
	if err := s.Batch(0, 0, false, raw[:cut]); err != nil {
		t.Fatal(err)
	}
	check(s.Batch(0, 0, false, raw[:cut]), ingest.ErrDuplicate)
	if err := s.Batch(0, 2, true, raw[cut+10:]); err != nil {
		t.Fatal(err)
	}
	check(s.Batch(0, 3, false, nil), ingest.ErrFinished)
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	check(s.Batch(0, 3, false, nil), ingest.ErrSessionDone)
	if m.Stats().Errors == 0 {
		t.Fatal("sequencing violations not counted")
	}
}

// TestIngestManager: name validation, duplicate traces, and abort.
func TestIngestManager(t *testing.T) {
	m, err := ingest.NewManager(ingest.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", ".hidden", "a/b", "../x", "a b", string(make([]byte, 200))} {
		if _, err := m.Begin(bad, 1); !errors.Is(err, ingest.ErrBadName) {
			t.Fatalf("Begin(%q): %v", bad, err)
		}
	}
	if _, err := m.Begin("ok", 0); err == nil {
		t.Fatal("Begin with zero nodes succeeded")
	}
	s, err := m.Begin("ok", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Begin("ok", 2); !errors.Is(err, ingest.ErrExists) {
		t.Fatalf("duplicate Begin: %v", err)
	}
	if got, okk := m.Get("ok"); !okk || got != s {
		t.Fatal("Get lost the session")
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); !errors.Is(err, ingest.ErrAborted) {
		t.Fatalf("Wait after abort: %v", err)
	}
	if st := s.State(); st != ingest.StateFailed {
		t.Fatalf("state after abort: %v", st)
	}
	m.Remove("ok")
	if _, okk := m.Get("ok"); okk {
		t.Fatal("Remove kept the session")
	}
	if _, err := ingest.NewManager(ingest.Config{Dir: ""}); err == nil {
		t.Fatal("NewManager with no dir succeeded")
	}
	if _, err := ingest.NewManager(ingest.Config{Dir: "/no/such/dir/anywhere"}); err == nil {
		t.Fatal("NewManager with missing dir succeeded")
	}
}

// TestIngestBadPreamble: a first batch that is not a self-contained
// preamble — wrong node id, mid-record cut, or post-preamble threads —
// fails the session while keeping any sealed prefix valid.
func TestIngestBadPreamble(t *testing.T) {
	raws := genRaws(t, 17, 2, 15)
	newSession := func() (*ingest.Manager, *ingest.Session) {
		m, err := ingest.NewManager(ingest.Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.Begin("bad", 2)
		if err != nil {
			t.Fatal(err)
		}
		return m, s
	}

	// Node 1's stream posted as node 0: the raw header's node id must
	// match the URL's node index or the merge order would be wrong.
	_, s := newSession()
	cut := preambleCut(t, raws[1])
	if err := s.Batch(0, 0, true, raws[1][:cut]); err == nil {
		t.Fatal("cross-node preamble accepted")
	}
	if st := s.State(); st != ingest.StateFailed {
		t.Fatalf("state after bad preamble: %v", st)
	}

	// A preamble cut mid-record is rejected (it must be self-contained).
	_, s = newSession()
	cut = preambleCut(t, raws[0])
	if err := s.Batch(0, 0, false, raws[0][:cut-3]); err == nil {
		t.Fatal("torn preamble accepted")
	}

	// Garbage that is not a raw trace at all.
	_, s = newSession()
	if err := s.Batch(0, 0, false, []byte("not a trace")); err == nil {
		t.Fatal("garbage preamble accepted")
	}
}

// TestBatchKeepsNoBytes: Session.Batch keeps no byte of the buffer it is
// handed. Each node posts every batch from one reused buffer and
// overwrites it with junk after each call, through a two-batch window:
// in order, every batch from the second on is converted straight from
// the buffer (the window holds batch 2 back until the barrier replay has
// taken batch 1); with adjacent batches swapped, every other one is
// stashed. The sealed file must still be byte-identical to
// convert→merge.
func TestBatchKeepsNoBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		swap bool
	}{
		{"in-order", false},
		{"stashed", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raws := genRaws(t, 17, 2, 40)
			wopts := interval.WriterOptions{FrameBytes: 2048, FramesPerDir: 2}
			want := referenceMerge(t, raws, wopts)
			m, err := ingest.NewManager(ingest.Config{
				Dir:            t.TempDir(),
				Writer:         wopts,
				QueueRecords:   64,
				PendingBatches: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			s, err := m.Begin("reuse", len(raws))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := range raws {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					batches := splitBatches(t, xrand.New(uint64(40+i)), raws[i])
					order := make([]int, len(batches))
					for k := range order {
						order[k] = k
					}
					for k := 1; tc.swap && k+1 < len(order); k += 2 {
						order[k], order[k+1] = order[k+1], order[k]
					}
					buf := make([]byte, len(raws[i]))
					post := func(seq int) error {
						for {
							b := buf[:copy(buf, batches[seq])]
							err := s.Batch(i, uint64(seq), seq == len(batches)-1, b)
							for k := range b {
								b[k] = 0xA5
							}
							if !errors.Is(err, ingest.ErrWindow) {
								return err
							}
							time.Sleep(100 * time.Microsecond) // the window has not moved yet
						}
					}
					if err := post(0); err != nil {
						t.Errorf("node %d preamble: %v", i, err)
						return
					}
					for _, seq := range order[1:] {
						if err := post(seq); err != nil {
							t.Errorf("node %d batch %d: %v", i, seq, err)
							return
						}
					}
				}(i)
			}
			wg.Wait()
			if err := s.Wait(); err != nil {
				t.Fatalf("session: %v", err)
			}
			got, err := os.ReadFile(s.Path())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("ingest from a reused buffer differs from the batch pipeline (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}
