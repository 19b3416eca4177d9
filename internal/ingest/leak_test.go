package ingest_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"tracefw/internal/ingest"
	"tracefw/internal/interval"
	"tracefw/internal/testutil"
)

// TestNoGoroutineOutlivesSession: two sessions each hold posters blocked
// on a full queue — nodes 0 and 1 post their whole streams into 2-record
// queues while node 2, after its preamble, never posts again, so the
// merge (which needs a record from every node) cannot drain them. One
// session is aborted: every blocked Batch returns the abort. The other is
// drained: its blocked Batches return, their records merged, and the file
// seals. Then no goroutine either session or its posters started is left.
func TestNoGoroutineOutlivesSession(t *testing.T) {
	before := runtime.NumGoroutine()
	const nodes = 3
	raws := genRaws(t, 13, nodes, 120)
	m, err := ingest.NewManager(ingest.Config{
		Dir:            t.TempDir(),
		QueueRecords:   2,
		PendingBatches: 2,
		Writer:         interval.WriterOptions{FrameBytes: 2048, FramesPerDir: 2},
	})
	if err != nil {
		t.Fatal(err)
	}

	// blocked begins a session in that state and returns it with one
	// channel per blocked poster, carrying what its Batch returned.
	blocked := func(name string) (*ingest.Session, []chan error) {
		s, err := m.Begin(name, nodes)
		if err != nil {
			t.Fatal(err)
		}
		for i, raw := range raws {
			if err := s.Batch(i, 0, false, raw[:preambleCut(t, raw)]); err != nil {
				t.Fatalf("%s: node %d preamble: %v", name, i, err)
			}
		}
		// Until the header barrier has replayed a node's preamble, its
		// batches wait in the sequencer and Batch returns at once; the
		// posters below must find every node streaming.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			streaming := 0
			for _, ns := range s.NodeStatuses() {
				if ns.NextSeq > 0 {
					streaming++
				}
			}
			if streaming == nodes {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d of %d nodes replayed their preambles", name, streaming, nodes)
			}
		}
		var posted []chan error
		for i := 0; i < 2; i++ {
			ch := make(chan error, 1)
			body := raws[i][preambleCut(t, raws[i]):]
			go func(i int) { ch <- s.Batch(i, 1, true, body) }(i)
			posted = append(posted, ch)
		}
		// Past the sequencing window: refused at once, never queued.
		if err := s.Batch(2, 3, false, nil); !errors.Is(err, ingest.ErrWindow) {
			t.Fatalf("%s: a batch past the window: %v", name, err)
		}
		time.Sleep(200 * time.Millisecond)
		for i, ch := range posted {
			select {
			case err := <-ch:
				t.Fatalf("%s: node %d's poster returned (%v) with node 2 silent: nothing blocked", name, i, err)
			default:
			}
		}
		return s, posted
	}
	settled := func(label string, ch chan error) error {
		select {
		case err := <-ch:
			return err
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: a blocked Batch never returned", label)
			return nil
		}
	}

	aborted, posted := blocked("aborted")
	if err := aborted.Abort(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range posted {
		if err := settled("abort", ch); !errors.Is(err, ingest.ErrAborted) {
			t.Fatalf("abort: node %d's blocked Batch returned %v, want the abort", i, err)
		}
	}
	if err := aborted.Wait(); !errors.Is(err, ingest.ErrAborted) {
		t.Fatalf("aborted session settled with %v", err)
	}

	drained, posted := blocked("drained")
	m.DrainAll()
	for i, ch := range posted {
		if err := settled("drain", ch); err != nil {
			t.Fatalf("drain: node %d's blocked Batch returned %v", i, err)
		}
	}
	if st := drained.State(); st != ingest.StateDone {
		t.Fatalf("state after drain: %v (%v)", st, drained.Err())
	}
	if err := drained.Batch(2, 1, true, nil); !errors.Is(err, ingest.ErrSessionDone) {
		t.Fatalf("a Batch after the drain: %v", err)
	}
	f, err := interval.Open(drained.Path(), interval.WithPyramid(false))
	if err != nil {
		t.Fatalf("drained file: %v", err)
	}
	if _, err := f.Scan().All(); err != nil {
		t.Fatalf("drained file scan: %v", err)
	}
	f.Close()
	testutil.SettleGoroutines(t, before)
}
