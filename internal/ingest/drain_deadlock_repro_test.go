package ingest_test

import (
	"testing"
	"time"

	"tracefw/internal/ingest"
	"tracefw/internal/interval"
)

// Repro: node 0's Batch blocks in LiveSource.Push (queue full) holding
// n0.mu while the merge waits for node 1's first record; Drain locks
// nodes in index order and hangs on n0.mu.
func TestDrainDeadlockRepro(t *testing.T) {
	raws := genRaws(t, 11, 2, 200)
	m, err := ingest.NewManager(ingest.Config{
		Dir:          t.TempDir(),
		QueueRecords: 2,
		Writer:       interval.WriterOptions{FrameBytes: 2048, FramesPerDir: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Begin("dl", 2)
	if err != nil {
		t.Fatal(err)
	}
	// Both preambles in -> barrier runs, streaming starts.
	for i, raw := range raws {
		cut := preambleCut(t, raw)
		if err := s.Batch(i, 0, false, raw[:cut]); err != nil {
			t.Fatal(err)
		}
	}
	// Node 0 posts its whole remaining stream; with a 2-record queue
	// this blocks in Push while the merge waits on node 1.
	posted := make(chan struct{})
	go func() {
		cut := preambleCut(t, raws[0])
		s.Batch(0, 1, true, raws[0][cut:])
		close(posted)
	}()
	select {
	case <-posted:
		t.Log("node 0 batch completed without blocking (no repro)")
	case <-time.After(500 * time.Millisecond):
		t.Log("node 0 batch blocked as expected")
	}

	done := make(chan struct{})
	go func() {
		s.Drain()
		close(done)
	}()
	select {
	case <-done:
		t.Log("drain completed: no deadlock")
	case <-time.After(5 * time.Second):
		t.Fatal("drain deadlocked")
	}
}
