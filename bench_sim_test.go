package tracefw

// Benchmarks for the discrete-event simulator itself: the cluster-scale
// scenario sweeps run thousand-node machines, so the scheduler's event
// queue, ready queues, and listener fan-out are a hot loop in their own
// right. BenchmarkSchedHotLoop pins the per-event cost and allocation
// behavior across node counts (allocs per event must stay flat as the
// machine grows); BenchmarkTracegen runs whole trace generations —
// simulator, MPI runtime and trace facility — and holds them to an
// allocation bar; BenchmarkSweepCell runs one full sweep cell —
// generate → convert → merge → stats — at a small size; the ledger times
// a full-size cell (sweep.cell_ms).

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/cluster"
	"tracefw/internal/events"
	"tracefw/internal/mpisim"
	"tracefw/internal/sched"
	"tracefw/internal/sweep"
	"tracefw/internal/trace"
	"tracefw/internal/workload"
)

// countingListener tallies scheduler events without retaining anything,
// standing in for the trace facility's listener fan-out.
type countingListener struct{ events int64 }

func (l *countingListener) OnDispatch(int, int32, int, clock.Time) { l.events++ }
func (l *countingListener) OnUndispatch(int, int32, int, sched.UndispatchReason, clock.Time) {
	l.events++
}
func (l *countingListener) OnThreadStart(int, int32, clock.Time) { l.events++ }

// runHotLoop drives one contended simulation: nodes × 4 CPUs with 8
// compute-bound threads per node, so every quantum expiry preempts and
// every dispatch decision sees a non-empty ready queue.
func runHotLoop(nodes, rounds int, l sched.Listener) {
	s := sched.New(sched.Config{
		Nodes:       nodes,
		CPUsPerNode: 4,
		Quantum:     clock.Millisecond,
	}, l)
	for n := 0; n < nodes; n++ {
		for t := 0; t < 8; t++ {
			t := t
			s.Spawn(n, func(th *sched.Thread) {
				for r := 0; r < rounds; r++ {
					th.Compute(clock.Time(1+t%3) * clock.Millisecond)
					th.Sleep(clock.Time(1+r%2) * clock.Millisecond)
				}
			})
		}
	}
	s.Run()
}

// BenchmarkSchedHotLoop measures the DES hot loop at growing node
// counts. The figure of merit is ns and allocs per scheduler event —
// both must stay flat as nodes grow, or thousand-node sweeps become
// quadratic in practice.
func BenchmarkSchedHotLoop(b *testing.B) {
	for _, nodes := range []int{4, 64, 512} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			rounds := 40
			b.ReportAllocs()
			b.ResetTimer()
			var events int64
			for i := 0; i < b.N; i++ {
				l := &countingListener{}
				runHotLoop(nodes, rounds, l)
				events += l.events
			}
			b.StopTimer()
			if events > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
				b.ReportMetric(float64(events)/float64(b.N), "events/op")
			}
		})
	}
}

// BenchmarkTracegen is what `tracegen` does minus the files: whole
// generations into io.Discard writers. Cutting a record is a mask test
// and a store into the node's buffer (paper §2.1), and a blocking MPI
// call reuses its request, so what a run allocates per event is one
// closure per message in flight — plus, per node, a buffer at least as
// large as everything the node cuts before its first flush. The bars
// are about the former, so both cases run long enough to flush: sPPM
// 4×8 is the ledger's own run (iters=4000, the default 1 MiB buffer
// filled four times over); the 64×4×4 machine, whose nodes cut a few
// thousand records each, gets the facility's starting 4 KiB as its
// whole buffer and four times the default ten steps so that setting up
// 256 threads is not the figure either. It fails above 50 bytes or
// 0.30 objects per event (sPPM: 97.4 and 0.46 when the buffer regrew by
// append and every blocking call allocated its handle; 30.1 and 0.21
// now).
const (
	tracegenBytesPerEvent  = 50
	tracegenAllocsPerEvent = 0.30
)

func BenchmarkTracegen(b *testing.B) {
	for _, c := range []struct {
		name               string
		workload           string
		params             workload.Params
		nodes, cpus, tasks int
		buffer             int // trace.Options.BufferSize
	}{
		{"sppm_4x8", "sppm", workload.Params{"iters": 4000}, 4, 8, 1, 0},
		{"imbalance_64x4x4", "imbalance", workload.Params{"iters": 40}, 64, 4, 4, 4 << 10},
	} {
		b.Run(c.name, func(b *testing.B) {
			main, err := workload.Build(c.workload, c.params)
			if err != nil {
				b.Fatal(err)
			}
			writers := make([]io.Writer, c.nodes)
			for i := range writers {
				writers[i] = io.Discard
			}
			var cut int64
			var before runtime.MemStats
			b.ReportAllocs()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := mpisim.New(mpisim.Config{
					Cluster: cluster.Config{
						Nodes: c.nodes, CPUsPerNode: c.cpus, Seed: 12,
						TraceOpts: trace.Options{Enabled: events.MaskAll, BufferSize: c.buffer},
					},
					TasksPerNode: c.tasks,
				}, writers)
				if err != nil {
					b.Fatal(err)
				}
				w.Start(main)
				if _, err := w.Run(); err != nil {
					b.Fatal(err)
				}
				for _, f := range w.M.Facilities {
					n, _ := f.Counts()
					cut += n
				}
			}
			b.StopTimer()
			bytes, allocs := allocatedSince(&before, float64(cut))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cut), "ns/event")
			b.ReportMetric(bytes, "B/event")
			b.ReportMetric(allocs, "allocs/event")
			if bytes > tracegenBytesPerEvent || allocs > tracegenAllocsPerEvent {
				b.Fatalf("%.1f B/event and %.3f allocs/event, ceilings %v and %v: cutting a record or a blocking MPI call allocates",
					bytes, allocs, tracegenBytesPerEvent, tracegenAllocsPerEvent)
			}
		})
	}
}

// BenchmarkSweepCell runs one full sweep cell end to end: simulate,
// convert, merge, and reduce to the comparison-table metrics. This is
// the unit the utesweep driver fans out over a policy × workload grid.
// The wide case is the ledger's 216x4x4 machine: 864 threads with open
// states, so a frame prologue alone fills FrameBytes (at 128 nodes it
// does not). It fails outright when frame-start pseudo-intervals swamp
// the merged file again: before frames were sized by their regular
// records this cell merged 19.0 records per raw event, now 1.6.
func BenchmarkSweepCell(b *testing.B) {
	grid := sweep.Grid{
		Policies:  []string{"fifo"},
		Scenarios: []sweep.Scenario{{Name: "imbalance", Params: workload.Params{"iters": 4}}},
	}
	for _, c := range []struct {
		name string
		opts sweep.Options
	}{
		{"small", sweep.Options{Nodes: 8, CPUsPerNode: 2, TasksPerNode: 1, Seed: 7, Parallel: 1}},
		{"wide", sweep.Options{Nodes: 216, CPUsPerNode: 4, TasksPerNode: 4, Seed: 7, Parallel: 1}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var events, records, pseudo int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sweep.Run(grid, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Cells) != 1 || res.Cells[0].RawEvents == 0 {
					b.Fatal("sweep cell produced no events")
				}
				events += res.Cells[0].RawEvents
				records += res.Cells[0].Records
				pseudo += res.Cells[0].Pseudo
			}
			b.StopTimer()
			perEvent := float64(records) / float64(events)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/rawevent")
			b.ReportMetric(perEvent, "records/rawevent")
			b.ReportMetric(100*float64(pseudo)/float64(records), "pseudo%")
			if perEvent > 2.5 {
				b.Fatalf("%.1f merged records per raw event (limit 2.5): frame prologues dominate the merged file", perEvent)
			}
		})
	}
}
