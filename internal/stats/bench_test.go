package stats_test

import (
	"runtime"
	"testing"

	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/stats"
	"tracefw/internal/testutil"
	"tracefw/internal/workload"
)

// BenchmarkStatsColumnar/scalar is the baseline of the root package's
// BenchmarkStatsColumnar (columnar-cold, columnar-warm): the same storm
// trace (4 nodes × 8000 iterations, 8 KiB frames) and the same program
// through the record-at-a-time oracle (oracle_test.go), which production
// never runs.
func BenchmarkStatsColumnar(b *testing.B) {
	mf, _ := testutil.Pipeline(b,
		testutil.Shape{Nodes: 4, TasksPerNode: 2, CPUs: 4, Seed: 99},
		merge.Options{Writer: interval.WriterOptions{FrameBytes: 8 << 10}},
		workload.Storm{Iters: 8000, Threads: 3}.Main())
	specs, err := stats.Parse(`table name=busy x=("state", state) y=("t", dura, sum) y=("n", dura, count)
table name=bynode x=("node", node) x=("bin", bin(start, 50)) y=("t", dura, sum)
table name=sends condition=(msgSizeSent > 0) x=("node", node) y=("bytes", msgSizeSent, sum)`)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("scalar", func(b *testing.B) {
		runtime.GC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tables, err := stats.GenerateSpecsScalar(specs, []*interval.File{mf}, interval.MapOptions{Parallel: 1})
			if err != nil {
				b.Fatal(err)
			}
			if len(tables[0].Rows) == 0 {
				b.Fatal("empty table")
			}
		}
	})
}
