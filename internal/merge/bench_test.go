package merge_test

// The merge's design-decision ablations (DESIGN.md "Key design
// decisions", EXPERIMENTS.md "Ablations"). They live here, beside the
// export_test.go seam, because their other arms are not production
// code: the loser tree is the only picker the merge has and
// pseudo-interval planting cannot be turned off from outside.

import (
	"fmt"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/testutil"
	"tracefw/internal/workload"
	"tracefw/internal/xrand"
)

// stormRaws is the paper's Table 1 configuration: 4 MPI tasks
// (2 nodes × 2), 4 threads each.
func stormRaws(b *testing.B, iters int) [][]byte {
	return testutil.RunWorkload(b, testutil.Shape{Nodes: 2, TasksPerNode: 2, CPUs: 4, Seed: 99},
		workload.Storm{Iters: iters, Threads: 3}.Main())
}

// endTimes is a merge source over a sorted slice of end times.
type endTimes struct {
	ends []clock.Time
	at   int
}

func (s *endTimes) CurrentEnd() (clock.Time, bool) {
	if s.at == len(s.ends) {
		return 0, true
	}
	return s.ends[s.at], false
}

func (s *endTimes) Advance() error { s.at++; return nil }

// linearMin is the ablation's other arm: the O(k) minimum search a merge
// without the paper's balanced tree would do per record, ties to the
// lowest input like the tree's.
func linearMin(srcs []merge.Source) int {
	best := -1
	var bestEnd clock.Time
	for i, s := range srcs {
		if e, done := s.CurrentEnd(); !done && (best < 0 || e < bestEnd) {
			best, bestEnd = i, e
		}
	}
	return best
}

// BenchmarkMergeLoserTreeVsLinear compares the paper's balanced-tree
// pick (§3.1) against a naive linear minimum scan over the same sources,
// at two widths so the O(log k) vs O(k) difference shows. The arms must
// agree on the order they drain the sources in.
func BenchmarkMergeLoserTreeVsLinear(b *testing.B) {
	const perSource = 4096
	for _, k := range []int{16, 216} {
		rng := xrand.New(5)
		ends := make([][]clock.Time, k)
		for i := range ends {
			t := clock.Time(rng.Int63n(1000))
			for j := 0; j < perSource; j++ {
				t += clock.Time(rng.Int63n(int64(clock.Millisecond)))
				ends[i] = append(ends[i], t)
			}
		}
		sources := func() []merge.Source {
			srcs := make([]merge.Source, k)
			for i := range srcs {
				srcs[i] = &endTimes{ends: ends[i]}
			}
			return srcs
		}
		var order [2][]int
		arms := []struct {
			name  string
			drain func(srcs []merge.Source, picked func(int))
		}{
			{"losertree", func(srcs []merge.Source, picked func(int)) {
				lt := merge.NewLoserTree(srcs)
				for i := lt.Min(); i >= 0; i = lt.Min() {
					picked(i)
					srcs[i].Advance()
					lt.Fix(i)
				}
			}},
			{"linear", func(srcs []merge.Source, picked func(int)) {
				for i := linearMin(srcs); i >= 0; i = linearMin(srcs) {
					picked(i)
					srcs[i].Advance()
				}
			}},
		}
		for ai, arm := range arms {
			arm.drain(sources(), func(i int) { order[ai] = append(order[ai], i) })
			b.Run(fmt.Sprintf("%s/k=%d", arm.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					n := 0
					arm.drain(sources(), func(int) { n++ })
					if n != k*perSource {
						b.Fatalf("drained %d records of %d", n, k*perSource)
					}
				}
			})
		}
		for i := range order[0] {
			if order[0][i] != order[1][i] {
				b.Fatalf("k=%d: pick %d is input %d by the tree, %d by the scan", k, i, order[0][i], order[1][i])
			}
		}
	}
}

// BenchmarkMergePseudoIntervals measures the cost of the paper's §3.3
// pseudo-interval planting.
func BenchmarkMergePseudoIntervals(b *testing.B) {
	raws := stormRaws(b, 4000)
	opts := merge.Options{Writer: interval.WriterOptions{FrameBytes: 8 << 10}}
	for _, variant := range []struct {
		name string
		opts merge.Options
	}{{"with-pseudo", opts}, {"no-pseudo", merge.NoPseudo(opts)}} {
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				files := testutil.ConvertRun(b, raws, interval.WriterOptions{})
				b.StartTimer()
				if _, err := merge.Merge(files, interval.NewSeekBuffer(), variant.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndTimeOrderingAblation quantifies the paper's end-time
// ordering design decision (§3.1): because every input interval file is
// already sorted by end time, the merge is a streaming k-way pass. The
// ablation pretends the inputs were unordered and performs the naive
// alternative — load everything, sort globally (the tests' sortReference),
// rewrite — which costs O(n log n) comparisons and peak memory
// proportional to the whole trace instead of one record per input.
func BenchmarkEndTimeOrderingAblation(b *testing.B) {
	raws := stormRaws(b, 8000)
	b.Run("streaming-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			files := testutil.ConvertRun(b, raws, interval.WriterOptions{})
			b.StartTimer()
			if _, err := merge.Merge(files, interval.NewSeekBuffer(), merge.NoPseudo(merge.Options{})); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("global-sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			files := testutil.ConvertRun(b, raws, interval.WriterOptions{})
			b.StartTimer()
			all := sortReference(b, files, merge.EstimatorRMS)
			w, err := interval.NewWriter(interval.NewSeekBuffer(), interval.Header{
				ProfileVersion: files[0].Header.ProfileVersion,
				Markers:        map[uint64]string{},
			}, interval.WriterOptions{})
			if err != nil {
				b.Fatal(err)
			}
			for j := range all {
				if err := w.Add(&all[j]); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
