package tracefw

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benchmarks for the design decisions DESIGN.md calls out. The
// full-size Table 1 sweep (up to 11.2M raw events) lives in
// cmd/experiments; the benchmarks here use sizes that keep `go test
// -bench=.` snappy while preserving the comparisons.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/cluster"
	"tracefw/internal/convert"
	"tracefw/internal/core"
	"tracefw/internal/events"
	"tracefw/internal/ingest"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/mpisim"
	"tracefw/internal/profile"
	"tracefw/internal/render"
	"tracefw/internal/sched"
	"tracefw/internal/slog"
	"tracefw/internal/stats"
	"tracefw/internal/testutil"
	"tracefw/internal/trace"
	"tracefw/internal/tracesvc"
	"tracefw/internal/workload"
)

// --- shared generators -------------------------------------------------

// stormRaws produces raw traces in the paper's Table 1 configuration:
// 4 MPI tasks (2 nodes × 2), 4 threads each.
func stormRaws(b *testing.B, iters int) [][]byte {
	return stormRawsN(b, 2, iters)
}

// stormRawsN generates the storm workload over a configurable node
// count (for the parallel convert/merge benchmarks).
func stormRawsN(b *testing.B, nodes, iters int) [][]byte {
	return simRaws(b, nodes, 4, 2, 99, workload.Storm{Iters: iters, Threads: 3}.Main())
}

// simRaws runs main on every task of a simulated machine and returns
// the per-node raw traces.
func simRaws(b testing.TB, nodes, cpus, tasksPerNode int, seed uint64, main func(*mpisim.Proc)) [][]byte {
	b.Helper()
	bufs := make([]*bytes.Buffer, nodes)
	writers := make([]io.Writer, nodes)
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
		writers[i] = bufs[i]
	}
	w, err := mpisim.New(mpisim.Config{
		Cluster: cluster.Config{
			Nodes: nodes, CPUsPerNode: cpus, Seed: seed,
			TraceOpts: trace.Options{Enabled: events.MaskAll},
		},
		TasksPerNode: tasksPerNode,
	}, writers)
	if err != nil {
		b.Fatal(err)
	}
	w.Start(main)
	if _, err := w.Run(); err != nil {
		b.Fatal(err)
	}
	raws := make([][]byte, nodes)
	for i, buf := range bufs {
		raws[i] = buf.Bytes()
	}
	return raws
}

func rawEventCount(b *testing.B, raws [][]byte) int64 {
	b.Helper()
	var n int64
	for _, raw := range raws {
		rd, err := trace.NewReader(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		var rec trace.Record
		for {
			if err := rd.NextHeader(&rec); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n++
		}
	}
	return n
}

func convertedFiles(b testing.TB, raws [][]byte) []*interval.File {
	b.Helper()
	outs, _, err := convert.ConvertBuffers(raws, convert.Options{})
	if err != nil {
		b.Fatal(err)
	}
	files := make([]*interval.File, len(outs))
	for i, sb := range outs {
		if files[i], err = interval.NewFile(sb); err != nil {
			b.Fatal(err)
		}
	}
	return files
}

// --- Table 1: utility speed -------------------------------------------

// The converter's allocation bars: a conversion allocates its tables,
// its window and its frames, never per event (the parent of the in-place
// reader measured 165 B and 2.6 objects per event here — an Args slice
// per record, a record per emitted piece, a state per push; now 25 B
// and 0.002).
const (
	convertBytesPerEvent  = 64
	convertAllocsPerEvent = 0.05
)

// allocatedSince returns the bytes and objects allocated since before
// was read, each divided by n.
func allocatedSince(before *runtime.MemStats, n float64) (bytes, objects float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / n, float64(after.Mallocs-before.Mallocs) / n
}

func benchConvertPerEvent(b *testing.B, iters int) {
	raws := stormRaws(b, iters)
	nev := rawEventCount(b, raws)
	runtime.GC() // drop the generator's garbage; measure the utility
	var before runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Parallel: 1 keeps this the sequential per-event cost of Table 1;
		// BenchmarkConvertParallel measures the worker-pool speedup.
		if _, _, err := convert.ConvertBuffers(raws, convert.Options{Parallel: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	total := float64(b.N) * float64(nev)
	bytes, allocs := allocatedSince(&before, total)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/event")
	b.ReportMetric(bytes, "B/event")
	b.ReportMetric(allocs, "allocs/event")
	if bytes > convertBytesPerEvent || allocs > convertAllocsPerEvent {
		b.Fatalf("%.1f B/event and %.3f allocs/event, ceilings %v and %v: the reader or the converter allocates per event",
			bytes, allocs, convertBytesPerEvent, convertAllocsPerEvent)
	}
}

func BenchmarkConvertPerEventSmall(b *testing.B)  { benchConvertPerEvent(b, 1000) }
func BenchmarkConvertPerEventMedium(b *testing.B) { benchConvertPerEvent(b, 4000) }
func BenchmarkConvertPerEventLarge(b *testing.B)  { benchConvertPerEvent(b, 16000) }

// benchSlogmergePerEvent times the paper's slogmerge as utemerge -slog
// runs it (slog.MergeFiles): merge the per-node files on disk and build
// the SLOG file in the same job.
func benchSlogmergePerEvent(b *testing.B, iters int) {
	raws := stormRaws(b, iters)
	nev := rawEventCount(b, raws)
	dir := b.TempDir()
	paths := testutil.ConvertToDisk(b, raws, interval.WriterOptions{}, dir)
	merged, slogPath := filepath.Join(dir, "merged.ute"), filepath.Join(dir, "trace.slog")
	runtime.GC() // drop the generator's garbage; measure the utility
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := slog.MergeFiles(paths, merged, slogPath, nil, merge.Options{}, slog.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nev), "ns/event")
}

func BenchmarkSlogmergePerEventSmall(b *testing.B)  { benchSlogmergePerEvent(b, 1000) }
func BenchmarkSlogmergePerEventMedium(b *testing.B) { benchSlogmergePerEvent(b, 4000) }
func BenchmarkSlogmergePerEventLarge(b *testing.B)  { benchSlogmergePerEvent(b, 16000) }

// --- §2.1: cost of cutting a trace record -------------------------------

func BenchmarkCutTraceRecord(b *testing.B) {
	f, err := trace.NewFacility(trace.Options{Enabled: events.MaskAll, BufferSize: 1 << 22}, 0, 1, io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	rec := &trace.Record{Type: events.EvMPISend, Edge: events.Entry, TID: 1, Args: []uint64{1, 2, 3, 4, 5, 6}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Time = clock.Time(i)
		f.Cut(rec)
	}
	b.StopTimer()
	// §2.1's cost model has no allocation in it: test the mask, store
	// into the buffer, flush. (The buffer's few reallocations on its way
	// to working size are per node, not per record, and round to zero.)
	if n := testing.AllocsPerRun(1000, func() { f.Cut(rec) }); n > 0 {
		b.Fatalf("%v allocs per record cut, ceiling 0", n)
	}
}

// --- Figure 1: clock discrepancy series ---------------------------------

func BenchmarkFig1ClockDiscrepancy(b *testing.B) {
	drifts := []float64{0, 2.5e-5, -3.5e-5, 6e-5}
	for i := 0; i < b.N; i++ {
		s := clock.Figure1(drifts, 0, 140*clock.Second, clock.Second, 1)
		if s.MaxDivergence() == 0 {
			b.Fatal("no divergence")
		}
	}
}

// --- §2.2: ratio estimators ---------------------------------------------

func BenchmarkClockRatioEstimators(b *testing.B) {
	c := clock.NewLocal(clock.Second, 8e-5, 500, clock.Microsecond, 3)
	var pairs []clock.Pair
	for i := 0; i <= 140; i++ {
		pairs = append(pairs, clock.SamplePair(c, clock.Time(i)*clock.Second, 0))
	}
	b.Run("rms", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clock.RMSRatio(pairs)
		}
	})
	b.Run("lastpair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clock.LastPairRatio(pairs)
		}
	})
	b.Run("piecewise-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clock.NewPiecewiseAdjuster(pairs)
		}
	})
	b.Run("filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clock.FilterOutliers(pairs, 1e-3)
		}
	})
}

// --- Figures 6-9 --------------------------------------------------------

func flashRunB(b *testing.B) *core.Run {
	b.Helper()
	run, err := core.Execute(core.Config{
		Nodes: 4, CPUsPerNode: 4, TasksPerNode: 1, Seed: 11,
		Convert: interval.WriterOptions{FrameBytes: 16 << 10},
		Slog:    slog.Options{FrameBytes: 16 << 10},
	}, workload.Flash{Iters: 20, RefineEach: 5}.Main())
	if err != nil {
		b.Fatal(err)
	}
	return run
}

func sppmRunB(b *testing.B) *core.Run {
	b.Helper()
	run, err := core.Execute(core.Config{
		Nodes: 4, CPUsPerNode: 8, TasksPerNode: 1, Seed: 12,
		Affinity: sched.AffinityLowestFree,
	}, workload.SPPM{Iters: 8, ThreadsPerTask: 4}.Main())
	if err != nil {
		b.Fatal(err)
	}
	return run
}

func BenchmarkFig6StatsTable(b *testing.B) {
	run := flashRunB(b)
	defer run.Close()
	prog := stats.Predefined(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := stats.Generate(prog, []*interval.File{run.Merged})
		if err != nil {
			b.Fatal(err)
		}
		if len(tables[0].Rows) == 0 {
			b.Fatal("empty Figure 6 table")
		}
	}
}

func BenchmarkFig7PreviewAndFrameFetch(b *testing.B) {
	run := flashRunB(b)
	defer run.Close()
	sf := run.Slog
	mid := (sf.TStart + sf.TEnd) / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if svg := render.PreviewSVG(sf.Preview); len(svg) == 0 {
			b.Fatal("empty preview")
		}
		fi, ok := sf.FrameAt(mid)
		if !ok {
			b.Fatal("no frame")
		}
		if _, err := sf.ReadFrame(fi); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8ThreadActivityView(b *testing.B) {
	run := sppmRunB(b)
	defer run.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := run.View(render.ThreadActivity, render.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(d.SVG()) == 0 {
			b.Fatal("empty svg")
		}
	}
}

func BenchmarkFig9ProcessorActivityView(b *testing.B) {
	run := sppmRunB(b)
	defer run.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := run.View(render.ProcessorActivity, render.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(d.SVG()) == 0 {
			b.Fatal("empty svg")
		}
	}
}

// --- §4: frame-fetch scalability ----------------------------------------

func BenchmarkFrameFetchScalability(b *testing.B) {
	for _, iters := range []int{5, 20, 80} {
		run, err := core.Execute(core.Config{
			Nodes: 4, CPUsPerNode: 4, TasksPerNode: 1, Seed: 11,
			Convert: interval.WriterOptions{FrameBytes: 16 << 10},
			Slog:    slog.Options{FrameBytes: 16 << 10},
		}, workload.Flash{Iters: iters, RefineEach: 5}.Main())
		if err != nil {
			b.Fatal(err)
		}
		sf := run.Slog
		mid := (sf.TStart + sf.TEnd) / 2
		b.Run(sizeName(iters), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fi, ok := sf.FrameAt(mid)
				if !ok {
					b.Fatal("no frame")
				}
				if _, err := sf.ReadFrame(fi); err != nil {
					b.Fatal(err)
				}
			}
		})
		run.Close()
	}
}

func sizeName(iters int) string {
	switch iters {
	case 5:
		return "small"
	case 20:
		return "medium"
	default:
		return "large"
	}
}

// --- ablations -----------------------------------------------------------
//
// The merge's own (loser tree vs linear scan, pseudo-interval planting,
// end-time ordering) are in internal/merge/bench_test.go, beside the seam
// that reaches their other arms.

// BenchmarkSeekFrameDirsVsScan compares locating a late time point via
// the frame directories against scanning all records — the reason the
// format has frames and directories at all.
func BenchmarkSeekFrameDirsVsScan(b *testing.B) {
	raws := stormRaws(b, 8000)
	files := convertedFiles(b, raws)
	sb := interval.NewSeekBuffer()
	if _, err := merge.Merge(files, sb, merge.Options{Writer: interval.WriterOptions{FrameBytes: 16 << 10}}); err != nil {
		b.Fatal(err)
	}
	mf, err := interval.NewFile(sb)
	if err != nil {
		b.Fatal(err)
	}
	_, last, _, err := mf.Stats()
	if err != nil {
		b.Fatal(err)
	}
	target := last - clock.Millisecond
	b.Run("framedirs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fe, ok, err := mf.FrameContaining(target)
			if err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
			if _, err := mf.FrameRecords(fe); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fullscan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc := mf.Scan()
			found := false
			for {
				r, err := sc.NextRecord()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				if r.End() >= target {
					found = true
					break
				}
			}
			if !found {
				b.Fatal("target not found")
			}
		}
	})
}

// BenchmarkEstimatorAdjustment measures timestamp adjustment throughput
// per estimator (every record passes through Adjuster.Global twice).
func BenchmarkEstimatorAdjustment(b *testing.B) {
	raws := stormRaws(b, 4000)
	for _, est := range []merge.Estimator{merge.EstimatorRMS, merge.EstimatorPiecewise, merge.EstimatorNone} {
		b.Run(est.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				files := convertedFiles(b, raws)
				b.StartTimer()
				sb := interval.NewSeekBuffer()
				if _, err := merge.Merge(files, sb, merge.Options{Estimator: est}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConvertParallel measures the worker-pool convert over a
// 4-node run at widths 1, 2, and 4. The outputs are byte-identical at
// every width; on a multi-core host the wider variants approach a
// speedup of min(width, GOMAXPROCS), while on a single-CPU host all
// variants degenerate to the sequential cost.
func BenchmarkConvertParallel(b *testing.B) {
	raws := stormRawsN(b, 4, 2000)
	for _, width := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("j%d", width), func(b *testing.B) {
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := convert.ConvertBuffers(raws, convert.Options{Parallel: width}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIntervalWriterThroughput measures raw record encode+frame
// throughput of the interval writer (records/op reported via ns/record).
func BenchmarkIntervalWriterThroughput(b *testing.B) {
	rec := interval.Record{
		Type:   events.EvMPISend,
		Bebits: profile.Complete,
		Dura:   1000,
		Extra:  []uint64{1, 2, 3, 4, 5, 6},
	}
	hdr := interval.Header{ProfileVersion: profile.StdVersion, Markers: map[uint64]string{}}
	b.ReportAllocs()
	b.ResetTimer()
	sb := interval.NewSeekBuffer()
	w, err := interval.NewWriter(sb, hdr, interval.WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rec.Start = clock.Time(i)
		if err := w.Add(&rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIntervalScanThroughput measures sequential record decode
// throughput through the Scanner.
func BenchmarkIntervalScanThroughput(b *testing.B) {
	sb := interval.NewSeekBuffer()
	hdr := interval.Header{ProfileVersion: profile.StdVersion, Markers: map[uint64]string{}}
	w, err := interval.NewWriter(sb, hdr, interval.WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	const n = 100000
	rec := interval.Record{Type: events.EvMPISend, Bebits: profile.Complete, Dura: 10, Extra: []uint64{1, 2, 3, 4, 5, 6}}
	for i := 0; i < n; i++ {
		rec.Start = clock.Time(i)
		if err := w.Add(&rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	f, err := interval.NewFile(sb)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := f.Scan()
		count := 0
		for {
			_, err := sc.NextRecord()
			if err != nil {
				break
			}
			count++
		}
		if count != n {
			b.Fatalf("scanned %d records", count)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/record")
}

// --- header v4 compact encoding ------------------------------------------

// benchIntervalRecords builds the record mix the v3/v4 comparison
// benchmarks share: MPI sends with six extras, increasing start times.
func benchIntervalRecords(n int) []interval.Record {
	recs := make([]interval.Record, n)
	for i := range recs {
		recs[i] = interval.Record{
			Type: events.EvMPISend, Bebits: profile.Complete,
			Start: clock.Time(i) * 100, Dura: 10,
			CPU: uint16(i % 4), Node: uint16(i % 2), Thread: uint16(i % 8),
			Extra: []uint64{1, 2, 3, 4, 5, 6},
		}
	}
	return recs
}

func writeBenchInterval(b *testing.B, version uint32, recs []interval.Record) *interval.SeekBuffer {
	b.Helper()
	hdr := interval.Header{ProfileVersion: profile.StdVersion, HeaderVersion: version, Markers: map[uint64]string{}}
	sb := interval.NewSeekBuffer()
	w, err := interval.NewWriter(sb, hdr, interval.WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for i := range recs {
		if err := w.Add(&recs[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return sb
}

// BenchmarkIntervalEncodeV4 compares write throughput and on-disk size
// between the fixed-width v3 frames and the v4 compact encoding
// (B/record is the whole-file size divided by the record count).
func BenchmarkIntervalEncodeV4(b *testing.B) {
	const n = 20000
	recs := benchIntervalRecords(n)
	for _, v := range []uint32{3, 4} {
		b.Run(fmt.Sprintf("v%d", v), func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				size = len(writeBenchInterval(b, v, recs).Bytes())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/record")
			b.ReportMetric(float64(size)/n, "B/record")
		})
	}
}

// BenchmarkIntervalScanV4 compares sequential decode throughput
// (Scanner.NextRecord) over the same records at v3 and v4 — the acceptance
// bar for the compact encoding is scan speed no worse than v3.
func BenchmarkIntervalScanV4(b *testing.B) {
	const n = 100000
	recs := benchIntervalRecords(n)
	for _, v := range []uint32{3, 4} {
		b.Run(fmt.Sprintf("v%d", v), func(b *testing.B) {
			f, err := interval.NewFile(writeBenchInterval(b, v, recs))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc := f.Scan()
				count := 0
				for _, err := sc.NextRecord(); err == nil; _, err = sc.NextRecord() {
					count++
				}
				if count != n {
					b.Fatalf("scanned %d records", count)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/record")
		})
	}
}

// --- indexed analysis backend: window seeks + parallel stats -------------

// windowBenchFile merges a 4-node run with small frames so the window
// benchmarks have many frames and directories to skip.
func windowBenchFile(b *testing.B) *interval.File {
	b.Helper()
	raws := stormRawsN(b, 4, 8000)
	files := convertedFiles(b, raws)
	sb := interval.NewSeekBuffer()
	if _, err := merge.Merge(files, sb, merge.Options{Writer: interval.WriterOptions{FrameBytes: 8 << 10}}); err != nil {
		b.Fatal(err)
	}
	mf, err := interval.NewFile(sb)
	if err != nil {
		b.Fatal(err)
	}
	return mf
}

// BenchmarkStatsWindow compares a table generated over a narrow (5%)
// time window through the indexed window path — only frames overlapping
// the window decode, and whole directories skip on their stored bounds —
// against the same table paying for the full scan. frames/op reports
// how many frame payloads each variant actually decoded.
func BenchmarkStatsWindow(b *testing.B) {
	mf := windowBenchFile(b)
	first, last, _, err := mf.Stats()
	if err != nil {
		b.Fatal(err)
	}
	span := last - first
	lo, hi := first+span/2, first+span/2+span/20
	prog := `table name=c x=("node", node) y=("n", dura, count)`
	for _, v := range []struct {
		name string
		opts interval.MapOptions
	}{
		{"window", interval.MapOptions{Window: true, Lo: lo, Hi: hi, Parallel: 1}},
		{"fullscan", interval.MapOptions{Parallel: 1}},
	} {
		b.Run(v.name, func(b *testing.B) {
			runtime.GC()
			b.ResetTimer()
			start := mf.DecodedFrames()
			for i := 0; i < b.N; i++ {
				if _, err := stats.GenerateOpts(prog, []*interval.File{mf}, v.opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(mf.DecodedFrames()-start)/float64(b.N), "frames/op")
		})
	}
}

// BenchmarkStatsParallel runs the predefined tables at several frame-
// decode worker counts. The output is byte-identical at every width
// (asserted by the stats tests), so this measures the engine's
// scheduling cost and, on multi-core hosts, its speedup; on a 1-CPU
// host all widths degenerate to the sequential cost.
func BenchmarkStatsParallel(b *testing.B) {
	mf := windowBenchFile(b)
	prog := stats.Predefined(50)
	for _, width := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("j%d", width), func(b *testing.B) {
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tables, err := stats.GenerateOpts(prog, []*interval.File{mf}, interval.MapOptions{Parallel: width})
				if err != nil {
					b.Fatal(err)
				}
				if len(tables[0].Rows) == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// BenchmarkStatsColumnar is the columnar-engine headline: one
// multi-table program through the vectorized kernels decoding v4 frames
// straight into pooled batches (columnar-cold). The scalar baseline over
// the same trace and program sits beside the oracle it measures:
// BenchmarkStatsColumnar/scalar in internal/stats.
// predefined-sppm is what the ledger's read-side workloads spend their
// time in — the predefined tables over the 4×8 sPPM trace — and concat
// groups by a string concatenation over the storm trace, and hash by a
// duration, a key the dense group-by never takes. Every case
// carries the deterministic half of that claim: it fails when a run
// allocates more than statsAllocsPerRecord, which any per-record or
// per-group-per-frame allocation in the group-by, or a string built per
// record, does many times over (timing stays the ledger's job).
func BenchmarkStatsColumnar(b *testing.B) {
	const statsAllocsPerRecord = 0.05
	bench := func(mf *interval.File, prog string) func(b *testing.B) {
		return func(b *testing.B) {
			_, _, records, err := mf.Stats()
			if err != nil {
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tables, err := stats.GenerateOpts(prog, []*interval.File{mf}, interval.MapOptions{Parallel: 1})
				if err != nil {
					b.Fatal(err)
				}
				if len(tables[0].Rows) == 0 {
					b.Fatal("empty table")
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			work := float64(b.N) * float64(records)
			allocs := float64(after.Mallocs-before.Mallocs) / work
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/work, "ns/record")
			b.ReportMetric(allocs, "allocs/record")
			if allocs > statsAllocsPerRecord {
				b.Fatalf("%.3f allocs/record, ceiling %v: the stats path allocates per record", allocs, statsAllocsPerRecord)
			}
		}
	}
	stormFile := windowBenchFile(b)
	storm := bench(stormFile, `table name=busy x=("state", state) y=("t", dura, sum) y=("n", dura, count)
table name=bynode x=("node", node) x=("bin", bin(start, 50)) y=("t", dura, sum)
table name=sends condition=(msgSizeSent > 0) x=("node", node) y=("bytes", msgSizeSent, sum)`)
	b.Run("columnar-cold", storm)
	b.Run("concat", bench(stormFile, `table name=concat x=("s", state + bebits) y=("t", dura, sum) y=("n", dura, count)`))
	// A coded x beside a bin and a fractional y: the dense group-by over the
	// x columns' materialized values (groupDense), not the one-pass fold.
	b.Run("dense-coded", bench(stormFile, `table name=coded x=("s", state + bebits) x=("bin", bin(start, 50)) y=("t", dura / 2, sum)`))
	// A float key: no dense index, every row finds its group by hash.
	b.Run("hash", bench(stormFile, `table name=hash x=("d", dura) x=("n", node) y=("t", dura, sum) y=("n", dura, count)`))
	// The same key with a fraction in every group: each group's sum is
	// exact through a fraction accumulator in its table's slab.
	b.Run("frac-hash", bench(stormFile, `table name=frac x=("d", dura) y=("t", dura / 3, sum)`))
	b.Run("predefined-sppm", bench(sppmBenchFile(b), stats.Predefined(50)))
	// The storm trace's dictionaries are denser than sPPM's (about one
	// entry per ten records): the per-entry tables' scratch is held to
	// the same ceiling there.
	b.Run("predefined-storm", bench(stormFile, stats.Predefined(50)))
	// The two predefined tables that fold per row — the Figure 6 table
	// by direct index, bytes_by_pair by hash — alone.
	b.Run("rows-storm", bench(stormFile, predefinedTables(50, "interesting_by_node_bin", "bytes_by_pair")))
}

// predefinedTables is the predefined program cut down to the named
// tables, in its order.
func predefinedTables(bins int, names ...string) string {
	var b strings.Builder
	for _, block := range strings.Split(stats.Predefined(bins), "\n\n") {
		for _, name := range names {
			if strings.Contains(block, "table name="+name+"\n") {
				b.WriteString(block + "\n\n")
			}
		}
	}
	return b.String()
}

// sppmBenchTrace is the ledger's pipeline_sppm_4x8 trace built in
// process: sPPM, 4000 iterations, 4 nodes × 1 task × 8 CPUs, converted
// and merged with the tools' default options.
func sppmBenchTrace(b *testing.B) []byte {
	b.Helper()
	main, err := workload.Build("sppm", workload.Params{"iters": 4000})
	if err != nil {
		b.Fatal(err)
	}
	raws := simRaws(b, 4, 8, 1, 12, main)
	sb := interval.NewSeekBuffer()
	if _, err := merge.Merge(convertedFiles(b, raws), sb, merge.Options{}); err != nil {
		b.Fatal(err)
	}
	return sb.Bytes()
}

// sppmBenchFile is sppmBenchTrace opened in memory.
func sppmBenchFile(b *testing.B) *interval.File {
	b.Helper()
	mf, err := interval.NewFile(interval.NewSeekBufferFrom(sppmBenchTrace(b)))
	if err != nil {
		b.Fatal(err)
	}
	return mf
}

// BenchmarkSummarizeWide is the ledger's sweep_wide query at toy size:
// the imbalance workload on a 64 × 4 machine with 4 tasks a node (256
// lanes; no sidecar, so the scan engine answers), built in process and
// run through stats.TimeResolved at 64 bins. It reports ns/record and
// allocs/record, and fails above summarizeWideAllocs objects per query.
// The three tables allocate about 950 of them here (two slices a row)
// and the summary about 210, its lane rows dense: a lane map per bin
// cost the summary about 1 100 more.
func BenchmarkSummarizeWide(b *testing.B) {
	const summarizeWideAllocs = 1600
	main, err := workload.Build("imbalance", workload.Params{"iters": 2})
	if err != nil {
		b.Fatal(err)
	}
	sb := interval.NewSeekBuffer()
	if _, err := merge.Merge(convertedFiles(b, simRaws(b, 64, 4, 4, 12, main)), sb, merge.Options{}); err != nil {
		b.Fatal(err)
	}
	mf, err := interval.NewFile(sb)
	if err != nil {
		b.Fatal(err)
	}
	_, _, records, err := mf.Stats()
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tabs, err := stats.TimeResolved([]*interval.File{mf}, 64, interval.MapOptions{Parallel: 1})
		if err != nil {
			b.Fatal(err)
		}
		if tabs[0].Engine != "scan" || tabs[0].Lanes != 256 {
			b.Fatalf("summary answered by %q over %d lanes, want the scan over 256", tabs[0].Engine, tabs[0].Lanes)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	work := float64(b.N) * float64(records)
	perQuery := float64(after.Mallocs-before.Mallocs) / float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/work, "ns/record")
	b.ReportMetric(perQuery/float64(records), "allocs/record")
	if perQuery > summarizeWideAllocs {
		b.Fatalf("%.0f allocs per query, ceiling %d: the summary allocates per lane or per bin", perQuery, summarizeWideAllocs)
	}
}

// --- trace query service (utetraced's serving layer) -------------------

// serveBench builds a service with one registered on-disk trace and
// returns it with the request URL of a half-run window query in count
// mode (all decode, no JSON bodies — the purest cache measurement).
func serveBench(b *testing.B, n int) (*tracesvc.Service, *tracesvc.Trace, string) {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.ute")
	writeIntervalFile(b, path, interval.CurrentHeaderVersion, n)
	svc := tracesvc.New(tracesvc.Config{})
	tr, err := svc.Registry().Open(path)
	if err != nil {
		b.Fatal(err)
	}
	start, end, _ := tr.Bounds()
	lo, hi := start.Seconds(), (start + (end-start)/2).Seconds()
	url := fmt.Sprintf("/v1/traces/%s/records?window=%.9f:%.9f&count=1", tr.ID, lo, hi)
	return svc, tr, url
}

func serveOnce(b *testing.B, svc *tracesvc.Service, url string) {
	b.Helper()
	w := httptest.NewRecorder()
	svc.Handler().ServeHTTP(w, httptest.NewRequest("GET", url, nil))
	if w.Code != 200 {
		b.Fatalf("GET %s: %d %s", url, w.Code, w.Body)
	}
}

// BenchmarkServeWindowCold measures the window query with the cache
// flushed before every request: each iteration re-reads and re-decodes
// every overlapping frame.
func BenchmarkServeWindowCold(b *testing.B) {
	svc, tr, url := serveBench(b, 20000)
	defer svc.Close()
	runtime.GC()
	b.ResetTimer()
	start := tr.File().DecodedFrames()
	for i := 0; i < b.N; i++ {
		svc.Cache().Flush()
		serveOnce(b, svc, url)
	}
	b.ReportMetric(float64(tr.File().DecodedFrames()-start)/float64(b.N), "frames/op")
}

// BenchmarkServeWindowCached is the same query against a warm cache:
// the acceptance bar is ≥5x faster than cold with zero frames decoded
// per operation (the frames/op metric must print 0).
func BenchmarkServeWindowCached(b *testing.B) {
	svc, tr, url := serveBench(b, 20000)
	defer svc.Close()
	serveOnce(b, svc, url) // warm the cache
	runtime.GC()
	b.ResetTimer()
	start := tr.File().DecodedFrames()
	for i := 0; i < b.N; i++ {
		serveOnce(b, svc, url)
	}
	decoded := tr.File().DecodedFrames() - start
	b.ReportMetric(float64(decoded)/float64(b.N), "frames/op")
	if decoded != 0 {
		b.Fatalf("warm queries decoded %d frames", decoded)
	}
}

// BenchmarkServeStatsWarm is serve_zoom_warm's dominant request in
// process: the predefined tables at 16 bins over a window of the
// ledger's sPPM 4×8 trace, through the trace service's handler, asked
// over and over. The first asking evaluates every frame of the window
// and the second stores the partial of every frame inside it and the
// whole answer, so every timed request, the third and later, is a
// stored answer: the benchmark fails unless the answer hits advance by
// exactly b.N, if a body differs from the first answer, or unless the
// JSON form (which is never memoized whole) evaluates and fetches
// exactly the frames the window cuts, whose partials are never memoized,
// and reuses the partials of all the others.
func BenchmarkServeStatsWarm(b *testing.B) {
	path := filepath.Join(b.TempDir(), "sppm.ute")
	if err := os.WriteFile(path, sppmBenchTrace(b), 0o644); err != nil {
		b.Fatal(err)
	}
	svc := tracesvc.New(tracesvc.Config{})
	defer svc.Close()
	tr, err := svc.Registry().Open(path)
	if err != nil {
		b.Fatal(err)
	}
	start, end, _ := tr.Bounds()
	window := fmt.Sprintf("%.9f:%.9f", (start + (end-start)*3/10).Seconds(), (start + (end-start)*6/10).Seconds())
	lo, hi, err := clock.ParseWindow(window)
	if err != nil {
		b.Fatal(err)
	}
	var selected, cut int
	for _, fe := range tr.Frames() {
		if fe.End >= lo && fe.Start <= hi {
			selected++
			if fe.Start < lo || fe.End > hi {
				cut++
			}
		}
	}
	url := fmt.Sprintf("/v1/traces/%s/stats?bins=16&window=%s", tr.ID, window)
	serve := func(url string) string {
		w := httptest.NewRecorder()
		svc.Handler().ServeHTTP(w, httptest.NewRequest("GET", url, nil))
		if w.Code != 200 {
			b.Fatalf("GET %s: %d %s", url, w.Code, w.Body)
		}
		return w.Body.String()
	}
	first := serve(url)
	serve(url)
	runtime.GC()
	hits := svc.Cache().Stats().AnswerHits
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if serve(url) != first {
			b.Fatalf("asking %d: body differs from the first answer", i+3)
		}
	}
	b.StopTimer()
	if got := svc.Cache().Stats().AnswerHits - hits; got != int64(b.N) {
		b.Fatalf("%d of %d warm requests were answer hits", got, b.N)
	}
	var plan struct {
		Tables []struct {
			Name string `json:"name"`
			TSV  string `json:"tsv"`
		} `json:"tables"`
		FramesEvaluated *int `json:"framesEvaluated"`
		PartialsReused  *int `json:"partialsReused"`
		FramesFetched   *int `json:"framesFetched"`
	}
	if err := json.Unmarshal([]byte(serve(url+"&format=json")), &plan); err != nil {
		b.Fatal(err)
	}
	var body strings.Builder
	for _, tb := range plan.Tables {
		fmt.Fprintf(&body, "# table %s\n%s\n", tb.Name, tb.TSV)
	}
	if body.String() != first {
		b.Fatal("the JSON form's tables differ from the first answer")
	}
	if plan.FramesEvaluated == nil || plan.PartialsReused == nil || plan.FramesFetched == nil {
		b.Fatalf("no framesEvaluated/partialsReused/framesFetched reported: every request may fetch and evaluate all %d frames of its window", selected)
	}
	b.ReportMetric(float64(*plan.FramesEvaluated), "evaluated/op")
	b.ReportMetric(float64(*plan.FramesFetched), "fetched/op")
	b.ReportMetric(float64(selected), "frames/op")
	if *plan.FramesEvaluated != cut || *plan.FramesFetched != cut || *plan.PartialsReused != selected-cut {
		b.Fatalf("a warm request evaluated %d, fetched %d and reused %d of its window's %d frames; want the %d it cuts evaluated and fetched, the other %d reused",
			*plan.FramesEvaluated, *plan.FramesFetched, *plan.PartialsReused, selected, cut, selected-cut)
	}
}

// BenchmarkServeRecordsPage reads one /records page through the trace
// service's handler: 200 records from an offset inside a window over the
// middle half of the run, a page spanning at least 4 frames. A page is
// never memoized whole. cold flushes the cache before every request;
// reread asks the page again after two warm-up askings.
// It reports frames/op, the frame payloads one request read, and fails
// when a body differs from the first.
func BenchmarkServeRecordsPage(b *testing.B) {
	for _, rung := range []struct {
		name  string
		flush bool
	}{{"cold", true}, {"reread", false}} {
		b.Run(rung.name, func(b *testing.B) {
			svc, tr, _ := serveBench(b, 20000)
			defer svc.Close()
			start, end, _ := tr.Bounds()
			window := fmt.Sprintf("%.9f:%.9f", (start + (end-start)/4).Seconds(), (start + (end-start)*3/4).Seconds())
			const offset, limit = 1000, 200
			url := fmt.Sprintf("/v1/traces/%s/records?window=%s&offset=%d&limit=%d", tr.ID, window, offset, limit)
			if spans := pageFrames(b, tr, window, offset, limit); spans < 4 {
				b.Fatalf("the page spans %d frames, want at least 4", spans)
			}
			serve := func(u string) string {
				w := httptest.NewRecorder()
				svc.Handler().ServeHTTP(w, httptest.NewRequest("GET", u, nil))
				if w.Code != 200 {
					b.Fatalf("GET %s: %d %s", u, w.Code, w.Body)
				}
				return w.Body.String()
			}
			first := serve(url)
			serve(url)
			runtime.GC()
			b.ResetTimer()
			decoded := tr.File().DecodedFrames()
			for i := 0; i < b.N; i++ {
				if rung.flush {
					svc.Cache().Flush()
				}
				if serve(url) != first {
					b.Fatalf("asking %d: the page differs from the first", i+3)
				}
			}
			b.ReportMetric(float64(tr.File().DecodedFrames()-decoded)/float64(b.N), "frames/op")
		})
	}
}

// pageFrames counts the frames holding records of the page [offset,
// offset+limit) of window, from fresh decodes of the frames.
func pageFrames(b *testing.B, tr *tracesvc.Trace, window string, offset, limit int) int {
	b.Helper()
	lo, hi, err := clock.ParseWindow(window)
	if err != nil {
		b.Fatal(err)
	}
	n, spans := 0, 0
	for _, fe := range tr.Frames() {
		if fe.End < lo || fe.Start > hi {
			continue
		}
		fb, err := tr.File().ReadFrameBatch(fe)
		if err != nil {
			b.Fatal(err)
		}
		first := n
		for i := 0; i < fb.N; i++ {
			if fb.End(i) >= lo && fb.Start[i] <= hi {
				n++
			}
		}
		if n > offset && first < offset+limit {
			spans++
		}
	}
	return spans
}

// BenchmarkServeScanPoll is a live dashboard's poll in process: the
// time-resolved tables at 64 bins over the ledger's sPPM 4×8 trace,
// opened without a sidecar so the scan engine answers, through the trace
// service's handler, asked again and again with the memo flushed first,
// so no stored answer stands in (a live trace's next seal generation is a
// fresh key too; the scan engine stores no partials). It reports
// frames/op, the frame payloads one poll read, and fails when a body
// differs from the first or another engine answers.
func BenchmarkServeScanPoll(b *testing.B) {
	path := filepath.Join(b.TempDir(), "sppm.ute")
	if err := os.WriteFile(path, sppmBenchTrace(b), 0o644); err != nil {
		b.Fatal(err)
	}
	svc := tracesvc.New(tracesvc.Config{})
	defer svc.Close()
	tr, err := svc.Registry().Open(path)
	if err != nil {
		b.Fatal(err)
	}
	url := fmt.Sprintf("/v1/traces/%s/stats?timeresolved=1&bins=64", tr.ID)
	serve := func(u string) string {
		w := httptest.NewRecorder()
		svc.Handler().ServeHTTP(w, httptest.NewRequest("GET", u, nil))
		if w.Code != 200 {
			b.Fatalf("GET %s: %d %s", u, w.Code, w.Body)
		}
		return w.Body.String()
	}
	if plan := serve(url + "&format=json"); !strings.Contains(plan, `"engine": "scan"`) {
		b.Fatalf("the time-resolved tables were not answered by the scan engine: %.200s", plan)
	}
	first := serve(url)
	runtime.GC()
	b.ResetTimer()
	decoded := tr.File().DecodedFrames()
	for i := 0; i < b.N; i++ {
		svc.Cache().Flush()
		if serve(url) != first {
			b.Fatalf("poll %d: body differs from the first", i+1)
		}
	}
	b.ReportMetric(float64(tr.File().DecodedFrames()-decoded)/float64(b.N), "frames/op")
}

// --- summary-pyramid preview (the O(pixels) pan/zoom path) -------------

// pyramidTrace writes an n-record trace with its .pyr sidecar beside it
// (so Open attaches it) and, as bare, a hard link to the same trace
// with no sidecar — what is attached being the only thing that selects
// the summary engine.
func pyramidTrace(b *testing.B, n int) (path, bare string, p *interval.Pyramid) {
	b.Helper()
	dir := b.TempDir()
	path, bare = filepath.Join(dir, "bench.ute"), filepath.Join(dir, "bare.ute")
	writeIntervalFile(b, path, interval.CurrentHeaderVersion, n)
	// The default 4096 base cells would outweigh a trace this small.
	sb, err := interval.BuildPyramidSidecar(path, interval.PyramidOptions{BaseCells: 1024})
	if err != nil {
		b.Fatal(err)
	}
	if sb.Declined() {
		b.Fatalf("sidecar (%d bytes) outweighs the trace (%d bytes)", sb.Bytes, sb.TraceBytes)
	}
	if err := os.Link(path, bare); err != nil {
		b.Fatal(err)
	}
	return path, bare, sb.Pyramid
}

// servePreviewBench registers a trace with its sidecar (engine
// "pyramid") or without (engine "scan") and returns a window aligned to
// base-cell boundaries and a bin count dividing the cell span — the
// geometry under which the pyramid engine needs zero frame decodes.
func servePreviewBench(b *testing.B, n int, engine string) (svc *tracesvc.Service, tr *tracesvc.Trace, bins int, lo, hi clock.Time) {
	b.Helper()
	path, bare, p := pyramidTrace(b, n)
	if engine == "scan" {
		path = bare
	}
	svc = tracesvc.New(tracesvc.Config{})
	tr, err := svc.Registry().Open(path)
	if err != nil {
		b.Fatal(err)
	}
	if (tr.File().Pyramid() != nil) != (engine == "pyramid") || len(p.Levels) == 0 {
		b.Fatalf("engine %s: pyramid attached: %v", engine, tr.File().Pyramid() != nil)
	}
	base := p.Levels[0]
	bins = 16
	cells := len(base.Cells) / bins * bins
	if cells == 0 {
		bins, cells = 1, len(base.Cells)
	}
	lo = clock.Time(base.First) * base.Width
	hi = lo + clock.Time(cells)*base.Width
	return svc, tr, bins, lo, hi
}

// previewWindow is the window query parameter for [lo, hi]. The URL
// carries it in seconds; the bounds must survive the decimal round
// trip, or a rung asserting zero decodes on aligned bounds would
// silently measure edge remainders instead, and one asserting unaligned
// bounds would not.
func previewWindow(b *testing.B, lo, hi clock.Time) string {
	b.Helper()
	window := fmt.Sprintf("%.9f:%.9f", lo.Seconds(), hi.Seconds())
	if plo, phi, err := clock.ParseWindow(window); err != nil || plo != lo || phi != hi {
		b.Fatalf("window %q round-trips to [%v .. %v], want [%v .. %v]", window, plo, phi, lo, hi)
	}
	return window
}

// BenchmarkServePreview compares the preview endpoint's engines on the
// same aligned window: cold scan (cache flushed before every request),
// scan (each request under a fresh answer key, so the scan runs rather
// than a stored answer), and pyramid — which answers from O(bins) stored
// cells and fails the benchmark if it decodes a single frame, cache or
// no cache.
func BenchmarkServePreview(b *testing.B) {
	run := func(b *testing.B, engine string, flush, wantZero bool) {
		svc, tr, bins, lo, hi := servePreviewBench(b, 20000, engine)
		defer svc.Close()
		url := fmt.Sprintf("/v1/traces/%s/preview.svg?view=preview&bins=%d&window=%s", tr.ID, bins, previewWindow(b, lo, hi))
		// Two askings store the answer; the scan rung asks past it.
		serveOnce(b, svc, url)
		serveOnce(b, svc, url)
		if flush {
			svc.Cache().Flush()
		}
		runtime.GC()
		b.ResetTimer()
		start := tr.File().DecodedFrames()
		for i := 0; i < b.N; i++ {
			if flush {
				svc.Cache().Flush()
				serveOnce(b, svc, url)
			} else {
				serveOnce(b, svc, url+"&op="+strconv.Itoa(i))
			}
		}
		decoded := tr.File().DecodedFrames() - start
		b.ReportMetric(float64(decoded)/float64(b.N), "frames/op")
		if wantZero && decoded != 0 {
			b.Fatalf("pyramid preview decoded %d frames", decoded)
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, "scan", true, false) })
	b.Run("scan", func(b *testing.B) { run(b, "scan", false, false) })
	b.Run("pyramid", func(b *testing.B) { run(b, "pyramid", true, true) })
	// pyramid-warm narrows the aligned window by a third of a base cell
	// at each end, so every asking has edge remainders. Asked twice as a
	// preview and twice as a time-resolved table, the window is warm: from
	// then on the rung fails unless every asking, two per op, is an answer
	// hit, when any asking reads a frame, or when a body differs from the
	// first answer. The table's JSON form, never memoized whole, must
	// fetch exactly the frames overlapping the edge remainders.
	b.Run("pyramid-warm", func(b *testing.B) {
		svc, tr, bins, lo, hi := servePreviewBench(b, 20000, "pyramid")
		defer svc.Close()
		base := tr.File().Pyramid().Levels[0].Width
		lo, hi = lo+base/3, hi-base/3
		if lo%base == 0 || hi%base == 0 {
			b.Fatalf("window [%v .. %v] lands on a base-cell bound", lo, hi)
		}
		window := previewWindow(b, lo, hi)
		preview := fmt.Sprintf("/v1/traces/%s/preview.svg?view=preview&bins=%d&window=%s", tr.ID, bins, window)
		table := fmt.Sprintf("/v1/traces/%s/stats?timeresolved=1&bins=%d&window=%s", tr.ID, bins, window)
		serve := func(url string) string {
			w := httptest.NewRecorder()
			svc.Handler().ServeHTTP(w, httptest.NewRequest("GET", url, nil))
			if w.Code != 200 {
				b.Fatalf("GET %s: %d %s", url, w.Code, w.Body)
			}
			return w.Body.String()
		}
		firstPreview := serve(preview)
		serve(preview)
		firstTable := serve(table)
		serve(table)
		runtime.GC()
		hits := svc.Cache().Stats().AnswerHits
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, ask := range []struct{ url, first string }{{preview, firstPreview}, {table, firstTable}} {
				decoded := tr.File().DecodedFrames()
				if serve(ask.url) != ask.first {
					b.Fatalf("%s: body differs from the first answer", ask.url)
				}
				if got := tr.File().DecodedFrames() - decoded; got != 0 {
					b.Fatalf("%s: a warm asking read %d frames", ask.url, got)
				}
			}
		}
		b.StopTimer()
		if got := svc.Cache().Stats().AnswerHits - hits; got != 2*int64(b.N) {
			b.Fatalf("%d of %d warm askings were answer hits", got, 2*b.N)
		}
		want := testutil.RemainderFrames(b, tr.File(), lo, hi, bins)
		var plan struct{ FramesDecoded *int }
		if err := json.Unmarshal([]byte(serve(table+"&format=json")), &plan); err != nil || plan.FramesDecoded == nil || *plan.FramesDecoded != want {
			b.Fatalf("the JSON table fetched %v frames, want the %d overlapping its edge remainders (%v)", plan.FramesDecoded, want, err)
		}
		b.ReportMetric(float64(want), "remainder-frames")
	})
}

// BenchmarkPreviewZoom drives a zoom ladder — ten nested windows, each
// halving the span around the run's midpoint — through BuildPreview:
// the interactive pan/zoom pattern whose per-frame cost the pyramid
// removes. The windows are deliberately not cell-aligned, so the
// pyramid engine pays only the O(1) edge-remainder decodes per window
// while the scan engine re-decodes everything it overlaps.
func BenchmarkPreviewZoom(b *testing.B) {
	path, bare, _ := pyramidTrace(b, 20000)
	open := func(path string) *interval.File {
		f, err := interval.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { f.Close() })
		return f
	}
	mf, bf := open(path), open(bare)
	fs, fe, _, err := mf.Stats()
	if err != nil {
		b.Fatal(err)
	}
	mid := fs + (fe-fs)/2
	var windows [][2]clock.Time
	for z := 1; z <= 10; z++ {
		half := (fe - fs) >> uint(z+1)
		windows = append(windows, [2]clock.Time{mid - half, mid + half})
	}
	run := func(b *testing.B, mf *interval.File, engine string) {
		runtime.GC()
		b.ResetTimer()
		frames := 0
		for i := 0; i < b.N; i++ {
			for _, w := range windows {
				res, err := render.BuildPreview(mf, render.PreviewOptions{Bins: 64, T0: w[0], T1: w[1]})
				if err != nil {
					b.Fatal(err)
				}
				if res.Engine != engine {
					b.Fatalf("preview answered by %s, want %s", res.Engine, engine)
				}
				frames += res.FramesDecoded
			}
		}
		b.ReportMetric(float64(frames)/float64(b.N), "frames/op")
	}
	b.Run("pyramid", func(b *testing.B) { run(b, mf, "pyramid") })
	b.Run("scan", func(b *testing.B) { run(b, bf, "scan") })
	// whole-512 is the pipeline's own preview: the whole run at 512 bins,
	// whose edges never land on cell bounds, so the pyramid engine decodes
	// about as many frames as the scan does. It must hold one at a time:
	// the rung fails when the pyramid engine allocates more bytes per op
	// than the scan engine over the same file.
	b.Run("whole-512", func(b *testing.B) {
		mf.Pyramid() // loaded once per File; not what this rung measures
		// preview returns the bytes allocated per op and the frames decoded
		// over b.N whole-run previews of f.
		preview := func(f *interval.File, engine string) (float64, int) {
			frames := 0
			var m0 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < b.N; i++ {
				res, err := render.BuildPreview(f, render.PreviewOptions{Bins: 512})
				if err != nil {
					b.Fatal(err)
				}
				if res.Engine != engine {
					b.Fatalf("preview answered by %s, want %s", res.Engine, engine)
				}
				frames += res.FramesDecoded
			}
			bytes, _ := allocatedSince(&m0, float64(b.N))
			return bytes, frames
		}
		pyrBytes, frames := preview(mf, "pyramid")
		scanBytes, _ := preview(bf, "scan")
		b.ReportMetric(float64(frames)/float64(b.N), "frames/op")
		b.ReportMetric(pyrBytes, "pyramid-B/op")
		b.ReportMetric(scanBytes, "scan-B/op")
		if pyrBytes > scanBytes {
			b.Fatalf("the pyramid engine allocated %.0f bytes per op, the scan engine %.0f", pyrBytes, scanBytes)
		}
	})
}

// --- streaming ingest (the live write path) ----------------------------

// ingestPreambleCut returns the end offset of the last thread-info or
// marker-define record in a raw stream: everything up to it is the
// node's batch-0 preamble per the ingest contract.
func ingestPreambleCut(b *testing.B, raw []byte) int {
	b.Helper()
	off := convert.RawHeaderSize
	cut := off
	for off < len(raw) {
		rec, n, err := trace.Decode(raw[off:])
		if err != nil {
			b.Fatalf("raw trace undecodable at %d: %v", off, err)
		}
		off += n
		if rec.Type == events.EvThreadInfo || rec.Type == events.EvMarkerDefine {
			cut = off
		}
	}
	return cut
}

// ingestBatches cuts each node's raw stream as a poster does: the
// preamble, then 64 KiB batches that ignore record boundaries. It also
// returns the streams' total size.
func ingestBatches(b *testing.B, raws [][]byte) ([][][]byte, int64) {
	var total int64
	batches := make([][][]byte, len(raws))
	for n, raw := range raws {
		total += int64(len(raw))
		cut := ingestPreambleCut(b, raw)
		bs := [][]byte{raw[:cut]}
		const chunk = 64 << 10
		for rest := raw[cut:]; len(rest) > 0; {
			c := min(chunk, len(rest))
			bs, rest = append(bs, rest[:c]), rest[c:]
		}
		batches[n] = bs
	}
	return batches, total
}

// benchIngest drives complete ingest sessions end to end — per-node raw
// streams posted as sequence-numbered batches, incrementally converted,
// clock-adjusted, live-merged, and sealed to an on-disk v4 file — and
// reports raw events ingested per second.
func benchIngest(b *testing.B, nodes int) {
	raws := stormRawsN(b, nodes, 120)
	ev := rawEventCount(b, raws)
	batches, total := ingestBatches(b, raws)
	dir := b.TempDir()
	b.SetBytes(total)
	runtime.GC()
	var before runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := ingest.NewManager(ingest.Config{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		sess, err := m.Begin(fmt.Sprintf("bench-%d", i), nodes)
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, nodes)
		for n := range batches {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for seq, batch := range batches[n] {
					last := seq == len(batches[n])-1
					if err := sess.Batch(n, uint64(seq), last, batch); err != nil {
						errs[n] = err
						return
					}
				}
			}(n)
		}
		wg.Wait()
		if err := sess.Wait(); err != nil {
			b.Fatal(err)
		}
		for n, err := range errs {
			if err != nil {
				b.Fatalf("node %d: %v", n, err)
			}
		}
	}
	b.StopTimer()
	_, allocs := allocatedSince(&before, float64(ev)*float64(b.N))
	b.ReportMetric(float64(ev)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(allocs, "allocs/event")
	if allocs > ingestAllocsPerEvent {
		b.Fatalf("%.2f allocs/event, ceiling %v: the decoder or the streaming converter allocates per event again",
			allocs, ingestAllocsPerEvent)
	}
}

// ingestAllocsPerEvent is 1.5 times what a one-iteration smoke run of a
// live ingest allocates per raw event, 0.135 at one node and 0.075 at
// four, most of it the session's fixed cost (a few hundred objects over a
// few thousand events; 0.084 and 0.068 over 30 iterations). Nothing on
// the path allocates per event: the batch decoder and the streaming
// converter reuse their buffers, merge.LiveSource copies each record into
// a ring slot that keeps its Extra storage, and the open-state tracker
// copies a Begin into the slot its last closed state left; a per-record
// Extra clone in either puts the figure above 0.8.
const ingestAllocsPerEvent = 0.2

// BenchmarkIngest measures the streaming write path at one node (pure
// pipeline cost, no merge contention) and at four (the live k-way merge
// fed by concurrent posters).
func BenchmarkIngest(b *testing.B) {
	b.Run("nodes1", func(b *testing.B) { benchIngest(b, 1) })
	b.Run("nodes4", func(b *testing.B) { benchIngest(b, 4) })
}

// ingestHTTPBytesPerEvent is the ceiling on bytes allocated per raw
// event by a live ingest over HTTP, posters and server together, in a
// one-iteration smoke run. Each 64 KiB batch used to be grown by
// io.ReadAll and copied again by the sequencer: 300–306 B per event.
// Read into a pooled buffer and converted where it lies, a batch costs
// 108–113, most of it per session (the sources' chunks, the writer's
// frame buffers) or per request (the client's 32 KiB copy buffer), not
// per byte; the ceiling leaves room for a collection emptying the pool.
const ingestHTTPBytesPerEvent = 180

// BenchmarkIngestHTTP is BenchmarkIngest's two-node case through the
// daemon's HTTP surface, as the ledger's live-ingest workload drives it:
// a server on a loopback port, a begin, the preambles, then one poster
// per node streaming 64 KiB batches in order, and a DELETE once the
// trace seals. It reports raw events per second and what the process —
// posters and server — allocates per event, and fails above
// ingestHTTPBytesPerEvent.
func BenchmarkIngestHTTP(b *testing.B) {
	const nodes = 2
	raws := stormRawsN(b, nodes, 1500)
	ev := rawEventCount(b, raws)
	batches, total := ingestBatches(b, raws)
	m, err := ingest.NewManager(ingest.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	svc := tracesvc.New(tracesvc.Config{})
	defer svc.Close()
	svc.EnableIngest(m)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := srv.Client()
	do := func(method, url string, body []byte, want int) ([]byte, error) {
		req, err := http.NewRequest(method, srv.URL+url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != want {
			err = fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, data)
		}
		return data, err
	}

	b.SetBytes(total)
	runtime.GC()
	var before runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("bench-%d", i)
		data, err := do("POST", fmt.Sprintf("/v1/ingest/%s?op=begin&nodes=%d", name, nodes), nil, http.StatusCreated)
		if err != nil {
			b.Fatal(err)
		}
		var began struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(data, &began); err != nil {
			b.Fatal(err)
		}
		for n := range batches {
			if _, err := do("POST", fmt.Sprintf("/v1/ingest/%s?node=%d&seq=0", name, n), batches[n][0], http.StatusAccepted); err != nil {
				b.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, nodes)
		for n := range batches {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for seq := 1; seq < len(batches[n]); seq++ {
					url := fmt.Sprintf("/v1/ingest/%s?node=%d&seq=%d", name, n, seq)
					if seq == len(batches[n])-1 {
						url += "&last=1"
					}
					if _, err := do("POST", url, batches[n][seq], http.StatusAccepted); err != nil {
						errs[n] = err
						return
					}
				}
			}(n)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			b.Fatal(err)
		}
		sess, ok := m.Get(name)
		if !ok {
			b.Fatalf("no session %s", name)
		}
		if err := sess.Wait(); err != nil {
			b.Fatal(err)
		}
		if _, err := do("DELETE", "/v1/traces/"+began.ID, nil, http.StatusNoContent); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	bytes, allocs := allocatedSince(&before, float64(ev)*float64(b.N))
	b.ReportMetric(float64(ev)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(allocs, "allocs/event")
	b.ReportMetric(bytes, "B/event")
	if bytes > ingestHTTPBytesPerEvent {
		b.Fatalf("%.1f B/event, ceiling %v: a batch body is copied or grown per request again",
			bytes, ingestHTTPBytesPerEvent)
	}
}
