// Package testutil provides pipeline helpers shared by the test suites
// of the utilities that sit on top of the simulated machine: run a
// workload, convert its raw traces, and merge the interval files, all in
// memory. It is imported only from external test packages (package
// x_test), so it may depend on every pipeline stage without cycles.
package testutil

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"tracefw/internal/clock"
	"tracefw/internal/cluster"
	"tracefw/internal/convert"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/mpisim"
	"tracefw/internal/sched"
	"tracefw/internal/trace"
)

// Shape describes the simulated machine for a test run.
type Shape struct {
	Nodes        int
	TasksPerNode int
	CPUs         int
	Seed         uint64
	Drifts       []float64    // optional explicit drifts
	Quantum      int64        // optional scheduler quantum, ns
	Policy       sched.Policy // optional dispatch policy (nil = fifo)
}

// RunWorkload executes main on every task of a fresh in-memory world and
// returns the per-node raw trace bytes.
func RunWorkload(t testing.TB, sh Shape, main func(*mpisim.Proc)) [][]byte {
	t.Helper()
	if sh.Seed == 0 {
		sh.Seed = 42
	}
	bufs := make([]*bytes.Buffer, sh.Nodes)
	ws := make([]io.Writer, sh.Nodes)
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
		ws[i] = bufs[i]
	}
	cfg := mpisim.Config{
		Cluster: cluster.Config{
			Nodes:       sh.Nodes,
			CPUsPerNode: sh.CPUs,
			TraceOpts:   trace.Options{Enabled: events.MaskAll},
			Drifts:      sh.Drifts,
			Seed:        sh.Seed,
			Policy:      sh.Policy,
		},
		TasksPerNode: sh.TasksPerNode,
	}
	if sh.Quantum > 0 {
		cfg.Cluster.Quantum = clock.Time(sh.Quantum)
	}
	w, err := mpisim.New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	w.Start(main)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	raws := make([][]byte, sh.Nodes)
	for i := range bufs {
		raws[i] = bufs[i].Bytes()
	}
	return raws
}

// ConvertRun converts raw traces into interval files (in memory).
func ConvertRun(t testing.TB, raws [][]byte, wopts interval.WriterOptions) []*interval.File {
	t.Helper()
	outs, _, err := convert.ConvertBuffers(raws, convert.Options{Writer: wopts})
	if err != nil {
		t.Fatal(err)
	}
	files := make([]*interval.File, len(outs))
	for i, sb := range outs {
		f, err := interval.NewFile(sb)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	return files
}

// ConvertToDisk converts raw traces into per-node interval files
// dir/trace.N.ute — utemerge's inputs — and returns their paths.
func ConvertToDisk(t testing.TB, raws [][]byte, wopts interval.WriterOptions, dir string) []string {
	t.Helper()
	outs, _, err := convert.ConvertBuffers(raws, convert.Options{Writer: wopts})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(outs))
	for i, sb := range outs {
		paths[i] = filepath.Join(dir, fmt.Sprintf("trace.%d.ute", i))
		if err := os.WriteFile(paths[i], sb.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// MergeRun merges interval files into one (in memory).
func MergeRun(t testing.TB, files []*interval.File, opts merge.Options) (*interval.File, *merge.Result) {
	t.Helper()
	sb := interval.NewSeekBuffer()
	res, err := merge.Merge(files, sb, opts)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := interval.NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	return mf, res
}

// MergeToDisk merges interval files into a trace file under t.TempDir()
// and returns its path — for the behaviour that only a real path has: the
// summary sidecar beside it.
func MergeToDisk(t testing.TB, files []*interval.File, opts merge.Options) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "merged.ute")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := merge.Merge(files, out, opts); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// OpenSidecarPair builds the summary sidecar of the trace at path and
// opens the trace twice, with the sidecar attached and without. Nothing
// but what is attached selects the engine a window summary is answered
// by, so the pair is how a differential test gets both answers. A
// fixture whose sidecar the size rule declines is a broken fixture
// (shrink BaseCells); nothing here bypasses the rule.
func OpenSidecarPair(t testing.TB, path string, opts interval.PyramidOptions) (with, without *interval.File) {
	t.Helper()
	b, err := interval.BuildPyramidSidecar(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if b.Declined() {
		t.Fatalf("fixture sidecar (%d bytes) outweighs its trace (%d bytes)", b.Bytes, b.TraceBytes)
	}
	open := func(o ...interval.Option) *interval.File {
		f, err := interval.Open(path, o...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	with, without = open(), open(interval.WithPyramid(false))
	if with.Pyramid() == nil || without.Pyramid() != nil {
		t.Fatalf("sidecar attached: with=%v without=%v", with.Pyramid() != nil, without.Pyramid() != nil)
	}
	return with, without
}

// RemainderFrames counts the frames a time-resolved table of bins bins
// over [lo, hi] — clamped to f's run, as stats.TimeResolved clamps it —
// fetches on the pyramid engine: the frames overlapping an edge
// remainder, a bin's span outside the base cells of f's pyramid it
// covers whole (the whole bin when it covers none). It works from the
// pyramid's base width and interval.BinEdge alone, independently of the
// engine.
func RemainderFrames(t testing.TB, f *interval.File, lo, hi clock.Time, bins int) int {
	t.Helper()
	first, last, _, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	fes, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi = max(lo, first), min(hi, last)
	w := f.Pyramid().BaseWidth
	floor := func(x clock.Time) clock.Time {
		q := x / w
		if x%w < 0 {
			q--
		}
		return q * w
	}
	var rems [][2]clock.Time // [r0, r1)
	for i := 0; i < bins; i++ {
		b0, b1 := interval.BinEdge(lo, hi, bins, i), interval.BinEdge(lo, hi, bins, i+1)
		ia, ib := floor(b0+w-1), floor(b1)
		if ia >= ib {
			rems = append(rems, [2]clock.Time{b0, b1})
			continue
		}
		if b0 < ia {
			rems = append(rems, [2]clock.Time{b0, ia})
		}
		if ib < b1 {
			rems = append(rems, [2]clock.Time{ib, b1})
		}
	}
	n := 0
	for _, fe := range fes {
		for _, r := range rems {
			if fe.End >= r[0] && fe.Start < r[1] {
				n++
				break
			}
		}
	}
	return n
}

// Pipeline runs workload → convert → merge and returns the merged file.
func Pipeline(t testing.TB, sh Shape, mopts merge.Options, main func(*mpisim.Proc)) (*interval.File, *merge.Result) {
	t.Helper()
	raws := RunWorkload(t, sh, main)
	files := ConvertRun(t, raws, interval.WriterOptions{})
	return MergeRun(t, files, mopts)
}

// WideShape is a machine whose open set alone overflows a 4 KiB frame:
// 208 threads, each holding Running plus one or two marker states (and
// usually an MPI call) open at any instant of NestedWork.
var WideShape = Shape{Nodes: 26, TasksPerNode: 8, CPUs: 2, Seed: 5}

// NestedWork keeps nested marker states open on every thread around
// iters rounds of rank-skewed compute, a ring exchange and a collective.
func NestedWork(iters int) func(*mpisim.Proc) {
	return func(p *mpisim.Proc) {
		outer, inner := p.DefineMarker("outer"), p.DefineMarker("inner")
		next, prev := (p.Rank()+1)%p.Size(), (p.Rank()+p.Size()-1)%p.Size()
		p.MarkerBegin(outer)
		for i := 0; i < iters; i++ {
			p.MarkerBegin(inner)
			p.Compute(clock.Time(1+p.Rank()%7) * 50 * clock.Microsecond)
			p.Sendrecv(next, int32(i), 256, int32(prev), int32(i))
			p.MarkerEnd(inner)
			p.Allreduce(64)
		}
		p.MarkerEnd(outer)
	}
}

// PhasedWork is a two-rank workload with a marked long phase and steady
// blocking messaging — enough structure for preview, arrow and open-state
// assertions.
func PhasedWork(p *mpisim.Proc) {
	peer := 1 - p.Rank()
	m := p.DefineMarker("Main Phase")
	p.MarkerBegin(m)
	for i := 0; i < 60; i++ {
		p.Compute(clock.Millisecond)
		if p.Rank() == 0 {
			p.Send(peer, int32(i), 1024)
			p.Recv(int32(peer), int32(i))
		} else {
			p.Recv(int32(peer), int32(i))
			p.Send(peer, int32(i), 1024)
		}
	}
	p.MarkerEnd(m)
	p.Barrier()
}

// WaitallWork is a two-rank halo exchange completed exclusively through
// Waitall, so every receive envelope travels in a record's vector field.
func WaitallWork(p *mpisim.Proc) {
	peer := 1 - p.Rank()
	for i := 0; i < 15; i++ {
		rr := p.Irecv(int32(peer), int32(i))
		sr := p.Isend(peer, int32(i), 2048)
		p.Compute(clock.Millisecond)
		p.Waitall(rr, sr)
	}
	p.Barrier()
}

// SettleGoroutines waits for the goroutine count to fall back to before
// — servers closed, idle client connections dropped — and fails with
// every stack when it does not within a few seconds: the check that no
// goroutine a test started outlives it.
func SettleGoroutines(t testing.TB, before int) {
	t.Helper()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines before, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
