package cluster

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/sched"
	"tracefw/internal/trace"
)

func memMachine(t *testing.T, cfg Config) (*Machine, []*bytes.Buffer) {
	t.Helper()
	bufs := make([]*bytes.Buffer, cfg.Nodes)
	ws := make([]io.Writer, cfg.Nodes)
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
		ws[i] = bufs[i]
	}
	m, err := New(ws, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, bufs
}

func readAll(t *testing.T, buf *bytes.Buffer) []trace.Record {
	t.Helper()
	rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func baseCfg(nodes int) Config {
	return Config{
		Nodes:       nodes,
		CPUsPerNode: 2,
		TraceOpts:   trace.Options{Enabled: events.MaskAll},
		Seed:        1,
	}
}

func TestDispatchRecordsHaveLocalTimestamps(t *testing.T) {
	cfg := baseCfg(1)
	cfg.Drifts = []float64{1e-4}
	cfg.Offsets = []clock.Time{3 * clock.Second}
	m, bufs := memMachine(t, cfg)
	m.SpawnTraced(0, 0, events.ThreadMPI, func(th *sched.Thread) {
		th.Compute(10 * clock.Second)
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	recs := readAll(t, bufs[0])
	var dispatch, undispatch *trace.Record
	for i := range recs {
		switch recs[i].Type {
		case events.EvDispatch:
			dispatch = &recs[i]
		case events.EvUndispatch:
			undispatch = &recs[i]
		}
	}
	if dispatch == nil || undispatch == nil {
		t.Fatalf("missing dispatch records: %+v", recs)
	}
	// Dispatch at true time 0 -> local 3s (quantized).
	if d := dispatch.Time - 3*clock.Second; d < -clock.Microsecond || d > clock.Microsecond {
		t.Fatalf("dispatch local time %v, want ~3s", dispatch.Time)
	}
	// Undispatch at true 10s -> local 3s + 10s*(1+1e-4) = 13.001s.
	want := 13*clock.Second + clock.Millisecond
	if d := undispatch.Time - want; d < -clock.Microsecond || d > clock.Microsecond {
		t.Fatalf("undispatch local time %v, want ~%v", undispatch.Time, want)
	}
}

func TestThreadInfoRecordCut(t *testing.T) {
	m, bufs := memMachine(t, baseCfg(1))
	m.SpawnTraced(0, 7, events.ThreadMPI, func(th *sched.Thread) {})
	m.SpawnTraced(0, -1, events.ThreadSystem, func(th *sched.Thread) {})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var infos []trace.Record
	for _, r := range readAll(t, bufs[0]) {
		if r.Type == events.EvThreadInfo {
			infos = append(infos, r)
		}
	}
	if len(infos) != 2 {
		t.Fatalf("thread-info records: %d, want 2", len(infos))
	}
	if int32(uint32(infos[0].Args[2])) != 7 || infos[0].Args[3] != events.ThreadMPI {
		t.Fatalf("first thread info: %+v", infos[0])
	}
	if int32(uint32(infos[1].Args[2])) != -1 || infos[1].Args[3] != events.ThreadSystem {
		t.Fatalf("second thread info: %+v", infos[1])
	}
}

func TestClockSamplingCoversRun(t *testing.T) {
	cfg := baseCfg(2)
	cfg.ClockInterval = clock.Second
	m, bufs := memMachine(t, cfg)
	for n := 0; n < 2; n++ {
		n := n
		m.SpawnTraced(n, int32(n), events.ThreadMPI, func(th *sched.Thread) {
			th.Compute(5500 * clock.Millisecond)
		})
	}
	m.StartClockSampling()
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		var pairs []clock.Pair
		for _, r := range readAll(t, bufs[n]) {
			if r.Type == events.EvGlobalClock {
				pairs = append(pairs, clock.Pair{Global: clock.Time(r.Args[0]), Local: r.Time})
			}
		}
		// Samples at 0,1,2,3,4,5 s (active stops after 5.5s) and one at 6s
		// scheduled while still active — at least 6.
		if len(pairs) < 6 {
			t.Fatalf("node %d: %d clock pairs", n, len(pairs))
		}
		if pairs[0].Global != 0 {
			t.Fatalf("node %d: first pair global %v, want 0", n, pairs[0].Global)
		}
		// The ratio recovered from the pairs must match the configured drift.
		r := clock.RMSRatio(pairs)
		want := 1 / (1 + m.Config().Drifts[n])
		if diff := r - want; diff < -1e-6 || diff > 1e-6 {
			t.Fatalf("node %d: recovered ratio %.9f, want %.9f", n, r, want)
		}
	}
}

func TestClockSamplingStopsAfterWorkload(t *testing.T) {
	cfg := baseCfg(1)
	cfg.ClockInterval = clock.Second
	m, bufs := memMachine(t, cfg)
	m.SpawnTraced(0, 0, events.ThreadMPI, func(th *sched.Thread) {
		th.Compute(1500 * clock.Millisecond)
	})
	m.StartClockSampling()
	end, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The sampler must not keep the simulation alive much past the
	// workload: last tick at 2s (first tick after active hit 0).
	if end > 2*clock.Second {
		t.Fatalf("simulation ran to %v", end)
	}
	n := 0
	for _, r := range readAll(t, bufs[0]) {
		if r.Type == events.EvGlobalClock {
			n++
		}
	}
	if n < 2 || n > 3 {
		t.Fatalf("%d clock records", n)
	}
}

func TestOutlierInjection(t *testing.T) {
	cfg := baseCfg(1)
	cfg.ClockInterval = clock.Second
	cfg.OutlierProb = 1.0 // every sample is an outlier
	cfg.OutlierDelay = 7 * clock.Millisecond
	cfg.Drifts = []float64{0}
	cfg.Offsets = []clock.Time{0}
	m, bufs := memMachine(t, cfg)
	m.SpawnTraced(0, 0, events.ThreadMPI, func(th *sched.Thread) {
		th.Compute(3 * clock.Second)
	})
	m.StartClockSampling()
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range readAll(t, bufs[0]) {
		if r.Type == events.EvGlobalClock {
			if lag := r.Time - clock.Time(r.Args[0]); lag != 7*clock.Millisecond {
				t.Fatalf("outlier lag %v, want 7ms", lag)
			}
		}
	}
}

func TestNewFilesWritesRawTraces(t *testing.T) {
	dir := t.TempDir()
	cfg := baseCfg(2)
	cfg.TraceOpts.Prefix = filepath.Join(dir, "raw")
	m, err := NewFiles(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		n := n
		m.SpawnTraced(n, int32(n), events.ThreadMPI, func(th *sched.Thread) {
			th.Compute(clock.Millisecond)
		})
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		rd, err := trace.OpenFile(cfg.TraceOpts.FileName(n))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := rd.ReadAll()
		rd.Close()
		if err != nil || len(recs) == 0 {
			t.Fatalf("node %d: recs=%d err=%v", n, len(recs), err)
		}
		if rd.Info.Node != n {
			t.Fatalf("node %d file claims node %d", n, rd.Info.Node)
		}
	}
}

func TestWriterCountValidation(t *testing.T) {
	if _, err := New([]io.Writer{&bytes.Buffer{}}, baseCfg(2)); err == nil {
		t.Fatal("mismatched writer count accepted")
	}
}

func TestTimestampsMonotonePerNode(t *testing.T) {
	cfg := baseCfg(1)
	cfg.CPUsPerNode = 2
	cfg.Quantum = clock.Millisecond
	cfg.Drifts = []float64{-8e-5}
	m, bufs := memMachine(t, cfg)
	for i := 0; i < 6; i++ {
		m.SpawnTraced(0, int32(i), events.ThreadMPI, func(th *sched.Thread) {
			for j := 0; j < 5; j++ {
				th.Compute(3 * clock.Millisecond)
				th.Sleep(clock.Millisecond)
			}
		})
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var prev clock.Time
	for i, r := range readAll(t, bufs[0]) {
		if r.Time < prev {
			t.Fatalf("record %d timestamp %v < previous %v", i, r.Time, prev)
		}
		prev = r.Time
	}
}

// failingFile is a raw trace file whose writes fail from the failAt-th
// on (0 = the facility's header write), counting how often it is closed.
type failingFile struct {
	failAt int // -1 = never
	writes int
	closed int
}

func (f *failingFile) Write(p []byte) (int, error) {
	f.writes++
	if f.failAt >= 0 && f.writes > f.failAt {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func (f *failingFile) Close() error { f.closed++; return nil }

// threeFiles stands three failingFiles in for NewFiles' raw trace
// files, node 1's failing from its failAt-th write on.
func threeFiles(t *testing.T, failAt int) []*failingFile {
	t.Helper()
	files := []*failingFile{{failAt: -1}, {failAt: failAt}, {failAt: -1}}
	saved := openCreate
	t.Cleanup(func() { openCreate = saved })
	next := 0
	openCreate = func(string) (io.WriteCloser, error) {
		if next == len(files) {
			return nil, errors.New("too many open files")
		}
		next++
		return files[next-1], nil
	}
	return files
}

func checkClosedOnce(t *testing.T, files []*failingFile) {
	t.Helper()
	for n, f := range files {
		if f.closed != 1 {
			t.Errorf("node %d file closed %d times, want once", n, f.closed)
		}
	}
}

// A flush that fails on node 1 of 3 must not leave node 2's buffer
// unflushed and its file open.
func TestRunClosesEveryFacilityOnError(t *testing.T) {
	files := threeFiles(t, 1) // header succeeds, the flush at Close fails
	m, err := NewFiles(baseCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		m.SpawnTraced(n, int32(n), events.ThreadMPI, func(th *sched.Thread) {
			th.Compute(clock.Millisecond)
		})
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Run error = %v, want node 1's flush failure", err)
	}
	checkClosedOnce(t, files)
	if files[2].writes < 2 {
		t.Fatalf("node 2 wrote %d times: its buffer was never flushed", files[2].writes)
	}

	// A workload that panics takes Sim.Run down with it: the panic must
	// reach Run's caller, and every node's file must be flushed and
	// closed on the way.
	files = threeFiles(t, -1)
	if m, err = NewFiles(baseCfg(3)); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		m.SpawnTraced(n, int32(n), events.ThreadMPI, func(th *sched.Thread) {
			th.Compute(clock.Millisecond)
			if n == 1 {
				panic("workload bug")
			}
		})
	}
	func() {
		defer func() {
			if r := recover(); r != "workload bug" {
				t.Fatalf("Run panicked with %v, want the workload's panic", r)
			}
		}()
		m.Run()
		t.Fatal("Run returned from a panicking workload")
	}()
	checkClosedOnce(t, files)
	for n, f := range files {
		if f.writes < 2 {
			t.Fatalf("node %d wrote %d times: its buffer was never flushed", n, f.writes)
		}
	}
}

// NewFiles opens every file before it builds the facilities; when a
// header write (node 1 of 3) or a later open (a fourth node) fails,
// none of the files already open may leak.
func TestNewFilesClosesFilesOnError(t *testing.T) {
	files := threeFiles(t, 0)
	if _, err := NewFiles(baseCfg(3)); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("NewFiles error = %v, want node 1's header write failure", err)
	}
	checkClosedOnce(t, files)

	files = threeFiles(t, -1)
	if _, err := NewFiles(baseCfg(4)); err == nil || !strings.Contains(err.Error(), "too many open files") {
		t.Fatalf("NewFiles error = %v, want the fourth open's failure", err)
	}
	checkClosedOnce(t, files)
}
