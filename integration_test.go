package tracefw

// End-to-end integration tests over the file-based pipeline: raw trace
// files on disk → uteconvert-equivalent → utemerge-equivalent → SLOG →
// stats and views, with cross-format consistency checks. These cover the
// seams the per-package unit tests cannot: real files, the profile
// version check, and agreement between independently computed artifacts.

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/cluster"
	"tracefw/internal/convert"
	"tracefw/internal/core"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/mpisim"
	"tracefw/internal/profile"
	"tracefw/internal/render"
	"tracefw/internal/slog"
	"tracefw/internal/stats"
	"tracefw/internal/trace"
	"tracefw/internal/workload"
)

func TestFileBasedPipeline(t *testing.T) {
	dir := t.TempDir()

	// Stage 1: tracegen.
	cfg := mpisim.Config{
		Cluster: cluster.Config{
			Nodes:       2,
			CPUsPerNode: 2,
			Seed:        101,
			TraceOpts: trace.Options{
				Prefix:  filepath.Join(dir, "raw"),
				Enabled: events.MaskAll,
			},
		},
		TasksPerNode: 2,
	}
	w, err := mpisim.NewFiles(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Start(workload.Flash{Iters: 8, RefineEach: 4}.Main())
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}

	// Stage 2: uteconvert (+ profile file).
	rawPaths := []string{cfg.Cluster.TraceOpts.FileName(0), cfg.Cluster.TraceOpts.FileName(1)}
	outPaths := []string{filepath.Join(dir, "trace.0.ute"), filepath.Join(dir, "trace.1.ute")}
	if _, err := convert.ConvertAll(rawPaths, outPaths, convert.Options{}); err != nil {
		t.Fatal(err)
	}
	profPath := filepath.Join(dir, "profile.ute")
	if err := profile.Standard().WriteFile(profPath); err != nil {
		t.Fatal(err)
	}

	// Profile version check (paper §2.3): the file's stored version must
	// match the profile file's.
	f0, err := interval.Open(outPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f0.Close()
	prof, err := profile.ReadFile(profPath, f0.Header.FieldMask)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Version != f0.Header.ProfileVersion {
		t.Fatalf("profile version mismatch: %#x vs %#x", prof.Version, f0.Header.ProfileVersion)
	}

	// Stage 3: utemerge -slog.
	mergedPath := filepath.Join(dir, "merged.ute")
	mres, err := merge.MergeFiles(outPaths, mergedPath, merge.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mres.Records == 0 {
		t.Fatal("empty merge")
	}
	slogPath := filepath.Join(dir, "trace.slog")
	mf, err := interval.Open(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	sfp, err := os.Create(slogPath)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := slog.Build(mf, sfp, slog.Options{FrameBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := sfp.Close(); err != nil {
		t.Fatal(err)
	}

	// Cross-check 1: every record scanned from the merged file is
	// accounted for in the SLOG frames.
	sf, err := slog.Open(slogPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	var slogRecords int64
	for i := range sf.Index {
		fd, err := sf.ReadFrame(i)
		if err != nil {
			t.Fatal(err)
		}
		slogRecords += int64(len(fd.Intervals))
	}
	if slogRecords != bres.Records || slogRecords != mres.Records {
		t.Fatalf("record accounting: slog=%d build=%d merge=%d", slogRecords, bres.Records, mres.Records)
	}

	// Cross-check 2: the generic profile-driven reader agrees with the
	// typed decoder on every record of the merged file.
	sel := profile.Standard().Select(mf.Header.FieldMask)
	sc := mf.Scan()
	for {
		payload, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rec, err := interval.DecodePayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		spec := sel.Lookup(rec.Type, rec.Bebits)
		if spec == nil {
			t.Fatalf("no spec for %s/%s", rec.Type.Name(), rec.Bebits)
		}
		if sz, err := spec.Size(payload); err != nil || sz != len(payload) {
			t.Fatalf("spec size %d (%v) vs payload %d for %s", sz, err, len(payload), rec.Type.Name())
		}
	}

	// Cross-check 3: stats sum of msgSizeSent equals the per-record sum,
	// and the I/O extension's records made it through.
	tables, err := stats.Generate(`
		table name=bytes condition=(msgSizeSent > 0) y=("total", msgSizeSent, sum)
		table name=io condition=(state == "IO_Write") y=("bytes", ioBytes, sum) y=("calls", iscall, sum)
		table name=pm condition=(state == "PageMiss") y=("misses", 1, count)
	`, []*interval.File{mf})
	if err != nil {
		t.Fatal(err)
	}
	var wantBytes float64
	recs, err := mf.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if v, ok := r.Field(events.FieldMsgSizeSent); ok {
			wantBytes += float64(v)
		}
	}
	if got := tables[0].Rows[0].Y[0]; got != wantBytes {
		t.Fatalf("stats bytes %v, scan %v", got, wantBytes)
	}
	if len(tables[1].Rows) == 0 || tables[1].Rows[0].Y[1] != 1 {
		t.Fatalf("checkpoint write not visible: %+v", tables[1].Rows)
	}
	if len(tables[2].Rows) == 0 || tables[2].Rows[0].Y[0] == 0 {
		t.Fatalf("page misses not visible: %+v", tables[2].Rows)
	}

	// Cross-check 4: views build from the same file, and the preview's
	// totals match a per-state duration sum (within per-record rounding).
	for _, kind := range []render.ViewKind{render.ThreadActivity, render.ProcessorActivity} {
		d, err := render.BuildDiagram(mf, kind, render.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Rows) == 0 {
			t.Fatalf("%v view empty", kind)
		}
	}
	perState := map[events.Type]clock.Time{}
	for _, r := range recs {
		perState[r.Type] += r.Dura
	}
	for si, ty := range sf.Preview.States {
		var got clock.Time
		for _, dur := range sf.Preview.Dur[si] {
			got += dur
		}
		if want := perState[ty]; got != want {
			t.Fatalf("preview total for %s: %d ns vs %d ns", ty.Name(), got, want)
		}
	}
}

func TestDelayedTracingReducesData(t *testing.T) {
	// Paper §2.1: "The user can also delay trace generation until a later
	// point to trace only a portion of the code."
	run := func(delay bool) int64 {
		dir := t.TempDir()
		cfg := core.Config{
			Nodes: 2, CPUsPerNode: 2, TasksPerNode: 1, Seed: 7,
			DelayStart: delay,
		}
		w := workload.Ring{Iters: 20, Bytes: 512}
		if !delay {
			r, err := core.Execute(cfg, w.Main())
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			return r.TotalEvents()
		}
		// With DelayStart the facilities stay off; nothing but an empty
		// trace should come out (Start is never called in this scenario).
		mcfg := mpisim.Config{
			Cluster: cluster.Config{
				Nodes: 2, CPUsPerNode: 2, Seed: 7,
				TraceOpts: trace.Options{
					Prefix:     filepath.Join(dir, "raw"),
					Enabled:    events.MaskAll,
					DelayStart: true,
				},
			},
			TasksPerNode: 1,
		}
		world, err := mpisim.NewFiles(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		world.Start(w.Main())
		if _, err := world.Run(); err != nil {
			t.Fatal(err)
		}
		var n int64
		for i := 0; i < 2; i++ {
			rd, err := trace.OpenFile(mcfg.Cluster.TraceOpts.FileName(i))
			if err != nil {
				t.Fatal(err)
			}
			recs, err := rd.ReadAll()
			rd.Close()
			if err != nil {
				t.Fatal(err)
			}
			n += int64(len(recs))
		}
		return n
	}
	full := run(false)
	delayed := run(true)
	if delayed != 0 {
		t.Fatalf("delayed tracing still produced %d records", delayed)
	}
	if full == 0 {
		t.Fatal("full tracing produced nothing")
	}
}

func TestEnableMaskReducesData(t *testing.T) {
	// Trace only MPI events: no dispatch records appear, and conversion
	// still succeeds (MPI intervals become unsplit Complete records since
	// no dispatch events interrupt them).
	dir := t.TempDir()
	mcfg := mpisim.Config{
		Cluster: cluster.Config{
			Nodes: 2, CPUsPerNode: 1, Seed: 3,
			TraceOpts: trace.Options{
				Prefix:  filepath.Join(dir, "raw"),
				Enabled: events.MaskMPI,
			},
		},
		TasksPerNode: 1,
	}
	world, err := mpisim.NewFiles(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	world.Start(workload.Ring{Iters: 5, Bytes: 128}.Main())
	if _, err := world.Run(); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.OpenFile(mcfg.Cluster.TraceOpts.FileName(0))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := rd.ReadAll()
	rd.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Type == events.EvDispatch || r.Type == events.EvUndispatch {
			t.Fatalf("dispatch record leaked through MaskMPI: %+v", r)
		}
	}
}

func TestEmptyWorkloadPipeline(t *testing.T) {
	// A workload that does nothing still produces a structurally valid
	// pipeline: thread tables, clock records consumed, empty-ish merged
	// file, a preview with only Running time, and working views.
	run, err := core.Execute(core.Config{
		Nodes: 2, CPUsPerNode: 1, TasksPerNode: 1, Seed: 5,
	}, func(p *mpisim.Proc) {})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if _, err := run.Merged.Validate(profile.Standard()); err != nil {
		t.Fatal(err)
	}
	if len(run.Slog.Index) == 0 {
		t.Fatal("no slog frames for the empty run")
	}
	if _, err := run.View(render.ThreadActivity, render.Options{}); err != nil {
		t.Fatal(err)
	}
	tables, err := run.Stats("")
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
}

// TestPredefinedGroupPathsSPPM pins how the predefined tables fold on
// the paper's sPPM 4×8 machine. The three whose condition and x columns
// read only the key, and whose y columns are all integer sources, fold
// once per dictionary entry; the Figure 6 table, keyed by bin(start, 50),
// by direct index; bytes_by_pair, keyed by the peer extra, by hash.
func TestPredefinedGroupPathsSPPM(t *testing.T) {
	mf := predefinedSPPMFile(t)
	run, err := stats.GenerateRun(stats.Predefined(50), []*interval.File{mf}, interval.MapOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"interesting_by_node_bin": "dense",
		"duration_by_state":       "entry",
		"bytes_by_pair":           "hash",
		"busy_by_cpu":             "entry",
		"thread_state_time":       "entry",
	}
	for _, tb := range run.Tables {
		if tb.Group != want[tb.Name] || len(tb.Rows) == 0 {
			t.Errorf("table %s: group %q over %d rows, want %q", tb.Name, tb.Group, len(tb.Rows), want[tb.Name])
		}
	}
	if len(run.Tables) != len(want) {
		t.Fatalf("%d tables, want %d", len(run.Tables), len(want))
	}
}

// predefinedSPPMFile is the paper's sPPM 4×8 machine at 40 iterations,
// merged in memory.
func predefinedSPPMFile(t *testing.T) *interval.File {
	t.Helper()
	main, err := workload.Build("sppm", workload.Params{"iters": 40})
	if err != nil {
		t.Fatal(err)
	}
	sb := interval.NewSeekBuffer()
	if _, err := merge.Merge(convertedFiles(t, simRaws(t, 4, 8, 1, 12, main)), sb, merge.Options{}); err != nil {
		t.Fatal(err)
	}
	mf, err := interval.NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	return mf
}

// TestPredefinedEvaluatedSPPM pins how many rows the predefined row
// tables' row kernels visit on TestPredefinedGroupPathsSPPM's trace: the
// rows whose dictionary entries pass their conditions' key-only leading
// conjuncts, counted here from the records' states. bytes_by_pair's
// msgSizeSent > 0 runs over its send-type rows alone, and the Figure 6
// table visits the rows neither Running nor GlobalClock. The tables
// folded per dictionary entry visit none.
func TestPredefinedEvaluatedSPPM(t *testing.T) {
	mf := predefinedSPPMFile(t)
	recs, err := mf.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for _, r := range recs {
		switch r.Type.Name() {
		case "MPI_Send", "MPI_Isend", "MPI_Sendrecv":
			want["bytes_by_pair"]++
		}
		if n := r.Type.Name(); n != "Running" && n != "GlobalClock" {
			want["interesting_by_node_bin"]++
		}
	}
	if want["bytes_by_pair"] == 0 || want["bytes_by_pair"] >= want["interesting_by_node_bin"] {
		t.Fatalf("%d send-type rows of %d interesting: the trace does not tell the tables apart", want["bytes_by_pair"], want["interesting_by_node_bin"])
	}
	for _, par := range []int{1, 4} {
		run, err := stats.GenerateRun(stats.Predefined(50), []*interval.File{mf}, interval.MapOptions{Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range run.Tables {
			if tb.Evaluated != want[tb.Name] {
				t.Errorf("-j %d: table %s evaluated %d rows, want %d", par, tb.Name, tb.Evaluated, want[tb.Name])
			}
		}
	}
}
