package core_test

import (
	"testing"

	"tracefw/internal/core"
	"tracefw/internal/mpisim"
	"tracefw/internal/render"
	"tracefw/internal/workload"
)

func baseConfig() core.Config {
	return core.Config{
		Nodes:        2,
		CPUsPerNode:  2,
		TasksPerNode: 1,
		Seed:         17,
	}
}

func TestExecuteInMemory(t *testing.T) {
	run, err := core.Execute(baseConfig(), workload.Ring{Iters: 5}.Main())
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if run.VirtualEnd <= 0 {
		t.Fatalf("virtual end %v", run.VirtualEnd)
	}
	if len(run.RawBytes) != 2 || len(run.Intervals) != 2 {
		t.Fatalf("artifacts: %d raw, %d interval", len(run.RawBytes), len(run.Intervals))
	}
	if run.Merged == nil || run.Slog == nil {
		t.Fatal("missing merged/slog artifacts")
	}
	if run.TotalEvents() == 0 {
		t.Fatal("no events")
	}
	if run.MergeResult.Records == 0 || run.SlogResult.Frames == 0 {
		t.Fatalf("results: %+v %+v", run.MergeResult, run.SlogResult)
	}
}

func TestRunStatsAndViews(t *testing.T) {
	run, err := core.Execute(baseConfig(), workload.Stencil{Steps: 6}.Main())
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	tables, err := run.Stats("")
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) < 5 {
		t.Fatalf("predefined tables: %d", len(tables))
	}
	for _, kind := range []render.ViewKind{
		render.ThreadActivity, render.ProcessorActivity,
		render.ThreadProcessor, render.ProcessorThread,
	} {
		d, err := run.View(kind, render.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Rows) == 0 {
			t.Fatalf("%v view empty", kind)
		}
	}
	arrows, err := run.Arrows()
	if err != nil {
		t.Fatal(err)
	}
	if len(arrows) == 0 {
		t.Fatal("no arrows")
	}
}

func TestExecuteValidatesConfig(t *testing.T) {
	if _, err := core.Execute(core.Config{}, func(*mpisim.Proc) {}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestCustomStatsProgram(t *testing.T) {
	run, err := core.Execute(baseConfig(), workload.Ring{Iters: 4, Bytes: 100}.Main())
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	tables, err := run.Stats(`table name=bytes
		condition=(state == "MPI_Send")
		y=("total", msgSizeSent, sum)`)
	if err != nil {
		t.Fatal(err)
	}
	// 2 tasks × 4 sends × 100 bytes.
	if got := tables[0].Rows[0].Y[0]; got != 800 {
		t.Fatalf("total bytes %v, want 800", got)
	}
}

func TestNetworkAndWrapThreading(t *testing.T) {
	// Slower network -> longer virtual run; wrap mode -> tolerant convert
	// still yields a usable pipeline.
	slow, err := core.Execute(core.Config{
		Nodes: 2, CPUsPerNode: 2, TasksPerNode: 1, Seed: 17,
		Network: mpisim.Network{BWInter: 10e6, LatencyInter: 500 * 1000}, // 10 MB/s, 500µs
	}, workload.Ring{Iters: 5, Bytes: 1 << 20}.Main())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fast, err := core.Execute(baseConfig(), workload.Ring{Iters: 5, Bytes: 1 << 20}.Main())
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	if slow.VirtualEnd <= fast.VirtualEnd {
		t.Fatalf("slow network ran faster: %v vs %v", slow.VirtualEnd, fast.VirtualEnd)
	}

	cfg := baseConfig()
	cfg.Wrap = true
	cfg.BufferSize = 8 << 10
	run, err := core.Execute(cfg, workload.Ring{Iters: 100, Bytes: 256}.Main())
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	var skipped int64
	for _, r := range run.ConvertResults {
		skipped += r.Skipped
	}
	if skipped == 0 {
		t.Fatal("wrap run skipped nothing; window too large or tolerance unused")
	}
	if run.MergeResult.Records == 0 {
		t.Fatal("wrap pipeline produced no merged records")
	}
}
