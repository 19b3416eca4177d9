package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"tracefw/internal/cluster"
	"tracefw/internal/convert"
	"tracefw/internal/events"
	"tracefw/internal/merge"
	"tracefw/internal/mpisim"
	"tracefw/internal/slog"
	"tracefw/internal/trace"
	"tracefw/internal/workload"
)

// table1Targets are the paper's raw event counts (Table 1).
var table1Targets = []int64{40282, 128378, 254225, 641354, 4613568, 11216936}

// runStormFiles executes the storm workload in the paper's Table 1
// configuration — 4 MPI tasks, each with 4 threads (2 SMP nodes × 2
// tasks here) — writing raw trace files to dir, as the real tracing
// facility does.
func runStormFiles(dir string, iters int) ([]string, error) {
	main, err := workload.Build("storm", workload.Params{"iters": int64(iters), "threads": 3})
	if err != nil {
		return nil, err
	}
	cfg := mpisim.Config{
		Cluster: cluster.Config{
			Nodes:       2,
			CPUsPerNode: 4,
			Seed:        99,
			TraceOpts: trace.Options{
				Prefix:  filepath.Join(dir, "raw"),
				Enabled: events.MaskAll,
			},
		},
		TasksPerNode: 2,
	}
	w, err := mpisim.NewFiles(cfg)
	if err != nil {
		return nil, err
	}
	w.Start(main)
	if _, err := w.Run(); err != nil {
		return nil, err
	}
	return []string{cfg.Cluster.TraceOpts.FileName(0), cfg.Cluster.TraceOpts.FileName(1)}, nil
}

func countEventsFiles(paths []string) (int64, error) {
	var n int64
	for _, p := range paths {
		rd, err := trace.OpenFile(p)
		if err != nil {
			return 0, err
		}
		// Counting needs no payload: step over the records by their
		// headers instead of materializing millions of them.
		var rec trace.Record
		for err = rd.NextHeader(&rec); err == nil; err = rd.NextHeader(&rec) {
			n++
		}
		rd.Close()
		if err != io.EOF {
			return 0, err
		}
	}
	return n, nil
}

func runTable1(e *env) error {
	targets := table1Targets
	if e.quick {
		targets = targets[:4]
	}
	work, err := os.MkdirTemp("", "table1-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	// Calibrate events-per-iteration with a small run.
	calPaths, err := runStormFiles(work, 200)
	if err != nil {
		return err
	}
	calEvents, err := countEventsFiles(calPaths)
	if err != nil {
		return err
	}
	perIter := float64(calEvents) / 200
	e.logf("  calibration: %.1f raw events per storm iteration", perIter)
	// Warm up the code paths (first-call effects would otherwise inflate
	// the smallest size's per-event cost).
	calOut := []string{filepath.Join(work, "warm.0.ute"), filepath.Join(work, "warm.1.ute")}
	if _, err := convert.ConvertAll(calPaths, calOut, convert.Options{}); err != nil {
		return err
	}
	if _, err := slog.MergeFiles(calOut, filepath.Join(work, "warm.ute"), filepath.Join(work, "warm.slog"), nil,
		merge.Options{}, slog.Options{}); err != nil {
		return err
	}

	var b strings.Builder
	b.WriteString("raw_events\tsec_per_event_convert\tsec_per_event_slogmerge\n")
	type row struct {
		events                int64
		convPerEv, mergePerEv float64
	}
	var rows []row
	for _, target := range targets {
		iters := int(float64(target) / perIter)
		if iters < 1 {
			iters = 1
		}
		dir := filepath.Join(work, fmt.Sprintf("n%d", target))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		rawPaths, err := runStormFiles(dir, iters)
		if err != nil {
			return err
		}
		outPaths := []string{filepath.Join(dir, "trace.0.ute"), filepath.Join(dir, "trace.1.ute")}

		// The utilities run file-to-file, like the paper's (which ran as
		// separate processes); drop the generator's heap first.
		runtime.GC()
		start := time.Now()
		results, err := convert.ConvertAll(rawPaths, outPaths, convert.Options{})
		if err != nil {
			return err
		}
		convElapsed := time.Since(start)
		var rawEvents int64
		for _, r := range results {
			rawEvents += r.Events
		}

		// slogmerge = merge + SLOG format conversion, fully file-to-file.
		runtime.GC()
		start = time.Now()
		if _, err := slog.MergeFiles(outPaths, filepath.Join(dir, "merged.ute"), filepath.Join(dir, "trace.slog"), nil,
			merge.Options{}, slog.Options{}); err != nil {
			return err
		}
		mergeElapsed := time.Since(start)

		cpe := convElapsed.Seconds() / float64(rawEvents)
		mpe := mergeElapsed.Seconds() / float64(rawEvents)
		rows = append(rows, row{events: rawEvents, convPerEv: cpe, mergePerEv: mpe})
		fmt.Fprintf(&b, "%d\t%.9f\t%.9f\n", rawEvents, cpe, mpe)
		e.logf("  %9d raw events: convert %.7f s/event, slogmerge %.7f s/event",
			rawEvents, cpe, mpe)
		// Free the big artifacts before the next size.
		os.RemoveAll(dir)
	}
	// The paper's claim: per-event cost stays roughly flat as the event
	// count grows. Report the spread.
	spread := func(get func(row) float64) float64 {
		lo, hi := get(rows[0]), get(rows[0])
		for _, r := range rows[1:] {
			v := get(r)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return hi / lo
	}
	e.logf("  per-event cost spread across sizes: convert ×%.2f, slogmerge ×%.2f (paper: ~flat)",
		spread(func(r row) float64 { return r.convPerEv }),
		spread(func(r row) float64 { return r.mergePerEv }))
	return e.write("table1.tsv", b.String())
}
