package main

import (
	"fmt"
	"strings"
	"time"

	"tracefw/internal/clock"
	"tracefw/internal/core"
	"tracefw/internal/interval"
	"tracefw/internal/render"
	"tracefw/internal/sched"
	"tracefw/internal/slog"
	"tracefw/internal/stats"
	"tracefw/internal/workload"
)

// flashRun executes the FLASH-like workload used by Figures 6 and 7.
func flashRun(iters int) (*core.Run, error) {
	main, err := workload.Build("flash", workload.Params{"iters": int64(iters), "refine_each": 5})
	if err != nil {
		return nil, err
	}
	return core.Execute(core.Config{
		Nodes:        4,
		CPUsPerNode:  4,
		TasksPerNode: 1,
		Seed:         11,
		Drifts:       []float64{1e-5, -2e-5, 3e-5, -4e-5},
		// Small frames give the viewer fine-grained random access.
		Convert: interval.WriterOptions{FrameBytes: 16 << 10},
		Slog:    slog.Options{FrameBytes: 16 << 10},
	}, main)
}

// sppmRun executes the paper's Figure 8/9 configuration: 4 nodes, each
// an 8-way SMP, one MPI task per node with four threads of which one
// makes MPI calls and one is idle.
func sppmRun() (*core.Run, error) {
	main, err := workload.Build("sppm", workload.Params{"iters": 10, "threads": 4})
	if err != nil {
		return nil, err
	}
	return core.Execute(core.Config{
		Nodes:        4,
		CPUsPerNode:  8,
		TasksPerNode: 1,
		Seed:         12,
		// The era's AIX dispatcher had weak affinity — the reason the
		// paper's Figure 9 shows MPI threads jumping between CPUs.
		Affinity: sched.AffinityLowestFree,
	}, main)
}

func runFig6(e *env) error {
	run, err := flashRun(25)
	if err != nil {
		return err
	}
	defer run.Close()
	tables, err := run.Stats(stats.Predefined(interval.DefaultBins))
	if err != nil {
		return err
	}
	fig6 := tables[0] // interesting_by_node_bin
	if err := e.write("fig6.tsv", fig6.TSV()); err != nil {
		return err
	}
	if err := e.write("fig6.svg", render.StatsHeatmapSVG(fig6)); err != nil {
		return err
	}
	// Summarize the per-bin interesting time to show the phase structure
	// the paper reads off this table.
	perBin := map[int]float64{}
	for _, r := range fig6.Rows {
		perBin[int(r.X[1].F)] += r.Y[0]
	}
	peakBin, peak := 0, 0.0
	for b, v := range perBin {
		if v > peak {
			peak, peakBin = v, b
		}
	}
	e.logf("  %d rows; busiest bin %d with %.3fs of interesting (non-Running) time", len(fig6.Rows), peakBin, peak)
	return nil
}

func runFig7(e *env) error {
	run, err := flashRun(25)
	if err != nil {
		return err
	}
	defer run.Close()
	sf := run.Slog
	if err := e.write("fig7_preview.svg", render.PreviewSVG(sf.Preview)); err != nil {
		return err
	}
	if err := e.write("fig7_preview.txt", render.PreviewASCII(sf.Preview, 70)); err != nil {
		return err
	}
	// The user "selects a time instant in the middle section": fetch the
	// frame containing it, timing the access.
	mid := (sf.TStart + sf.TEnd) / 2
	start := time.Now()
	fi, ok := sf.FrameAt(mid)
	if !ok {
		return fmt.Errorf("no frame for midpoint")
	}
	fd, err := sf.ReadFrame(fi)
	if err != nil {
		return err
	}
	fetch := time.Since(start)
	e.logf("  run [%v .. %v], %d frames; frame %d contains the midpoint", sf.TStart, sf.TEnd, len(sf.Index), fi)
	e.logf("  frame fetch: %v for %d intervals, %d pseudo, %d arrows, %d crossing",
		fetch, len(fd.Intervals), len(fd.Pseudo), len(fd.Arrows), len(fd.Crossing))

	// Render the fetched frame's window as a thread-activity view — the
	// larger window of Figure 7.
	fe := sf.Index[fi]
	d, err := run.View(render.ThreadActivity, render.Options{T0: fe.Start, T1: fe.End})
	if err != nil {
		return err
	}
	return e.write("fig7_frame.svg", d.SVG())
}

func runFig8(e *env) error {
	run, err := sppmRun()
	if err != nil {
		return err
	}
	defer run.Close()
	arrows, err := run.Arrows()
	if err != nil {
		return err
	}
	d, err := run.View(render.ThreadActivity, render.Options{Arrows: arrows})
	if err != nil {
		return err
	}
	if err := e.write("fig8.svg", d.SVG()); err != nil {
		return err
	}
	if err := e.write("fig8.txt", d.ASCII(110)); err != nil {
		return err
	}
	idle, mpi := threadActivity(d)
	e.logf("  %d thread timelines; %d idle threads (paper: one idle thread per task)", len(d.Rows), idle)
	mpiRows := 0
	for _, n := range mpi {
		mpiRows += n
	}
	e.logf("  threads with MPI activity: %d (paper: one per task = 4)", mpiRows)
	return nil
}

// threadActivity reads the paper's Figure 8 observations off a
// thread-activity view: how many threads are idle (busy under 5 % of the
// view), and per node (one task each) how many threads show MPI
// activity.
func threadActivity(d *render.Diagram) (idle int, mpi map[string]int) {
	for _, f := range d.BusyFraction() {
		if f < 0.05 {
			idle++
		}
	}
	mpi = map[string]int{}
	for _, row := range d.Rows {
		for _, s := range row.Segs {
			if strings.HasPrefix(s.Key, "MPI_") {
				node, _, _ := strings.Cut(row.Label, "/")
				mpi[node]++
				break
			}
		}
	}
	return idle, mpi
}

// migrated counts the threads of a thread-processor view that visited
// more than one CPU (the paper's Figure 9: MPI threads jump between
// CPUs).
func migrated(tp *render.Diagram) int {
	moved := 0
	for _, n := range tp.DistinctKeysPerRow() {
		if n > 1 {
			moved++
		}
	}
	return moved
}

func runFig9(e *env) error {
	run, err := sppmRun()
	if err != nil {
		return err
	}
	defer run.Close()
	d, err := run.View(render.ProcessorActivity, render.Options{})
	if err != nil {
		return err
	}
	if err := e.write("fig9.svg", d.SVG()); err != nil {
		return err
	}
	if err := e.write("fig9.txt", d.ASCII(110)); err != nil {
		return err
	}
	busy := d.BusyFraction()
	var total float64
	for _, f := range busy {
		total += f
	}
	const machineCPUs = 4 * 8 // the run's 4 nodes × 8-way SMPs
	e.logf("  %d CPU timelines with activity (of %d CPUs); machine utilization %.2f (paper: \"the CPUs are mostly idle\")",
		len(d.Rows), machineCPUs, total/machineCPUs)

	// Migration: how many CPUs did each MPI thread visit?
	tp, err := run.View(render.ThreadProcessor, render.Options{})
	if err != nil {
		return err
	}
	e.logf("  threads that visited more than one CPU: %d (paper: MPI threads jump between CPUs)", migrated(tp))
	return nil
}

func runSeekScale(e *env) error {
	// Frame fetch time must stay flat while file size grows (§4:
	// "Scalability in the time it takes to display this frame
	// (independence from the size of the SLOG file)").
	sizes := []int{5, 20, 80}
	if !e.quick {
		sizes = append(sizes, 320)
	}
	var b strings.Builder
	b.WriteString("flash_iters\tslog_frames\tfetch_us\tfetch_bytes\n")
	for _, iters := range sizes {
		run, err := flashRun(iters)
		if err != nil {
			return err
		}
		sf := run.Slog
		mid := (sf.TStart + sf.TEnd) / 2
		// Average several fetches for a stable number. The bytes a
		// fetch reads are its frame's, whatever the file's size.
		const reps = 50
		var bytes int64
		start := time.Now()
		for i := 0; i < reps; i++ {
			fi, ok := sf.FrameAt(mid + clock.Time(i)*clock.Microsecond)
			if !ok {
				run.Close()
				return fmt.Errorf("no frame at midpoint")
			}
			if _, err := sf.ReadFrame(fi); err != nil {
				run.Close()
				return err
			}
			bytes += int64(sf.Index[fi].Bytes)
		}
		perFetch := time.Since(start).Seconds() / reps * 1e6
		fmt.Fprintf(&b, "%d\t%d\t%.1f\t%d\n", iters, len(sf.Index), perFetch, bytes/reps)
		e.logf("  %4d iterations -> %4d frames: %.1f µs, %d bytes per frame fetch", iters, len(sf.Index), perFetch, bytes/reps)
		run.Close()
	}
	return e.write("seekscale.tsv", b.String())
}
