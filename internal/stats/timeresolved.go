package stats

// Time-resolved metric tables: the run (or the selected window) is cut
// into N equal-width time buckets and three fixed tables are computed
// over them — per-state-type busy time, busy-time load balance across
// (node, cpu) lanes, and peak interval concurrency. The reduction is
// interval.SummarizeWindow's; this file only resolves the window and
// formats the summary. All accumulation is integer nanoseconds, making
// results independent of worker count, frame boundaries and engine.

import (
	"fmt"
	"sort"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
)

// TimeResolved computes the three time-resolved tables over bins equal
// time buckets spanning the full run, or the intersection of the run
// with the window when opts.Window is set. Each table carries the
// summary's plan: the engine that answered and what it consulted.
func TimeResolved(files []*interval.File, bins int, opts interval.MapOptions) ([]*Table, error) {
	if bins < 1 || bins > MaxBins {
		return nil, fmt.Errorf("stats: time-resolved tables take 1 to %d bins, got %d", MaxBins, bins)
	}
	t0, t1, err := runBounds(files)
	if err != nil {
		return nil, err
	}
	if opts.Window {
		t0, t1 = max(t0, opts.Lo), min(t1, opts.Hi)
	}
	if t1 < t0 {
		t1 = t0
	}
	ws, err := interval.SummarizeWindow(files, interval.WindowSummaryOptions{
		Bins: bins, Lo: t0, Hi: t1, Parallel: opts.Parallel, Context: opts.Context,
	})
	if err != nil {
		return nil, err
	}
	tabs := []*Table{busyTable(ws), laneTable(ws), concurrencyRows(ws)}
	for _, t := range tabs {
		t.Engine, t.CellsUsed, t.FramesDecoded, t.Lanes = ws.Engine, ws.CellsUsed, ws.FramesDecoded, len(ws.Lanes)
	}
	return tabs, nil
}

// MaxBins is the most time bins a statistics request may ask for:
// per-bin state is allocated up front, so the count a caller names has
// to be bounded by something other than the caller. utestats and the
// trace service's /stats reject larger values outright. What the bins
// cost on a given trace — a row per type and per busy lane, each bins
// wide — is bounded beside it by interval.MaxSummaryCells: a time-
// resolved summary past that fails with interval.ErrSummaryBudget.
const MaxBins = 1 << 16

// busyTable: one row per (bucket, state type) with any busy time, in
// bucket order then type-name order; in a window narrower than its bin
// count, a zero-width bucket inside an interval is a row with busy 0.
// The summary histograms every type;
// the synthetic Running background and clock records are not states.
func busyTable(ws *interval.WindowSummary) *Table {
	t := &Table{Name: "tr_busy_by_type", XLabels: []string{"bin", "t0", "state"}, YLabels: []string{"busy"}}
	for bi := range ws.Bins {
		b := &ws.Bins[bi]
		byName := make(map[string]clock.Time, len(b.BusyByType))
		for typ, v := range b.BusyByType {
			if typ != events.EvRunning && typ != events.EvGlobalClock {
				byName[typ.Name()] += v
			}
		}
		names := make([]string, 0, len(byName))
		for name := range byName {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t.Rows = append(t.Rows, Row{
				X: []Value{num(float64(bi)), num(b.Start.Seconds()), str(name)},
				Y: []float64{byName[name].Seconds()},
			})
		}
	}
	return t
}

// laneTable: one row per bucket with mean and max busy time across all
// (node, cpu) lanes observed anywhere in the window — a lane idle in a
// bucket counts as zero, which is the whole point of load balance —
// and their ratio (0 when the bucket is empty).
func laneTable(ws *interval.WindowSummary) *Table {
	t := &Table{Name: "tr_load_balance", XLabels: []string{"bin", "t0"}, YLabels: []string{"mean_busy", "max_busy", "imbalance"}}
	for bi := range ws.Bins {
		b := &ws.Bins[bi]
		var total, maxBusy clock.Time
		for _, v := range b.BusyByLane {
			total += v
			maxBusy = max(maxBusy, v)
		}
		var mean, imb float64
		if len(ws.Lanes) > 0 {
			mean = total.Seconds() / float64(len(ws.Lanes))
		}
		if mean > 0 {
			imb = maxBusy.Seconds() / mean
		}
		t.Rows = append(t.Rows, Row{
			X: []Value{num(float64(bi)), num(b.Start.Seconds())},
			Y: []float64{mean, maxBusy.Seconds(), imb},
		})
	}
	return t
}

// concurrencyRows: one row per bucket with the peak number of busy
// intervals simultaneously open at any instant inside the bucket.
func concurrencyRows(ws *interval.WindowSummary) *Table {
	t := &Table{Name: "tr_concurrency", XLabels: []string{"bin", "t0"}, YLabels: []string{"peak"}}
	for bi := range ws.Bins {
		t.Rows = append(t.Rows, Row{
			X: []Value{num(float64(bi)), num(ws.Bins[bi].Start.Seconds())},
			Y: []float64{float64(ws.Bins[bi].PeakConc)},
		})
	}
	return t
}
