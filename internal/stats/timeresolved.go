package stats

// Time-resolved metric tables: the run (or the selected window) is cut
// into N equal-width time buckets and three fixed tables are computed
// over them — per-state-type busy time, busy-time load balance across
// (node, cpu) lanes, and peak interval concurrency. They are fed
// straight from columnar batches: bucket overlap needs only the start,
// duration, type, node, and cpu columns, so no records are ever
// materialized. All accumulation is integer nanoseconds, making results
// independent of worker count and frame boundaries.

import (
	"fmt"
	"sort"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
)

// TimeResolved computes the three time-resolved tables over bins equal
// time buckets spanning the full run, or the intersection of the run
// with the window when opts.Window is set. Frames outside the window
// are pruned from the directory aggregates and never decoded.
func TimeResolved(files []*interval.File, bins int, opts Options) ([]*Table, error) {
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
	br := bucketRuler{lo: t0, span: int64(t1 - t0), bins: bins}

	// Summary-pyramid fast path: a single file with a usable pyramid
	// answers every cell from O(bins) summary cells instead of decoding
	// frames. Peak concurrency across several files is a property of the
	// merged event set, so the fast path is single-file only.
	if len(files) == 1 && opts.Summary != interval.SummaryScan {
		tabs, err := timeResolvedPyramid(files[0], bins, br, opts)
		if err == nil {
			return tabs, nil
		}
		if opts.Summary == interval.SummaryPyramid {
			return nil, err
		}
	} else if opts.Summary == interval.SummaryPyramid {
		return nil, fmt.Errorf("stats: the pyramid engine answers a single file, got %d", len(files))
	}

	agg := &trAgg{bins: bins, busy: map[trBusyKey]clock.Time{}, lane: map[trLaneKey]clock.Time{}}
	mopts := interval.MapOptions{Parallel: opts.Parallel, Window: opts.Window, Lo: opts.Lo, Hi: opts.Hi, Context: opts.Context}
	err = interval.MapFrames(files, mopts,
		func(_ int, _ interval.FrameEntry, b *interval.Batch) (*trAgg, error) {
			p := &trAgg{bins: bins, busy: map[trBusyKey]clock.Time{}, lane: map[trLaneKey]clock.Time{}}
			for i := 0; i < b.N; i++ {
				typ := b.Type[i]
				if typ == events.EvRunning || typ == events.EvGlobalClock {
					continue
				}
				s, e := b.Start[i], b.Start[i]+b.Dura[i]
				s, e = max(s, t0), min(e, t1)
				if s >= e {
					continue
				}
				p.events = append(p.events, trEvent{t: s, d: 1}, trEvent{t: e, d: -1})
				lane := trLane{node: b.Node[i], cpu: b.CPU[i]}
				for bi := br.bucketOf(s); bi < bins && br.bound(bi) < e; bi++ {
					ov := min(e, br.bound(bi+1)) - max(s, br.bound(bi))
					p.busy[trBusyKey{typ, bi}] += ov
					p.lane[trLaneKey{lane, bi}] += ov
				}
			}
			return p, nil
		},
		func(_ int, _ interval.FrameEntry, p *trAgg) error {
			for k, v := range p.busy {
				agg.busy[k] += v
			}
			for k, v := range p.lane {
				agg.lane[k] += v
			}
			agg.events = append(agg.events, p.events...)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return agg.tables(br, "scan"), nil
}

// timeResolvedPyramid builds the three tables from one SummarizeWindow
// call on the file's attached pyramid. The summary's per-bin busy maps
// and peaks carry exactly the integer quantities the frame-decode path
// accumulates (the interval package's differential suite proves the two
// engines byte-identical), so the emitted tables are byte-identical
// too — only the Engine marker differs.
func timeResolvedPyramid(f *interval.File, bins int, br bucketRuler, opts Options) ([]*Table, error) {
	ws, err := f.SummarizeWindow(interval.WindowSummaryOptions{
		Bins:    bins,
		Lo:      br.lo,
		Hi:      br.lo + clock.Time(br.span),
		Engine:  interval.SummaryPyramid,
		Context: opts.Context,
	})
	if err != nil {
		return nil, err
	}
	agg := &trAgg{bins: bins, busy: map[trBusyKey]clock.Time{}, lane: map[trLaneKey]clock.Time{}}
	peaks := make([]int, bins)
	for bi := range ws.Bins {
		b := &ws.Bins[bi]
		peaks[bi] = b.PeakConc
		for typ, v := range b.BusyByType {
			// The pyramid histograms every type; this path applies the
			// same exclusions as the frame-decode loop above.
			if typ == events.EvRunning || typ == events.EvGlobalClock {
				continue
			}
			agg.busy[trBusyKey{typ, bi}] += v
		}
		for lane, v := range b.BusyByLane {
			agg.lane[trLaneKey{trLane{node: lane.Node, cpu: lane.CPU}, bi}] += v
		}
	}
	tabs := []*Table{agg.busyTable(br), agg.laneTable(br), concurrencyRows(br, peaks)}
	for _, t := range tabs {
		t.Engine = "pyramid"
	}
	return tabs, nil
}

// MaxBins is the most time bins a statistics request may ask for:
// per-bin state is allocated up front, so the count a caller names has
// to be bounded by something other than the caller. utestats and the
// trace service's /stats reject larger values outright.
const MaxBins = 1 << 16

// bucketRuler maps times to buckets with exact integer boundaries:
// bound(i) = lo + (span/bins)*i + (span%bins)*i/bins, so bound(0) = lo,
// bound(bins) = hi, and consecutive widths differ by at most one
// nanosecond. Buckets are half-open [bound(i), bound(i+1)).
type bucketRuler struct {
	lo   clock.Time
	span int64
	bins int
}

func (br bucketRuler) bound(i int) clock.Time {
	return br.lo + clock.Time((br.span/int64(br.bins))*int64(i)+(br.span%int64(br.bins))*int64(i)/int64(br.bins))
}

func (br bucketRuler) bucketOf(t clock.Time) int {
	if br.span <= 0 {
		return 0
	}
	i := interval.ScaleBin(int64(t-br.lo), br.span, br.bins)
	for i > 0 && t < br.bound(i) {
		i--
	}
	for i < br.bins-1 && t >= br.bound(i+1) {
		i++
	}
	return i
}

type trLane struct{ node, cpu uint16 }
type trBusyKey struct {
	typ events.Type
	bin int
}
type trLaneKey struct {
	lane trLane
	bin  int
}

// trEvent is one endpoint of a busy interval for the concurrency sweep.
type trEvent struct {
	t clock.Time
	d int
}

type trAgg struct {
	bins   int
	busy   map[trBusyKey]clock.Time
	lane   map[trLaneKey]clock.Time
	events []trEvent
}

func (a *trAgg) tables(br bucketRuler, engine string) []*Table {
	tabs := []*Table{a.busyTable(br), a.laneTable(br), a.concurrencyTable(br)}
	for _, t := range tabs {
		t.Engine = engine
	}
	return tabs
}

// busyTable: one row per (bucket, state type) with any busy time, in
// bucket order then type-name order.
func (a *trAgg) busyTable(br bucketRuler) *Table {
	t := &Table{Name: "tr_busy_by_type", XLabels: []string{"bin", "t0", "state"}, YLabels: []string{"busy"}, Columnar: true}
	type rowKey struct {
		bin  int
		name string
	}
	rows := make(map[rowKey]clock.Time, len(a.busy))
	for k, v := range a.busy {
		rows[rowKey{k.bin, k.typ.Name()}] += v
	}
	keys := make([]rowKey, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].bin != keys[j].bin {
			return keys[i].bin < keys[j].bin
		}
		return keys[i].name < keys[j].name
	})
	for _, k := range keys {
		t.Rows = append(t.Rows, Row{
			X: []Value{num(float64(k.bin)), num(br.bound(k.bin).Seconds()), str(k.name)},
			Y: []float64{rows[k].Seconds()},
		})
	}
	return t
}

// laneTable: one row per bucket with mean and max busy time across all
// (node, cpu) lanes observed anywhere in the run — a lane idle in a
// bucket counts as zero, which is the whole point of load balance —
// and their ratio (0 when the bucket is empty).
func (a *trAgg) laneTable(br bucketRuler) *Table {
	t := &Table{Name: "tr_load_balance", XLabels: []string{"bin", "t0"}, YLabels: []string{"mean_busy", "max_busy", "imbalance"}, Columnar: true}
	laneSet := map[trLane]bool{}
	for k := range a.lane {
		laneSet[k.lane] = true
	}
	nLanes := len(laneSet)
	for bi := 0; bi < a.bins; bi++ {
		var total, maxBusy clock.Time
		for lane := range laneSet {
			v := a.lane[trLaneKey{lane, bi}]
			total += v
			maxBusy = max(maxBusy, v)
		}
		var mean, imb float64
		if nLanes > 0 {
			mean = total.Seconds() / float64(nLanes)
		}
		if mean > 0 {
			imb = maxBusy.Seconds() / mean
		}
		t.Rows = append(t.Rows, Row{
			X: []Value{num(float64(bi)), num(br.bound(bi).Seconds())},
			Y: []float64{mean, maxBusy.Seconds(), imb},
		})
	}
	return t
}

// concurrencyTable: one row per bucket with the peak number of busy
// intervals simultaneously open at any instant inside the bucket. The
// sweep sorts the merged endpoint list (ends before starts at equal
// times: intervals are half-open), so the result does not depend on
// frame boundaries or worker count.
func (a *trAgg) concurrencyTable(br bucketRuler) *Table {
	evs := a.events
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].d < evs[j].d
	})
	peaks := make([]int, a.bins)
	cur, ei := 0, 0
	for bi := 0; bi < a.bins; bi++ {
		hi := br.bound(bi + 1)
		if bi == a.bins-1 {
			hi = br.bound(a.bins) + 1 // the last bucket is closed on the right
		}
		// The entry concurrency holds on [bound(bi), first event) — but
		// only when that span is non-empty; events exactly at the bucket
		// boundary redefine the value at the boundary instant itself.
		p := -1
		if ei >= len(evs) || evs[ei].t > br.bound(bi) {
			p = cur
		}
		for ei < len(evs) && evs[ei].t < hi {
			at := evs[ei].t
			for ei < len(evs) && evs[ei].t == at {
				cur += evs[ei].d
				ei++
			}
			p = max(p, cur)
		}
		peaks[bi] = max(p, 0)
	}
	return concurrencyRows(br, peaks)
}

// concurrencyRows emits the tr_concurrency table from per-bucket peaks,
// whichever engine computed them.
func concurrencyRows(br bucketRuler, peaks []int) *Table {
	t := &Table{Name: "tr_concurrency", XLabels: []string{"bin", "t0"}, YLabels: []string{"peak"}, Columnar: true}
	for bi, p := range peaks {
		t.Rows = append(t.Rows, Row{
			X: []Value{num(float64(bi)), num(br.bound(bi).Seconds())},
			Y: []float64{float64(p)},
		})
	}
	return t
}
