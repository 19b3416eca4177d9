// Package sweep runs policy × workload scenario grids through the full
// trace pipeline: each cell runs internal/core's generate → convert →
// merge stages for one (scheduling policy, workload) pair on the
// configured machine and reduces the merged interval file to the
// time-resolved summary metrics (busy time, load balance,
// peak concurrency). Cells are independent and run under internal/par,
// and every table output is deterministic: byte-identical across reruns
// and across -j values, because cell results are collected by grid
// index and contain no wall-clock quantities (throughput numbers are
// reported separately and never enter the tables).
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"tracefw/internal/clock"
	"tracefw/internal/core"
	"tracefw/internal/interval"
	"tracefw/internal/par"
	"tracefw/internal/sched"
	"tracefw/internal/stats"
	"tracefw/internal/workload"
)

// Scenario is one workload instance of the grid: a registry name plus
// parameter overrides.
type Scenario struct {
	Name   string          `json:"name"`
	Params workload.Params `json:"params,omitempty"`
}

// Label renders the scenario for table rows: "name" or
// "name(k=v,k=v)" with parameters sorted by name.
func (s Scenario) Label() string {
	if len(s.Params) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('(')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", k, s.Params[k])
	}
	b.WriteByte(')')
	return b.String()
}

// Grid is the cross product to sweep: every scenario under every
// policy. The first policy is the baseline the delta columns compare
// against.
type Grid struct {
	Policies  []string   `json:"policies"`
	Scenarios []Scenario `json:"scenarios"`
}

// Options fixes the machine every cell runs on and the driver width.
type Options struct {
	Nodes        int        `json:"nodes"`
	CPUsPerNode  int        `json:"cpus_per_node"`
	TasksPerNode int        `json:"tasks_per_node"`
	Quantum      clock.Time `json:"quantum,omitempty"` // 0 = scheduler default
	Seed         uint64     `json:"seed"`
	// Parallel is the number of cells in flight (0 = GOMAXPROCS). Table
	// outputs do not depend on it.
	Parallel int `json:"-"`
}

// Cell is one (scenario, policy) run. All exported fields except the
// wall-clock throughput pair are deterministic functions of the grid,
// options, and seed.
type Cell struct {
	Workload string `json:"workload"`
	Policy   string `json:"policy"`

	// VirtualEnd is the simulated completion time.
	VirtualEnd clock.Time `json:"virtual_end"`
	// RawEvents counts raw trace event records across nodes.
	RawEvents int64 `json:"raw_events"`
	// Records counts merged interval records (incl. pseudo-intervals).
	Records int64 `json:"records"`
	// TotalBusy sums busy time (seconds) over every traced state.
	TotalBusy float64 `json:"total_busy_s"`
	// BusyByType breaks TotalBusy down by state name, sorted by name.
	BusyByType []TypeBusy `json:"busy_by_type"`
	// MeanBusy/MaxBusy/Imbalance are the tr_load_balance metrics over
	// the whole run: per-lane busy mean and max (seconds) and their
	// ratio (1.0 = perfectly balanced).
	MeanBusy  float64 `json:"mean_busy_s"`
	MaxBusy   float64 `json:"max_busy_s"`
	Imbalance float64 `json:"imbalance"`
	// PeakConcurrency is the peak number of simultaneously busy lanes.
	PeakConcurrency int64 `json:"peak_concurrency"`

	// Pseudo counts the frame-start pseudo-intervals among Records.
	// Deterministic, but kept out of JSON and TSV: their columns are a
	// parsed surface.
	Pseudo int64 `json:"-"`

	// Wall-clock throughput of the cell on the host machine. Excluded
	// from JSON and TSV: not deterministic.
	WallSeconds   float64 `json:"-"`
	EventsPerSec  float64 `json:"-"`
	RawTraceBytes int64   `json:"-"`
}

// TypeBusy is one state's share of a cell's busy time.
type TypeBusy struct {
	State string  `json:"state"`
	Busy  float64 `json:"busy"`
}

// Result is a completed sweep: cells in grid order (scenario-major,
// policy-minor).
type Result struct {
	Grid    Grid    `json:"grid"`
	Options Options `json:"options"`
	Cells   []Cell  `json:"cells"`
}

// Run executes the grid. The whole grid is validated before any cell
// runs: unknown policies, unknown workloads, and out-of-bounds
// parameters fail fast with no partial output.
func Run(g Grid, opts Options) (*Result, error) {
	if len(g.Policies) == 0 || len(g.Scenarios) == 0 {
		return nil, fmt.Errorf("sweep: grid needs at least one policy and one scenario")
	}
	if opts.Nodes <= 0 || opts.CPUsPerNode <= 0 || opts.TasksPerNode <= 0 {
		return nil, fmt.Errorf("sweep: options need nodes, cpus, and tasks per node")
	}
	for _, p := range g.Policies {
		if _, err := sched.ParsePolicy(p); err != nil {
			return nil, err
		}
	}
	for _, sc := range g.Scenarios {
		if _, err := workload.Build(sc.Name, sc.Params); err != nil {
			return nil, err
		}
	}
	res := &Result{Grid: g, Options: opts, Cells: make([]Cell, len(g.Policies)*len(g.Scenarios))}
	err := par.Do(len(res.Cells), opts.Parallel, func(i int) error {
		sc := g.Scenarios[i/len(g.Policies)]
		pol := g.Policies[i%len(g.Policies)]
		cell, err := runCell(sc, pol, opts)
		if err != nil {
			return fmt.Errorf("sweep: cell %s/%s: %w", sc.Label(), pol, err)
		}
		res.Cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runCell simulates one (scenario, policy) pair and reduces the merged
// trace to the cell metrics.
func runCell(sc Scenario, polName string, opts Options) (Cell, error) {
	start := time.Now()
	pol, err := sched.ParsePolicy(polName)
	if err != nil {
		return Cell{}, err
	}
	main, err := workload.Build(sc.Name, sc.Params)
	if err != nil {
		return Cell{}, err
	}
	cell := Cell{Workload: sc.Label(), Policy: polName}

	// Generate, convert and merge: the pipeline core runs for everyone.
	// Cells parallelize across the grid, so each stage inside a cell runs
	// sequentially (Parallel: 1).
	run, err := core.ExecuteMerge(core.Config{
		Nodes: opts.Nodes, CPUsPerNode: opts.CPUsPerNode, TasksPerNode: opts.TasksPerNode,
		Quantum: opts.Quantum, Policy: pol, Seed: opts.Seed,
		// The default 1s sampling interval quantizes VirtualEnd (the
		// last event of a run is a clock sample); 10ms keeps the
		// end-time deltas between policies visible.
		ClockInterval: 10 * clock.Millisecond,
		Parallel:      1,
	}, main)
	if err != nil {
		return Cell{}, err
	}
	cell.VirtualEnd, cell.RawEvents = run.VirtualEnd, run.TotalEvents()
	for _, n := range run.RawBytes {
		cell.RawTraceBytes += n
	}
	cell.Records, cell.Pseudo = run.MergeResult.Records, run.MergeResult.Pseudo

	// Stats: the three time-resolved tables with a single bin are
	// exactly the cell metrics — busy by type, lane load balance, and
	// peak concurrency over the whole run.
	tabs, err := stats.TimeResolved([]*interval.File{run.Merged}, 1, interval.MapOptions{Parallel: 1})
	if err != nil {
		return Cell{}, err
	}
	for _, t := range tabs {
		switch t.Name {
		case "tr_busy_by_type":
			for _, row := range t.Rows {
				state := row.X[len(row.X)-1].S
				busy := row.Y[0]
				cell.BusyByType = append(cell.BusyByType, TypeBusy{State: state, Busy: busy})
				cell.TotalBusy += busy
			}
			sort.Slice(cell.BusyByType, func(i, j int) bool {
				return cell.BusyByType[i].State < cell.BusyByType[j].State
			})
		case "tr_load_balance":
			if len(t.Rows) > 0 {
				cell.MeanBusy = t.Rows[0].Y[0]
				cell.MaxBusy = t.Rows[0].Y[1]
				cell.Imbalance = t.Rows[0].Y[2]
			}
		case "tr_concurrency":
			for _, row := range t.Rows {
				if p := int64(row.Y[0]); p > cell.PeakConcurrency {
					cell.PeakConcurrency = p
				}
			}
		}
	}

	cell.WallSeconds = time.Since(start).Seconds()
	if cell.WallSeconds > 0 {
		cell.EventsPerSec = float64(cell.RawEvents) / cell.WallSeconds
	}
	return cell, nil
}

// baseline returns the cell of the same scenario under the grid's first
// policy.
func (r *Result) baseline(i int) Cell {
	return r.Cells[(i/len(r.Grid.Policies))*len(r.Grid.Policies)]
}

// TSV renders the deterministic comparison table: one row per cell with
// the absolute metrics and, for non-baseline policies, delta columns
// against the scenario's run under the first policy.
func (r *Result) TSV() []byte {
	var b bytes.Buffer
	b.WriteString("workload\tpolicy\tvirtual_end_ms\traw_events\trecords\ttotal_busy_s\tmean_busy_s\tmax_busy_s\timbalance\tpeak_conc\td_end_pct\td_imbalance\td_peak\n")
	for i, c := range r.Cells {
		base := r.baseline(i)
		fmt.Fprintf(&b, "%s\t%s\t%s\t%d\t%d\t%s\t%s\t%s\t%s\t%d",
			c.Workload, c.Policy,
			ms(float64(c.VirtualEnd)), c.RawEvents, c.Records,
			f6(c.TotalBusy), f6(c.MeanBusy), f6(c.MaxBusy),
			f4(c.Imbalance), c.PeakConcurrency)
		if i%len(r.Grid.Policies) == 0 {
			b.WriteString("\t-\t-\t-\n")
			continue
		}
		dEnd := 0.0
		if base.VirtualEnd > 0 {
			dEnd = 100 * (float64(c.VirtualEnd) - float64(base.VirtualEnd)) / float64(base.VirtualEnd)
		}
		fmt.Fprintf(&b, "\t%s\t%s\t%+d\n",
			f2signed(dEnd), f4signed(c.Imbalance-base.Imbalance),
			c.PeakConcurrency-base.PeakConcurrency)
	}
	return b.Bytes()
}

// JSON renders the deterministic sweep result (grid, options, cells —
// no wall-clock fields).
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Throughput renders the per-cell wall-clock report (host-dependent;
// never part of TSV/JSON).
func (r *Result) Throughput() string {
	var b strings.Builder
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-28s %-10s %8.3fs wall  %9d events  %12.0f events/s  %d raw bytes\n",
			c.Workload, c.Policy, c.WallSeconds, c.RawEvents, c.EventsPerSec, c.RawTraceBytes)
	}
	return b.String()
}

func ms(ns float64) string { return strconv.FormatFloat(ns/1e6, 'f', 3, 64) }

func f6(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

func f4(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

func f2signed(v float64) string {
	s := strconv.FormatFloat(v, 'f', 2, 64)
	if v >= 0 && !strings.HasPrefix(s, "-") {
		return "+" + s
	}
	return s
}

func f4signed(v float64) string {
	s := strconv.FormatFloat(v, 'f', 4, 64)
	if v >= 0 && !strings.HasPrefix(s, "-") {
		return "+" + s
	}
	return s
}
