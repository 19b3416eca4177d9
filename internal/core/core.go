// Package core is the framework facade: it wires the whole paper
// pipeline of Figure 2 — run an instrumented program on the simulated SP
// machine producing one raw trace file per node, convert the event
// traces to interval files, merge them into a single clock-adjusted
// interval file, and derive the SLOG file, statistics tables, and
// time-space diagrams — behind one configuration struct. Each stage's
// artifact stays accessible, so callers can stop anywhere in the middle
// exactly like the command-line utilities do.
package core

import (
	"bytes"
	"fmt"
	"io"

	"tracefw/internal/clock"
	"tracefw/internal/cluster"
	"tracefw/internal/convert"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/mpisim"
	"tracefw/internal/render"
	"tracefw/internal/sched"
	"tracefw/internal/slog"
	"tracefw/internal/stats"
	"tracefw/internal/trace"
)

// Config assembles every stage's configuration.
type Config struct {
	// Machine shape.
	Nodes        int
	CPUsPerNode  int
	TasksPerNode int
	Quantum      clock.Time
	Affinity     sched.Affinity
	// Policy is the dispatch policy (nil = the default FIFO with
	// Affinity placement).
	Policy sched.Policy

	// Clock environment.
	Drifts        []float64
	Offsets       []clock.Time
	ClockInterval clock.Time
	OutlierProb   float64
	ClockJitterNS float64

	// Network/IO cost model overrides (zero values = defaults).
	Network mpisim.Network

	// Tracing.
	Enabled    events.Mask // zero = MaskAll
	BufferSize int
	DelayStart bool
	// Wrap selects the circular trace buffer (convert then runs in
	// tolerant mode automatically).
	Wrap bool

	Seed uint64

	// Parallel sets the pipeline width for the convert and merge stages
	// (0 = GOMAXPROCS, 1 = fully sequential). Merge.Parallel, when set,
	// overrides it for the merge stage. Outputs do not depend on the
	// width.
	Parallel int

	// Per-stage options.
	Convert interval.WriterOptions
	Merge   merge.Options
	Slog    slog.Options
}

func (c Config) clusterConfig() cluster.Config {
	enabled := c.Enabled
	if enabled == 0 {
		enabled = events.MaskAll
	}
	return cluster.Config{
		Nodes:         c.Nodes,
		CPUsPerNode:   c.CPUsPerNode,
		Quantum:       c.Quantum,
		Affinity:      c.Affinity,
		Policy:        c.Policy,
		ClockInterval: c.ClockInterval,
		Drifts:        c.Drifts,
		Offsets:       c.Offsets,
		ClockJitterNS: c.ClockJitterNS,
		OutlierProb:   c.OutlierProb,
		Seed:          c.Seed,
		TraceOpts: trace.Options{
			BufferSize: c.BufferSize,
			Enabled:    enabled,
			DelayStart: c.DelayStart,
			Wrap:       c.Wrap,
		},
	}
}

// Run holds every pipeline artifact.
type Run struct {
	Config Config

	// VirtualEnd is the simulated completion time.
	VirtualEnd clock.Time

	// RawBytes holds the per-node raw trace sizes. The raw bytes
	// themselves are dropped once converted; Generate returns them.
	RawBytes []int64

	// Intervals holds the per-node individual interval files.
	Intervals []*interval.File
	// ConvertResults holds per-node conversion summaries.
	ConvertResults []*convert.Result

	// Merged is the single merged, clock-adjusted interval file.
	Merged *interval.File
	// MergeResult summarizes the merge (ratios, pseudo counts).
	MergeResult *merge.Result

	// Slog is the viewer-ready SLOG file.
	Slog *slog.File
	// SlogResult summarizes the SLOG build.
	SlogResult *slog.BuildResult
}

// Execute runs the complete pipeline for a workload, in memory.
func Execute(cfg Config, main func(*mpisim.Proc)) (*Run, error) {
	run, err := ExecuteMerge(cfg, main)
	if err != nil {
		return nil, err
	}
	// Stage 4: SLOG for the viewer.
	sb := interval.NewSeekBuffer()
	if run.SlogResult, err = slog.Build(run.Merged, sb, cfg.Slog); err != nil {
		return nil, err
	}
	if run.Slog, err = slog.Read(sb); err != nil {
		return nil, err
	}
	return run, nil
}

// Generate runs the pipeline's first stage alone: main on the simulated
// machine, tracing into memory. It returns every node's raw trace bytes
// — the files tracegen writes — and the simulated completion time.
func Generate(cfg Config, main func(*mpisim.Proc)) (raws [][]byte, end clock.Time, err error) {
	if cfg.Nodes <= 0 || cfg.CPUsPerNode <= 0 {
		return nil, 0, fmt.Errorf("core: config needs nodes and cpus")
	}
	bufs := make([]*bytes.Buffer, cfg.Nodes)
	writers := make([]io.Writer, cfg.Nodes)
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
		writers[i] = bufs[i]
	}
	world, err := mpisim.New(mpisim.Config{Cluster: cfg.clusterConfig(), TasksPerNode: cfg.TasksPerNode, Network: cfg.Network}, writers)
	if err != nil {
		return nil, 0, err
	}
	world.Start(main)
	if end, err = world.Run(); err != nil {
		return nil, 0, err
	}
	raws = make([][]byte, cfg.Nodes)
	for i, b := range bufs {
		raws[i] = b.Bytes()
	}
	return raws, end, nil
}

// ExecuteMerge runs the pipeline up to the merged interval file —
// generate, convert, merge — and stops there: the Run has no SLOG file.
// Callers that reduce the merged trace themselves (a sweep cell) use it
// in place of Execute. The raw traces are garbage once converted: the
// Run keeps only their sizes.
func ExecuteMerge(cfg Config, main func(*mpisim.Proc)) (*Run, error) {
	run := &Run{Config: cfg}

	// Stage 1: trace generation on the simulated machine.
	raws, end, err := Generate(cfg, main)
	if err != nil {
		return nil, err
	}
	run.VirtualEnd = end
	run.RawBytes = make([]int64, len(raws))
	for i, raw := range raws {
		run.RawBytes[i] = int64(len(raw))
	}

	// Stage 2: convert raw traces to interval files.
	outs, results, err := convert.ConvertBuffers(raws, convert.Options{
		Writer: cfg.Convert, Markers: convert.NewMarkerRegistry(), Tolerant: cfg.Wrap, Parallel: cfg.Parallel,
	})
	if err != nil {
		return nil, err
	}
	run.ConvertResults = results
	for _, sb := range outs {
		f, err := interval.NewFile(sb)
		if err != nil {
			return nil, err
		}
		run.Intervals = append(run.Intervals, f)
	}

	// Stage 3: merge with clock adjustment.
	mopts := cfg.Merge
	mopts.Writer = cfg.Convert
	if mopts.Parallel == 0 {
		mopts.Parallel = cfg.Parallel
	}
	sb := interval.NewSeekBuffer()
	if run.MergeResult, err = merge.Merge(run.Intervals, sb, mopts); err != nil {
		return nil, err
	}
	if run.Merged, err = interval.NewFile(sb); err != nil {
		return nil, err
	}
	return run, nil
}

// Stats runs a statistics program (empty = the predefined tables) over
// the merged file.
func (r *Run) Stats(program string) ([]*stats.Table, error) {
	if program == "" {
		program = stats.Predefined(interval.DefaultBins)
	}
	return stats.Generate(program, []*interval.File{r.Merged})
}

// View builds one of the four time-space diagrams from the merged file.
func (r *Run) View(kind render.ViewKind, opts render.Options) (*render.Diagram, error) {
	return render.BuildDiagram(r.Merged, kind, opts)
}

// Arrows collects every message arrow from the SLOG file.
func (r *Run) Arrows() ([]slog.Arrow, error) {
	var arrows []slog.Arrow
	for i := range r.Slog.Index {
		fd, err := r.Slog.ReadFrame(i)
		if err != nil {
			return nil, err
		}
		arrows = append(arrows, fd.Arrows...)
	}
	return arrows, nil
}

// TotalEvents sums raw events over all nodes.
func (r *Run) TotalEvents() int64 {
	var n int64
	for _, c := range r.ConvertResults {
		n += c.Events
	}
	return n
}

// Close closes the run's interval and SLOG files.
func (r *Run) Close() error {
	var first error
	for _, f := range r.Intervals {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	if r.Merged != nil {
		if err := r.Merged.Close(); err != nil && first == nil {
			first = err
		}
	}
	if r.Slog != nil {
		if err := r.Slog.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
