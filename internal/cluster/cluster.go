// Package cluster assembles the simulated SP machine: the sched
// discrete-event scheduler for the SMP nodes, one drifting local clock
// per node, one trace facility (raw trace file) per node, and the
// periodic global-clock sampling that the paper's framework uses to
// solve the clock-synchronization problem. All trace records carry
// *local* timestamps; global clock records carry (global, local) pairs.
//
// In the paper the clock pairs are collected by a thread per node, which
// can be de-scheduled between the two clock reads and record an outlier
// pair. Here sampling runs as a simulator event (so it cannot interfere
// with workload scheduling) and the de-schedule failure mode is injected
// explicitly with Config.OutlierProb, preserving the phenomenon the
// paper's Summary discusses without tying the experiment to scheduler
// noise.
package cluster

import (
	"fmt"
	"io"

	"tracefw/internal/clock"
	"tracefw/internal/sched"
	"tracefw/internal/trace"
	"tracefw/internal/xrand"
)

// Config describes the simulated machine and its tracing setup.
type Config struct {
	Nodes       int
	CPUsPerNode int
	Quantum     clock.Time     // scheduler time slice (0 = 10ms)
	Affinity    sched.Affinity // CPU placement rule of the default policy

	// Policy is the dispatch policy; nil selects sched.FIFO(Affinity),
	// the historical behavior. Oversubscribing policies expose more
	// dispatch slots than physical CPUs, and the node's trace facility
	// is sized to the slot count so every dispatch record has a lane.
	Policy sched.Policy

	// Trace options; Prefix is used only by file-backed machines.
	TraceOpts trace.Options

	// ClockInterval is the period of global-clock record sampling
	// (0 = 1s, the paper collects pairs "periodically").
	ClockInterval clock.Time

	// Drifts holds per-node fractional clock drifts; if shorter than
	// Nodes, missing entries are derived pseudo-randomly from Seed in
	// ±1e-4 (the magnitude implied by the paper's Figure 1).
	Drifts []float64

	// Offsets holds per-node clock offsets; missing entries are derived
	// from Seed within ±1s.
	Offsets []clock.Time

	// ClockJitterNS is read noise on clock-pair sampling (not on trace
	// timestamps, which must stay monotone per node).
	ClockJitterNS float64

	// Granularity quantizes local timestamps (0 = 100ns).
	Granularity clock.Time

	// OutlierProb is the probability that a clock-pair sample suffers a
	// simulated de-schedule between the global and local reads.
	OutlierProb float64

	// OutlierDelay is the extra delay of an outlier sample (0 = 5ms).
	OutlierDelay clock.Time

	// Seed drives every derived random quantity.
	Seed uint64
}

func (c *Config) fill() {
	if c.ClockInterval <= 0 {
		c.ClockInterval = clock.Second
	}
	if c.Granularity <= 0 {
		c.Granularity = 100 * clock.Nanosecond
	}
	if c.OutlierDelay <= 0 {
		c.OutlierDelay = 5 * clock.Millisecond
	}
	rng := xrand.New(c.Seed ^ 0xc10c)
	for len(c.Drifts) < c.Nodes {
		c.Drifts = append(c.Drifts, (rng.Float64()-0.5)*2e-4)
	}
	for len(c.Offsets) < c.Nodes {
		c.Offsets = append(c.Offsets, clock.Time(rng.Int63n(int64(2*clock.Second)))-clock.Second)
	}
}

// Machine is the assembled simulated system.
type Machine struct {
	Sim        *sched.Sim
	Clocks     []*clock.Local
	Facilities []*trace.Facility

	cfg    Config
	rng    *xrand.Rand
	active int // workload threads still running
}

// New builds a machine whose trace facilities write to the given
// writers, one per node (for tests and in-memory pipelines).
func New(writers []io.Writer, cfg Config) (*Machine, error) {
	cfg.fill()
	if len(writers) != cfg.Nodes {
		return nil, fmt.Errorf("cluster: %d writers for %d nodes", len(writers), cfg.Nodes)
	}
	m := &Machine{cfg: cfg, rng: xrand.New(cfg.Seed ^ 0xfacade)}
	m.Sim = sched.New(sched.Config{
		Nodes: cfg.Nodes, CPUsPerNode: cfg.CPUsPerNode,
		Quantum: cfg.Quantum, Affinity: cfg.Affinity, Policy: cfg.Policy,
	}, m)
	for n := 0; n < cfg.Nodes; n++ {
		m.Clocks = append(m.Clocks, clock.NewLocal(cfg.Offsets[n], cfg.Drifts[n], cfg.ClockJitterNS, 1, cfg.Seed+uint64(n)))
		f, err := trace.NewFacility(cfg.TraceOpts, n, m.Sim.CPUs(n), writers[n])
		if err != nil {
			return nil, err
		}
		m.Facilities = append(m.Facilities, f)
	}
	return m, nil
}

// NewFiles builds a machine writing raw trace files named
// TraceOpts.Prefix.<node>.
func NewFiles(cfg Config) (*Machine, error) {
	writers := make([]io.Writer, 0, cfg.Nodes)
	// Whatever fails — opening a later file, or a facility's header
	// write inside New — every file opened so far is closed.
	closeAll := func() {
		for _, w := range writers {
			w.(io.Closer).Close()
		}
	}
	for n := 0; n < cfg.Nodes; n++ {
		fp, err := openCreate(cfg.TraceOpts.FileName(n))
		if err != nil {
			closeAll()
			return nil, err
		}
		writers = append(writers, fp)
	}
	m, err := New(writers, cfg)
	if err != nil {
		closeAll()
	}
	return m, err
}

// Config returns the (filled-in) machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// LocalTime returns node's local-clock timestamp for the current virtual
// time, quantized but monotone (no jitter), as the trace facility
// stamps records.
func (m *Machine) LocalTime(node int) clock.Time {
	v := m.Clocks[node].ValueAt(m.Sim.Now())
	g := m.cfg.Granularity
	if g > 1 {
		v -= v % g
	}
	return v
}

// OnDispatch implements sched.Listener by cutting a dispatch record.
func (m *Machine) OnDispatch(node int, tid int32, cpu int, _ clock.Time) {
	m.Facilities[node].CutDispatch(tid, m.LocalTime(node), cpu)
}

// OnUndispatch implements sched.Listener by cutting an undispatch record.
func (m *Machine) OnUndispatch(node int, tid int32, cpu int, reason sched.UndispatchReason, _ clock.Time) {
	m.Facilities[node].CutUndispatch(tid, m.LocalTime(node), cpu, int(reason))
}

// OnThreadStart implements sched.Listener (thread-info records are cut
// by SpawnTraced, which knows the task binding; nothing to do here).
func (m *Machine) OnThreadStart(int, int32, clock.Time) {}

// Cut stamps rec with node's current local time and records it.
func (m *Machine) Cut(node int, rec *trace.Record) {
	rec.Time = m.LocalTime(node)
	m.Facilities[node].Cut(rec)
}

// SpawnTraced creates a workload thread on node bound to MPI task (use
// task -1 for non-MPI threads), cuts its thread-info record, and tracks
// it for clock-sampler lifetime. threadType is one of the events.Thread*
// categories.
func (m *Machine) SpawnTraced(node int, task int32, threadType int, fn func(*sched.Thread)) *sched.Thread {
	m.active++
	t := m.Sim.Spawn(node, func(th *sched.Thread) {
		fn(th)
		m.active--
	})
	pid := uint64(10000 + int(task))
	if task < 0 {
		pid = uint64(20000 + node)
	}
	systid := uint64(node)<<16 | uint64(uint32(t.ID))
	m.Facilities[node].CutThreadInfo(t.ID, m.LocalTime(node), pid, systid, task, threadType)
	return t
}

// StartClockSampling cuts the first global-clock record for every node
// immediately and re-samples every ClockInterval for as long as workload
// threads remain. Call once, before Run.
func (m *Machine) StartClockSampling() {
	var tick func()
	sample := func() {
		now := m.Sim.Now()
		for n := range m.Facilities {
			// The record is cut — and locally timestamped — *after* the
			// global clock was read, so a de-schedule between the two
			// reads makes the global value stale by OutlierDelay while
			// the local timestamp stays in sequence with every other
			// record of the node (the paper's §5 failure mode). Read
			// jitter likewise lands on the global value.
			global := now
			if m.cfg.OutlierProb > 0 && m.rng.Float64() < m.cfg.OutlierProb {
				global -= m.cfg.OutlierDelay
			}
			if m.cfg.ClockJitterNS > 0 {
				global += clock.Time(m.rng.NormFloat64() * m.cfg.ClockJitterNS)
			}
			m.Facilities[n].CutGlobalClock(-1, m.LocalTime(n), global)
		}
	}
	tick = func() {
		sample()
		if m.active > 0 {
			m.Sim.After(m.cfg.ClockInterval, tick)
		}
	}
	m.Sim.At(0, tick)
}

// Run executes the simulation to completion and flushes and closes
// every facility — all of them, whichever fails, and also when the
// simulation panics (a workload's panic, the deadlock report): the
// deferred close runs and the panic goes on to the caller. It returns
// the final virtual time and the first close error.
func (m *Machine) Run() (end clock.Time, err error) {
	defer func() {
		for _, f := range m.Facilities {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}()
	return m.Sim.Run(), nil
}
