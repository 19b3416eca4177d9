// Package mpisim is a message-passing runtime on the simulated SP
// machine — the substrate the paper's tracing framework instruments.
// Tasks (MPI processes) are placed round-robin on the cluster's SMP
// nodes; each task has a main thread and may spawn additional threads.
// Every MPI operation goes through a PMPI-style wrapper that cuts entry
// and exit trace records, with the message sizes, partners, tags and
// per-pair sequence numbers the paper's utilities use to match sends
// with receives.
//
// The communication model is the usual alpha-beta model with an eager /
// rendezvous protocol switch: small messages are buffered and delivered
// after a latency; large messages synchronize sender and receiver and
// then pay a bandwidth term. Collectives use log2(P) tree costs.
package mpisim

import (
	"fmt"
	"io"
	"math"

	"tracefw/internal/clock"
	"tracefw/internal/cluster"
	"tracefw/internal/events"
	"tracefw/internal/sched"
	"tracefw/internal/trace"
)

// AnySource and AnyTag are wildcard receive selectors.
const (
	AnySource int32 = -1
	AnyTag    int32 = -1
)

// Network is the communication and I/O cost model. The zero value
// selects the defaults noted per field.
type Network struct {
	EagerThreshold int        // bytes; larger messages use rendezvous (default 64 KiB)
	LatencyInter   clock.Time // alpha between nodes (default 25µs)
	LatencyIntra   clock.Time // alpha within a node (default 3µs)
	BWInter        float64    // bytes/s between nodes (default 350 MB/s)
	BWIntra        float64    // bytes/s within a node (default 1.5 GB/s)
	CallOverhead   clock.Time // CPU cost inside every MPI call (default 1.5µs)

	// I/O model (FileRead / FileWrite).
	IOLatency   clock.Time // per-operation latency (default 4ms)
	IOBandwidth float64    // bytes/s (default 120 MB/s)
}

// Config describes the simulated MPI machine and network.
type Config struct {
	Cluster      cluster.Config
	TasksPerNode int // MPI tasks per SMP node (default 1)
	Network
}

func (c *Config) fill() {
	if c.TasksPerNode <= 0 {
		c.TasksPerNode = 1
	}
	if c.EagerThreshold <= 0 {
		c.EagerThreshold = 64 << 10
	}
	if c.LatencyInter <= 0 {
		c.LatencyInter = 25 * clock.Microsecond
	}
	if c.LatencyIntra <= 0 {
		c.LatencyIntra = 3 * clock.Microsecond
	}
	if c.BWInter <= 0 {
		c.BWInter = 350e6
	}
	if c.BWIntra <= 0 {
		c.BWIntra = 1.5e9
	}
	if c.CallOverhead <= 0 {
		c.CallOverhead = 1500 * clock.Nanosecond
	}
}

// World is one simulated MPI job.
type World struct {
	M   *cluster.Machine
	cfg Config

	tasks []*Task
	comms []*Comm
	colls map[collKey]*collState

	reqs freeList[Request]
	msgs freeList[message]
}

// Task is one MPI process.
type Task struct {
	w    *World
	Rank int32
	Node int

	mbox       mailbox
	markerSeq  uint64
	markerName map[uint64]string
	collSeq    map[int32]uint64 // per-communicator collective counter
}

// Proc is a thread-level handle: workload code receives one per thread
// and issues computation, MPI calls, and markers through it.
type Proc struct {
	task *Task
	th   *sched.Thread
}

// New builds a world whose raw trace files go to the given writers (one
// per node).
func New(cfg Config, writers []io.Writer) (*World, error) {
	cfg.fill()
	m, err := cluster.New(writers, cfg.Cluster)
	if err != nil {
		return nil, err
	}
	return newWorld(cfg, m), nil
}

// NewFiles builds a world writing raw trace files per the cluster trace
// options prefix.
func NewFiles(cfg Config) (*World, error) {
	cfg.fill()
	m, err := cluster.NewFiles(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	return newWorld(cfg, m), nil
}

func newWorld(cfg Config, m *cluster.Machine) *World {
	w := &World{M: m, cfg: cfg, colls: make(map[collKey]*collState)}
	ntasks := cfg.Cluster.Nodes * cfg.TasksPerNode
	world := &Comm{w: w, id: 0}
	for r := 0; r < ntasks; r++ {
		t := &Task{
			w:          w,
			Rank:       int32(r),
			Node:       r / cfg.TasksPerNode,
			markerName: make(map[uint64]string),
			collSeq:    make(map[int32]uint64),
		}
		w.tasks = append(w.tasks, t)
		world.ranks = append(world.ranks, int32(r))
	}
	w.comms = []*Comm{world}
	return w
}

// NumTasks returns the number of MPI tasks.
func (w *World) NumTasks() int { return len(w.tasks) }

// Start launches main on every task's main thread (thread category MPI)
// and begins global-clock sampling. Call Run afterwards.
func (w *World) Start(main func(*Proc)) {
	for _, t := range w.tasks {
		t := t
		w.M.SpawnTraced(t.Node, t.Rank, events.ThreadMPI, func(th *sched.Thread) {
			main(&Proc{task: t, th: th})
		})
	}
	w.M.StartClockSampling()
}

// Run executes the job to completion, flushing all trace files, and
// returns the final virtual time.
func (w *World) Run() (clock.Time, error) { return w.M.Run() }

// --- Proc basics ---

// Rank returns the task's rank in the world communicator.
func (p *Proc) Rank() int { return int(p.task.Rank) }

// Size returns the world communicator size.
func (p *Proc) Size() int { return len(p.task.w.tasks) }

// Node returns the SMP node the task lives on.
func (p *Proc) Node() int { return p.task.Node }

// Now returns the current virtual (true) time.
func (p *Proc) Now() clock.Time { return p.th.Now() }

// World returns the world communicator.
func (p *Proc) World() *Comm { return p.task.w.comms[0] }

// Compute consumes d of CPU time on the task's node.
func (p *Proc) Compute(d clock.Time) { p.th.Compute(d) }

// Sleep suspends the thread without consuming CPU.
func (p *Proc) Sleep(d clock.Time) { p.th.Sleep(d) }

// Spawn creates an additional thread in the same task; threadType is an
// events.Thread* category (the paper's sPPM run had four threads per
// task, one of which made MPI calls).
func (p *Proc) Spawn(threadType int, fn func(*Proc)) {
	t := p.task
	t.w.M.SpawnTraced(t.Node, t.Rank, threadType, func(th *sched.Thread) {
		fn(&Proc{task: t, th: th})
	})
}

// cut stamps and records a trace event for this thread.
func (p *Proc) cut(ty events.Type, edge events.Edge, args []uint64, str string) {
	rec := trace.Record{Type: ty, Edge: edge, TID: p.th.ID, Args: args, Str: str}
	p.task.w.M.Cut(p.task.Node, &rec)
}

// enter cuts the MPI entry record and charges the wrapper overhead.
func (p *Proc) enter(ty events.Type) {
	p.cut(ty, events.Entry, nil, "")
	p.th.Compute(p.task.w.cfg.CallOverhead)
}

// exit cuts the MPI exit record carrying the routine's interval fields
// in events.ExtraFields order.
func (p *Proc) exit(ty events.Type, args ...uint64) {
	p.cut(ty, events.Exit, args, "")
}

// addrOf synthesizes an "instruction address" for a routine, standing in
// for the real call-site address the paper stores for source browsing.
func addrOf(ty events.Type) uint64 { return 0x10000000 + uint64(ty)<<4 }

// latency returns the alpha+beta transport time for nbytes between two
// tasks.
func (w *World) latency(src, dst *Task, nbytes int) clock.Time {
	alpha, bw := w.cfg.LatencyInter, w.cfg.BWInter
	if src.Node == dst.Node {
		alpha, bw = w.cfg.LatencyIntra, w.cfg.BWIntra
	}
	return alpha + clock.Time(math.Round(float64(nbytes)/bw*float64(clock.Second)))
}

// transfer returns the bandwidth term only (rendezvous payload time).
func (w *World) transfer(src, dst *Task, nbytes int) clock.Time {
	bw := w.cfg.BWInter
	if src.Node == dst.Node {
		bw = w.cfg.BWIntra
	}
	return clock.Time(math.Round(float64(nbytes) / bw * float64(clock.Second)))
}

func (w *World) task(rank int) *Task {
	if rank < 0 || rank >= len(w.tasks) {
		panic(fmt.Sprintf("mpisim: rank %d out of range [0,%d)", rank, len(w.tasks)))
	}
	return w.tasks[rank]
}
