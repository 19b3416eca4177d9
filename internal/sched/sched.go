// iter.Pull arrived in Go 1.23 and go.mod's go line says 1.22: the
// constraint below gives this one file the version its import needs,
// which is what `go vet` checks. It selects nothing — there is no other
// implementation for an older toolchain to fall back to.
//go:build go1.23

// Package sched is a deterministic discrete-event simulation of the SMP
// nodes of an SP system: each node has a set of CPUs and a preemptive,
// quantum-based thread scheduler. Simulated threads are coroutines
// (iter.Pull) that execute real Go code but consume virtual time only
// through the primitives (Compute, Sleep, Block): Run resumes a thread
// with a direct switch, the thread runs until its next primitive and
// switches straight back, so a hand-off never goes through the Go
// scheduler's run queues and never leaves Run's processor. The
// scheduler emits thread
// dispatch and undispatch callbacks — the "system activities" the
// paper's unified tracing facility records alongside MPI events — and
// threads migrate between CPUs exactly as the paper's Figure 9 shows,
// because a re-dispatched thread takes whatever CPU is free.
//
// Execution is strictly deterministic: a single virtual clock, a single
// event queue ordered by (time, sequence), FIFO ready queues, and
// exactly one of Run and the thread it resumed executing at any moment.
// No thread outlives Run: whatever has not exited when Run returns or
// panics is stopped and unwound there. The dispatch decision itself —
// which ready thread gets which free CPU — is a pluggable Policy (see
// policy.go), so cluster-scale scenario sweeps can compare schedulers
// on one machine model.
//
// The event queue, ready queues, and slice bookkeeping are
// allocation-free on the hot path: events are values in a hand-rolled
// binary heap, and the recurring event kinds (slice end, timer wakeup)
// are encoded in the event itself rather than as closures, so a
// thousand-node simulation's steady state allocates nothing per
// scheduler event.
package sched

import (
	"fmt"
	"iter"

	"tracefw/internal/clock"
)

// State is a thread's scheduling state.
type State uint8

// Thread states.
const (
	StateNew     State = iota // created, never dispatched
	StateReady                // runnable, waiting for a CPU
	StateRunning              // on a CPU
	StateBlocked              // waiting for an external wakeup
	StateExited               // finished
)

// UndispatchReason mirrors events.Undispatch* but is kept independent so
// sched has no dependency on the events package.
type UndispatchReason int

// Undispatch reasons.
const (
	ReasonQuantum UndispatchReason = 0
	ReasonBlock   UndispatchReason = 1
	ReasonExit    UndispatchReason = 2
)

// Listener receives scheduling events. Implementations must not call
// back into the simulator.
type Listener interface {
	// OnDispatch is called when thread tid of node is placed on cpu.
	OnDispatch(node int, tid int32, cpu int, now clock.Time)
	// OnUndispatch is called when thread tid leaves cpu.
	OnUndispatch(node int, tid int32, cpu int, reason UndispatchReason, now clock.Time)
	// OnThreadStart is called once when a thread is created.
	OnThreadStart(node int, tid int32, now clock.Time)
}

// NopListener ignores all events.
type NopListener struct{}

// OnDispatch implements Listener.
func (NopListener) OnDispatch(int, int32, int, clock.Time) {}

// OnUndispatch implements Listener.
func (NopListener) OnUndispatch(int, int32, int, UndispatchReason, clock.Time) {}

// OnThreadStart implements Listener.
func (NopListener) OnThreadStart(int, int32, clock.Time) {}

// evKind discriminates the recurring event shapes so the hot path never
// allocates a closure: slice expiry and timer wakeups carry their
// payload in the event value itself; evFn covers everything else.
type evKind uint8

const (
	evFn        evKind = iota // run e.fn
	evSliceDone               // a compute slice of e.t expired (e.d of CPU time)
	evUnblock                 // wake e.t from a Sleep
)

type event struct {
	at   clock.Time
	seq  uint64
	kind evKind
	t    *Thread
	d    clock.Time
	fn   func()
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a hand-rolled binary min-heap of event values ordered by
// (time, sequence). Storing values and avoiding container/heap keeps the
// push/pop path free of interface boxing — zero allocations once the
// backing array has grown to the simulation's steady-state size.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop fn/thread references
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && q[l].before(&q[s]) {
			s = l
		}
		if r < n && q[r].before(&q[s]) {
			s = r
		}
		if s == i {
			break
		}
		q[i], q[s] = q[s], q[i]
		i = s
	}
	*h = q
	return top
}

// threadQueue is a FIFO of threads with a head index instead of
// re-slicing, so steady-state push/pop reuses one backing array. take
// removes at an arbitrary index (policies may dispatch out of FIFO
// order) while preserving the order of the rest.
type threadQueue struct {
	items []*Thread
	head  int
}

func (q *threadQueue) size() int { return len(q.items) - q.head }

func (q *threadQueue) at(i int) *Thread { return q.items[q.head+i] }

func (q *threadQueue) push(t *Thread) {
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head > 32 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = nil
		}
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, t)
}

func (q *threadQueue) take(i int) *Thread {
	j := q.head + i
	t := q.items[j]
	if i == 0 {
		q.items[j] = nil
		q.head++
		if q.head == len(q.items) {
			q.items = q.items[:0]
			q.head = 0
		}
		return t
	}
	copy(q.items[j:], q.items[j+1:])
	q.items[len(q.items)-1] = nil
	q.items = q.items[:len(q.items)-1]
	return t
}

// yieldKind is what a thread hands Run when it switches back: the
// primitive it is waiting in. A thread that returns yields nothing; Run
// sees its coroutine end.
type yieldKind uint8

const (
	yieldCompute yieldKind = iota
	yieldBlock
)

// stopped is the panic value that unwinds a thread Run has stopped; it
// never leaves Thread.run.
type stopped struct{}

// Thread is a simulated thread. It is created with Sim.Spawn and runs fn
// as a coroutine of Run, consuming virtual time through the primitives.
type Thread struct {
	sim  *Sim
	node *node

	// ID is the node-local logical thread id, dense from 0 — the paper's
	// interval records identify threads this way ("logical thread ID
	// (starts from 0 for each node)").
	ID int32

	state   State
	cpu     int // dispatch slot currently held, -1 if none
	lastCPU int // affinity hint
	remain  clock.Time
	fn      func(*Thread)

	// next resumes the coroutine until its next primitive (ok false:
	// fn returned), stop ends it early, yieldTo is its way back to Run.
	next    func() (yieldKind, bool)
	stop    func()
	yieldTo func(yieldKind) bool
}

// Sim is the machine-wide simulator: a set of SMP nodes sharing one
// virtual clock and event queue.
type Sim struct {
	now      clock.Time
	seq      uint64
	events   eventHeap
	nodes    []*node
	listener Listener
	policy   Policy
	// runnables holds threads whose coroutine must be given control
	// (started, resumed after a completed compute, or after unblocking).
	runnables threadQueue
	live      int // threads not yet exited
	running   bool
}

type node struct {
	id      int
	phys    int // physical CPUs (slots may exceed this under oversubscription)
	busy    int // occupied dispatch slots
	quantum clock.Time
	cpus    []*Thread // index = dispatch slot; nil = idle
	readyQ  threadQueue
	threads []*Thread
}

// Affinity selects the CPU-placement rule of the default (FIFO) policy.
type Affinity int

// Affinity policies.
const (
	// AffinityPreferLast re-dispatches a thread on its previous CPU when
	// free (cache affinity), migrating only under contention.
	AffinityPreferLast Affinity = iota
	// AffinityLowestFree always takes the lowest-numbered idle CPU, like
	// the era's AIX dispatcher; threads migrate readily, which is what
	// the paper's processor-activity view (Figure 9) shows.
	AffinityLowestFree
)

// Config describes the simulated machine.
type Config struct {
	Nodes       int        // number of SMP nodes
	CPUsPerNode int        // physical processors per node
	Quantum     clock.Time // scheduler time slice; zero selects 10ms
	Affinity    Affinity   // CPU placement rule of the default policy
	// Policy is the dispatch policy; nil selects FIFO(Affinity), the
	// scheduler's historical behavior.
	Policy Policy
}

// New builds a simulator. The listener may be nil.
func New(cfg Config, l Listener) *Sim {
	if cfg.Nodes <= 0 || cfg.CPUsPerNode <= 0 {
		panic("sched: config needs at least one node and one CPU")
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 10 * clock.Millisecond
	}
	if l == nil {
		l = NopListener{}
	}
	pol := cfg.Policy
	if pol == nil {
		pol = FIFO(cfg.Affinity)
	}
	slots := pol.Slots(cfg.CPUsPerNode)
	if slots < 1 {
		panic(fmt.Sprintf("sched: policy %s exposes %d slots", pol.Name(), slots))
	}
	s := &Sim{listener: l, policy: pol}
	for n := 0; n < cfg.Nodes; n++ {
		s.nodes = append(s.nodes, &node{
			id:      n,
			phys:    cfg.CPUsPerNode,
			quantum: cfg.Quantum,
			cpus:    make([]*Thread, slots),
		})
	}
	return s
}

// Now returns the current virtual time.
func (s *Sim) Now() clock.Time { return s.now }

// NumNodes returns the node count.
func (s *Sim) NumNodes() int { return len(s.nodes) }

// CPUs returns the dispatch-slot count of a node (equal to the physical
// CPU count except under an oversubscribing policy).
func (s *Sim) CPUs(nodeID int) int { return len(s.nodes[nodeID].cpus) }

// Policy returns the active dispatch policy.
func (s *Sim) Policy() Policy { return s.policy }

// Spawn creates a thread on node running fn. It may be called before Run
// or from inside a running thread. The thread starts Ready.
func (s *Sim) Spawn(nodeID int, fn func(*Thread)) *Thread {
	n := s.nodes[nodeID]
	t := &Thread{
		sim:     s,
		node:    n,
		ID:      int32(len(n.threads)),
		state:   StateNew,
		cpu:     -1,
		lastCPU: -1,
		fn:      fn,
	}
	t.next, t.stop = iter.Pull(t.run)
	n.threads = append(n.threads, t)
	s.live++
	s.listener.OnThreadStart(n.id, t.ID, s.now)
	t.state = StateReady
	n.readyQ.push(t)
	s.schedule(n)
	return t
}

// run is the coroutine body. A workload panic leaves it as it is —
// iter.Pull re-raises it from next, in Run's caller — and only the
// unwinding of a stopped thread ends here.
func (t *Thread) run(yield func(yieldKind) bool) {
	t.yieldTo = yield
	defer func() {
		if r := recover(); r != nil && r != any(stopped{}) {
			panic(r)
		}
	}()
	t.fn(t)
}

// push enqueues an event at virtual time at (clamped to now).
func (s *Sim) push(at clock.Time, e event) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	e.at, e.seq = at, s.seq
	s.events.push(e)
}

// At schedules fn to run at virtual time at (simulator context, not a
// thread). Events in the past run at the current time.
func (s *Sim) At(at clock.Time, fn func()) {
	s.push(at, event{kind: evFn, fn: fn})
}

// After schedules fn after a delay.
func (s *Sim) After(d clock.Time, fn func()) { s.At(s.now+d, fn) }

// Run executes the simulation until no thread can make progress. It
// returns the final virtual time. Run panics on deadlock with blocked
// threads remaining (a bug in the workload or runtime under test), and
// a panic in a thread's fn comes out of Run. Either way no thread is
// left behind: see stopThreads.
func (s *Sim) Run() clock.Time {
	if s.running {
		panic("sched: Run reentered")
	}
	s.running = true
	defer func() {
		s.running = false
		s.stopThreads()
	}()
	for {
		if s.runnables.size() > 0 {
			t := s.runnables.take(0)
			kind, ok := t.next()
			s.handleYield(t, kind, ok)
			continue
		}
		if len(s.events) > 0 {
			e := s.events.pop()
			s.now = e.at
			switch e.kind {
			case evSliceDone:
				s.sliceDone(e.t, e.d)
			case evUnblock:
				s.Unblock(e.t)
			default:
				e.fn()
			}
			continue
		}
		break
	}
	if s.live > 0 {
		blocked := 0
		for _, n := range s.nodes {
			for _, t := range n.threads {
				if t.state == StateBlocked {
					blocked++
				}
			}
		}
		panic(fmt.Sprintf("sched: deadlock: %d live threads (%d blocked) with no pending events", s.live, blocked))
	}
	return s.now
}

// stopThreads ends every thread that has not exited — blocked ones
// after a deadlock, all the others after a workload panic; none after a
// normal return — so that no coroutine outlives Run. A stopped thread's
// pending primitive panics with stopped{}, which unwinds fn (running its
// deferred calls) and is recovered in Thread.run.
func (s *Sim) stopThreads() {
	for _, n := range s.nodes {
		for _, t := range n.threads {
			if t.state != StateExited {
				t.stop()
			}
		}
	}
}

// handleYield acts on what a resumed thread handed back: the primitive
// it now waits in, or (ok false) that fn returned.
func (s *Sim) handleYield(t *Thread, kind yieldKind, ok bool) {
	switch {
	case !ok:
		s.releaseCPU(t, ReasonExit)
		t.state = StateExited
		s.live--
		s.schedule(t.node)
	case kind == yieldCompute:
		// The thread holds a CPU and asked to burn t.remain of it.
		s.startSlice(t)
	case kind == yieldBlock:
		s.releaseCPU(t, ReasonBlock)
		t.state = StateBlocked
		s.schedule(t.node)
	}
}

// startSlice begins or continues a compute burst for a thread holding a
// CPU, scheduling the slice-end event. Under an oversubscribing policy
// the wall-clock duration of the slice dilates with the node's slot
// occupancy at slice start (CPU-time accounting is unaffected).
func (s *Sim) startSlice(t *Thread) {
	n := t.node
	slice := t.remain
	if q := n.quantum; slice > q {
		slice = q
	}
	wall := slice
	if stretch := s.policy.Stretch(n.busy, n.phys); stretch > 1 {
		wall = slice * clock.Time(stretch)
	}
	s.push(s.now+wall, event{kind: evSliceDone, t: t, d: slice})
}

func (s *Sim) sliceDone(t *Thread, slice clock.Time) {
	t.remain -= slice
	n := t.node
	if t.remain > 0 {
		if n.readyQ.size() > 0 {
			// Preempt: someone is waiting and the quantum is used up.
			s.releaseCPU(t, ReasonQuantum)
			t.state = StateReady
			n.readyQ.push(t)
			s.schedule(n)
		} else {
			s.startSlice(t)
		}
		return
	}
	// Compute finished; let the thread continue on its CPU.
	s.runnables.push(t)
}

func (s *Sim) releaseCPU(t *Thread, reason UndispatchReason) {
	if t.cpu < 0 {
		return
	}
	cpu := t.cpu
	t.node.cpus[cpu] = nil
	t.node.busy--
	t.cpu = -1
	t.lastCPU = cpu
	s.listener.OnUndispatch(t.node.id, t.ID, cpu, reason, s.now)
}

// schedule asks the policy to assign ready threads to free dispatch
// slots on a node until it declines or the ready queue drains.
func (s *Sim) schedule(n *node) {
	for n.readyQ.size() > 0 {
		ri, slot, ok := s.policy.Pick(NodeView{n})
		if !ok {
			return
		}
		if ri < 0 || ri >= n.readyQ.size() || slot < 0 || slot >= len(n.cpus) || n.cpus[slot] != nil {
			panic(fmt.Sprintf("sched: policy %s picked ready %d / slot %d (ready %d, slots %d)",
				s.policy.Name(), ri, slot, n.readyQ.size(), len(n.cpus)))
		}
		t := n.readyQ.take(ri)
		n.cpus[slot] = t
		n.busy++
		t.cpu = slot
		t.state = StateRunning
		s.listener.OnDispatch(n.id, t.ID, slot, s.now)
		if t.remain > 0 {
			// Mid-compute: resume the burst without resuming the thread.
			s.startSlice(t)
		} else {
			// The thread is waiting inside a primitive (or has never
			// run); give it control.
			s.runnables.push(t)
		}
	}
}

// --- Thread-side primitives (called from the thread's own fn only) ---

// Node returns the node id the thread runs on.
func (t *Thread) Node() int { return t.node.id }

// Now returns the current virtual time.
func (t *Thread) Now() clock.Time { return t.sim.now }

// Sim returns the simulator that owns the thread.
func (t *Thread) Sim() *Sim { return t.sim }

// CPU returns the CPU currently held, or -1.
func (t *Thread) CPU() int { return t.cpu }

// Compute consumes d of CPU time, competing with the node's other
// threads for processors; the call returns once d has been executed.
// Zero or negative durations return immediately.
func (t *Thread) Compute(d clock.Time) {
	if d <= 0 {
		return
	}
	t.remain = d
	t.yield(yieldCompute)
}

// Block releases the CPU and suspends the thread until Unblock.
func (t *Thread) Block() {
	t.yield(yieldBlock)
}

// Unblock makes a blocked thread runnable again. It may be called from a
// simulator event or from another thread. Unblocking a non-blocked
// thread panics: it indicates a lost-wakeup bug in the caller.
func (s *Sim) Unblock(t *Thread) {
	if t.state != StateBlocked {
		panic(fmt.Sprintf("sched: Unblock of thread %d/%d in state %d", t.node.id, t.ID, t.state))
	}
	t.state = StateReady
	t.node.readyQ.push(t)
	s.schedule(t.node)
}

// Sleep suspends the thread for d of virtual time without consuming CPU.
func (t *Thread) Sleep(d clock.Time) {
	s := t.sim
	s.push(s.now+d, event{kind: evUnblock, t: t})
	t.Block()
}

// yield switches to Run and returns when Run resumes the thread; if Run
// stopped it instead, the thread unwinds from here.
func (t *Thread) yield(kind yieldKind) {
	if !t.yieldTo(kind) {
		panic(stopped{})
	}
}
