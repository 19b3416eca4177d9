package sched

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tracefw/internal/clock"
)

// Policy is the dispatch decision — which ready thread is placed on
// which free dispatch slot — extracted from the scheduler loop so that
// scenario sweeps can compare competing schedulers on one machine
// model. A policy also fixes the machine's slot geometry: most expose
// one dispatch slot per physical CPU, but an oversubscribing policy
// exposes more and pays for it with dilated compute slices.
//
// Implementations must be deterministic pure functions of the node
// view: the simulator calls Pick in a loop until it returns ok=false or
// the ready queue drains, and byte-identical traces across runs depend
// on Pick never consulting anything but its arguments.
type Policy interface {
	// Name returns the registry name the CLI selects the policy by.
	Name() string
	// Slots returns how many dispatch slots a node with phys physical
	// CPUs exposes (>= 1). Slot indices are the CPU numbers recorded in
	// dispatch trace records.
	Slots(phys int) int
	// Stretch returns the wall-clock dilation factor of a compute slice
	// that starts while busy slots (including the slice's own) are
	// occupied on a node with phys physical CPUs. Policies that never
	// oversubscribe return 1.
	Stretch(busy, phys int) int64
	// Pick selects the next dispatch: an index into the node's ready
	// queue (0 is the oldest ready thread) and a free slot. Returning
	// ok=false stops dispatching until the node's state changes.
	Pick(n NodeView) (readyIdx, slot int, ok bool)
}

// NodeView is the read-only window a Policy gets on one SMP node.
// It is a value wrapper; methods never allocate.
type NodeView struct{ n *node }

// ID returns the node id.
func (v NodeView) ID() int { return v.n.id }

// Slots returns the node's dispatch-slot count.
func (v NodeView) Slots() int { return len(v.n.cpus) }

// SlotFree reports whether dispatch slot i is unoccupied.
func (v NodeView) SlotFree(i int) bool { return v.n.cpus[i] == nil }

// LowestFreeSlot returns the lowest-numbered free slot, or -1.
func (v NodeView) LowestFreeSlot() int {
	for i, occ := range v.n.cpus {
		if occ == nil {
			return i
		}
	}
	return -1
}

// ReadyLen returns the number of ready threads queued on the node.
func (v NodeView) ReadyLen() int { return v.n.readyQ.size() }

// Ready describes the i-th ready thread (0 = oldest).
func (v NodeView) Ready(i int) ThreadView {
	t := v.n.readyQ.at(i)
	return ThreadView{ID: t.ID, LastCPU: t.lastCPU, Remain: t.remain}
}

// ThreadView is the policy-visible state of one ready thread.
type ThreadView struct {
	// ID is the node-local logical thread id.
	ID int32
	// LastCPU is the slot the thread last ran on, -1 if never dispatched.
	LastCPU int
	// Remain is the unfinished portion of the thread's current compute
	// burst; zero for a thread waiting inside a non-compute primitive.
	Remain clock.Time
}

// --- fifo (the historical default) -------------------------------------

// fifoPolicy dispatches the oldest ready thread onto a CPU chosen by the
// affinity knob — exactly the scheduler's historical hard-coded loop.
type fifoPolicy struct{ affinity Affinity }

// FIFO returns the default policy: oldest ready thread first, CPU chosen
// by the affinity rule (PreferLast re-dispatches on the previous CPU
// when free; LowestFree always takes the lowest-numbered idle CPU).
func FIFO(aff Affinity) Policy { return fifoPolicy{affinity: aff} }

func (p fifoPolicy) Name() string           { return "fifo" }
func (p fifoPolicy) Slots(phys int) int     { return phys }
func (p fifoPolicy) Stretch(_, _ int) int64 { return 1 }
func (p fifoPolicy) Pick(n NodeView) (int, int, bool) {
	if n.ReadyLen() == 0 {
		return 0, 0, false
	}
	slot := affinitySlot(n, n.Ready(0), p.affinity)
	if slot < 0 {
		return 0, 0, false
	}
	return 0, slot, true
}

// affinitySlot applies the affinity rule for one candidate thread.
func affinitySlot(n NodeView, t ThreadView, aff Affinity) int {
	if aff == AffinityPreferLast && t.LastCPU >= 0 && t.LastCPU < n.Slots() && n.SlotFree(t.LastCPU) {
		return t.LastCPU
	}
	return n.LowestFreeSlot()
}

// --- bestfit / worstfit ------------------------------------------------

// fitPolicy dispatches by remaining compute-burst length: bestfit takes
// the thread with the least remaining work (it "fits best" into a
// scheduler quantum, draining short work first), worstfit the one with
// the most (longest job first). Ties break toward the oldest ready
// thread, and the CPU is always the lowest-numbered free one, so both
// policies are deterministic.
type fitPolicy struct {
	name  string
	worst bool
}

// BestFit returns the shortest-remaining-burst-first policy.
func BestFit() Policy { return fitPolicy{name: "bestfit"} }

// WorstFit returns the longest-remaining-burst-first policy.
func WorstFit() Policy { return fitPolicy{name: "worstfit", worst: true} }

func (p fitPolicy) Name() string           { return p.name }
func (p fitPolicy) Slots(phys int) int     { return phys }
func (p fitPolicy) Stretch(_, _ int) int64 { return 1 }
func (p fitPolicy) Pick(n NodeView) (int, int, bool) {
	r := n.ReadyLen()
	if r == 0 {
		return 0, 0, false
	}
	slot := n.LowestFreeSlot()
	if slot < 0 {
		return 0, 0, false
	}
	best := 0
	bestRemain := n.Ready(0).Remain
	for i := 1; i < r; i++ {
		rem := n.Ready(i).Remain
		if (p.worst && rem > bestRemain) || (!p.worst && rem < bestRemain) {
			best, bestRemain = i, rem
		}
	}
	return best, slot, true
}

// --- oversub -----------------------------------------------------------

// oversubPolicy admits Factor× more threads than physical CPUs by
// exposing Factor×phys dispatch slots; a compute slice started while
// more slots are busy than there are physical CPUs runs proportionally
// slower (wall time = CPU time × ceil(busy/phys)). Dispatch order is
// FIFO with last-CPU affinity, like the default. The model is the
// k8s-style oversubscription trade: less queueing, degraded per-thread
// speed under load.
type oversubPolicy struct{ factor int }

// Oversub returns the oversubscribing policy with the given slot
// multiplier (values < 2 are raised to 2: a factor of 1 is plain FIFO).
func Oversub(factor int) Policy {
	if factor < 2 {
		factor = 2
	}
	return oversubPolicy{factor: factor}
}

func (p oversubPolicy) Name() string {
	if p.factor == 2 {
		return "oversub"
	}
	return fmt.Sprintf("oversub:%d", p.factor)
}
func (p oversubPolicy) Slots(phys int) int { return phys * p.factor }
func (p oversubPolicy) Stretch(busy, phys int) int64 {
	if phys <= 0 || busy <= phys {
		return 1
	}
	return int64((busy + phys - 1) / phys)
}
func (p oversubPolicy) Pick(n NodeView) (int, int, bool) {
	if n.ReadyLen() == 0 {
		return 0, 0, false
	}
	slot := affinitySlot(n, n.Ready(0), AffinityPreferLast)
	if slot < 0 {
		return 0, 0, false
	}
	return 0, slot, true
}

// --- registry ----------------------------------------------------------

// policyDocs is the CLI-facing registry of selectable policies.
var policyDocs = map[string]string{
	"fifo":     "oldest ready thread first, last-CPU affinity (the default)",
	"bestfit":  "shortest remaining compute burst first, lowest free CPU",
	"worstfit": "longest remaining compute burst first, lowest free CPU",
	"oversub":  "FIFO over factor× dispatch slots; contended slices dilate (oversub:N sets the factor, default 2)",
}

// PolicyNames returns the selectable policy names, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(policyDocs))
	for n := range policyDocs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PolicyDoc returns the one-line description of a registered policy.
func PolicyDoc(name string) string { return policyDocs[name] }

// ParsePolicy resolves a CLI policy name. The empty string selects the
// default. "oversub:N" sets the slot multiplier.
func ParsePolicy(s string) (Policy, error) {
	name, arg, hasArg := strings.Cut(s, ":")
	switch name {
	case "", "fifo":
		if hasArg {
			return nil, fmt.Errorf("sched: policy %q takes no argument", name)
		}
		return FIFO(AffinityPreferLast), nil
	case "bestfit":
		if hasArg {
			return nil, fmt.Errorf("sched: policy %q takes no argument", name)
		}
		return BestFit(), nil
	case "worstfit":
		if hasArg {
			return nil, fmt.Errorf("sched: policy %q takes no argument", name)
		}
		return WorstFit(), nil
	case "oversub":
		factor := 2
		if hasArg {
			v, err := strconv.Atoi(arg)
			if err != nil || v < 2 || v > 64 {
				return nil, fmt.Errorf("sched: oversub factor %q must be an integer in [2,64]", arg)
			}
			factor = v
		}
		return Oversub(factor), nil
	}
	return nil, fmt.Errorf("sched: unknown policy %q (have %s)", s, strings.Join(PolicyNames(), ", "))
}
