package interval

import (
	"slices"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/profile"
)

// OpenStates reconstructs, from an end-time-ordered record stream, which
// states are open on every thread — what a frame must be told at its
// start so that a reader jumping into the middle of a file can draw the
// enclosing states (§3.3). The merge's frame prologue (and so live
// ingest) and the SLOG build's frame opener both plant their
// pseudo-intervals from it.
//
// Open stacks live in a dense table parallel to keys, which starts as a
// header's sorted thread table, so a frame start is one in-order walk
// with nothing to collect or sort.
type OpenStates struct {
	keys    []uint32   // ascending node<<16|thread per slot
	open    [][]Record // per slot, innermost last
	scratch []Record   // the last Pseudos result, reused
}

// NewOpenStates seeds the table from a header's thread table, sorted by
// (node, thread) as UnionHeader leaves it; entries out of that order are
// left to Observe, which inserts a thread in key order when it first
// opens a state.
func NewOpenStates(threads []ThreadEntry) *OpenStates {
	t := &OpenStates{keys: make([]uint32, 0, len(threads))}
	for _, te := range threads {
		if k := threadKey(te.Node, te.LTID); len(t.keys) == 0 || k > t.keys[len(t.keys)-1] {
			t.keys = append(t.keys, k)
		}
	}
	t.open = make([][]Record, len(t.keys))
	return t
}

func threadKey(node, thread uint16) uint32 { return uint32(node)<<16 | uint32(thread) }

// Observe accounts one record of the stream: a Begin opens a state — the
// tracker keeps its own copy, so r may alias a batch or a buffer its
// producer reuses — and an End closes the innermost open state of its
// type on its thread. Clock records and every other piece are ignored.
// A closed state's slot stays past the end of its stack with its Extra
// and Vec storage, for the next Begin on the thread to copy into.
func (t *OpenStates) Observe(r *Record) {
	if !(&Key{Type: r.Type, Bebits: r.Bebits}).MovesOpenStates() {
		return
	}
	k := threadKey(r.Node, r.Thread)
	s, listed := slices.BinarySearch(t.keys, k)
	if r.Bebits == profile.Begin {
		if !listed {
			t.keys = slices.Insert(t.keys, s, k)
			t.open = slices.Insert(t.open, s, nil)
		}
		stack := t.open[s]
		if len(stack) < cap(stack) {
			stack = stack[:len(stack)+1]
		} else {
			stack = append(stack, Record{})
		}
		r.CopyInto(&stack[len(stack)-1])
		t.open[s] = stack
		return
	}
	if !listed {
		return
	}
	stack := t.open[s]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].Type == r.Type {
			closed := stack[i]
			copy(stack[i:], stack[i+1:])
			stack[len(stack)-1] = closed
			t.open[s] = stack[:len(stack)-1]
			return
		}
	}
}

// MovesOpenStates reports whether rows with key k open or close a state
// (Begin and End pieces of anything but a clock record): the test
// Observe makes of every record. A caller walking a batch resolves it
// once per dictionary entry and copies out and observes only the rows
// whose entry says so.
func (k *Key) MovesOpenStates() bool {
	return k.Type != events.EvGlobalClock && (k.Bebits == profile.Begin || k.Bebits == profile.End)
}

// Pseudos returns a zero-duration continuation record stamped at for
// every open state, ordered (node, thread, outer→inner). The slice is
// reused by the next call.
func (t *OpenStates) Pseudos(at clock.Time) []Record {
	out := t.scratch[:0]
	for _, stack := range t.open {
		for i := range stack {
			pr := stack[i]
			pr.Bebits, pr.Start, pr.Dura = profile.Continuation, at, 0
			out = append(out, pr)
		}
	}
	t.scratch = out
	return out
}
