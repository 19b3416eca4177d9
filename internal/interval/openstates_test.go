package interval

import (
	"fmt"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/profile"
)

// TestOpenStates pins the open-state tracker the merge's frame prologue
// and the SLOG build's frame opener share. Each case feeds a record
// stream and lists the pseudo-intervals a frame starting afterwards must
// carry, in order, as "node.thread:type#n" — n is the CPU field of the
// Begin, which tells nested states of one type apart.
func TestOpenStates(t *testing.T) {
	const (
		send = events.EvMPISend
		recv = events.EvMPIRecv
		mark = events.EvMarkerState
	)
	names := map[events.Type]string{send: "send", recv: "recv", mark: "mark"}
	begin := func(typ events.Type, node, thread, n uint16) Record {
		return Record{Type: typ, Bebits: profile.Begin, Node: node, Thread: thread, CPU: n, Start: 10 * clock.Time(n), Dura: 5}
	}
	end := func(typ events.Type, node, thread uint16) Record {
		return Record{Type: typ, Bebits: profile.End, Node: node, Thread: thread, Start: 90, Dura: 5}
	}
	listed := []ThreadEntry{{Node: 0, LTID: 0}, {Node: 0, LTID: 2}, {Node: 2, LTID: 0}}

	for _, tc := range []struct {
		name    string
		threads []ThreadEntry
		stream  []Record
		want    []string
	}{
		{name: "complete and continuation pieces open nothing", threads: listed,
			stream: []Record{{Type: send, Bebits: profile.Complete}, {Type: send, Bebits: profile.Continuation, Thread: 2}}},
		{name: "order is node, thread, then outer to inner", threads: listed,
			stream: []Record{begin(mark, 2, 0, 1), begin(send, 0, 2, 2), begin(mark, 0, 0, 3), begin(recv, 0, 2, 4), begin(send, 0, 0, 5)},
			want:   []string{"0.0:mark#3", "0.0:send#5", "0.2:send#2", "0.2:recv#4", "2.0:mark#1"}},
		{name: "an unlisted thread is inserted in key order", threads: listed,
			stream: []Record{begin(send, 2, 0, 1), begin(send, 1, 7, 2), begin(send, 0, 1, 3), begin(send, 3, 0, 4), begin(send, 0, 0, 5)},
			want:   []string{"0.0:send#5", "0.1:send#3", "1.7:send#2", "2.0:send#1", "3.0:send#4"}},
		{name: "no thread table at all",
			stream: []Record{begin(send, 1, 0, 1), begin(send, 0, 1, 2)},
			want:   []string{"0.1:send#2", "1.0:send#1"}},
		{name: "an unsorted or repeated table entry is left to Observe",
			threads: []ThreadEntry{{Node: 1, LTID: 0}, {Node: 0, LTID: 0}, {Node: 1, LTID: 0}},
			stream:  []Record{begin(send, 1, 0, 1), begin(send, 0, 0, 2)},
			want:    []string{"0.0:send#2", "1.0:send#1"}},
		{name: "an End with no matching Begin is a no-op", threads: listed,
			stream: []Record{end(send, 0, 0), end(send, 5, 5), begin(mark, 0, 0, 1), end(send, 0, 0), end(mark, 0, 2)},
			want:   []string{"0.0:mark#1"}},
		{name: "an End pops the innermost state of its type", threads: listed,
			stream: []Record{begin(send, 0, 0, 1), begin(mark, 0, 0, 2), begin(send, 0, 0, 3), begin(recv, 0, 0, 4), end(send, 0, 0)},
			want:   []string{"0.0:send#1", "0.0:mark#2", "0.0:recv#4"}},
		{name: "nested same-type Begins close innermost first", threads: listed,
			stream: []Record{begin(mark, 0, 0, 1), begin(mark, 0, 0, 2), begin(mark, 0, 0, 3), end(mark, 0, 0), begin(mark, 0, 0, 4), end(mark, 0, 0)},
			want:   []string{"0.0:mark#1", "0.0:mark#2"}},
		{name: "clock records are not states", threads: listed,
			stream: []Record{begin(events.EvGlobalClock, 0, 0, 1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trk := NewOpenStates(tc.threads)
			for i := range tc.stream {
				trk.Observe(&tc.stream[i])
			}
			// Two frame starts in a row: the second must neither see the
			// first's stamps nor lose a state.
			for _, at := range []clock.Time{1000, 2000} {
				var got []string
				for _, p := range trk.Pseudos(at) {
					if p.Bebits != profile.Continuation || p.Start != at || p.Dura != 0 {
						t.Fatalf("%+v is not a zero-duration continuation at %d", p, at)
					}
					got = append(got, fmt.Sprintf("%d.%d:%s#%d", p.Node, p.Thread, names[p.Type], p.CPU))
				}
				if fmt.Sprint(got) != fmt.Sprint(tc.want) {
					t.Fatalf("frame start at %d: %v, want %v", at, got, tc.want)
				}
			}
		})
	}
}

// TestOpenStatesRetainsItsOwnCopy: the producer of a Begin reuses the
// record's Extra and Vec (a batch's columns, the converter's scratch), so
// the tracker must not alias them.
func TestOpenStatesRetainsItsOwnCopy(t *testing.T) {
	trk := NewOpenStates(nil)
	r := Record{Type: events.EvMPIWaitall, Bebits: profile.Begin, Start: 7, Dura: 1,
		Extra: []uint64{1, 2, 3}, Vec: []uint64{4, 5, 6}}
	trk.Observe(&r)
	r.Extra[0], r.Vec[2], r.Start = 100, 100, 100
	r.Extra = append(r.Extra[:1], 9)

	ps := trk.Pseudos(50)
	if len(ps) != 1 {
		t.Fatalf("%d pseudo-intervals, want 1", len(ps))
	}
	want := Record{Type: events.EvMPIWaitall, Bebits: profile.Continuation, Start: 50,
		Extra: []uint64{1, 2, 3}, Vec: []uint64{4, 5, 6}}
	if !eqRecord(ps[0], want) {
		t.Fatalf("retained state %+v, want %+v: it aliases the caller's record", ps[0], want)
	}
}
