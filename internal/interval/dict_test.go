package interval

import (
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/profile"
	"tracefw/internal/xrand"
)

// TestV4DictionaryProbeTable drives the encoder's probe table through a
// frame as wide as the 216×4 sweep cell's — several hundred dictionary
// entries, so the table doubles a few times mid-frame — and then through
// a narrow frame on the same scratch: entries stay unique and in
// first-appearance order (which is what fixes every encoded byte), rows
// survive the round trip, and nothing of one frame leaks into the next.
func TestV4DictionaryProbeTable(t *testing.T) {
	rng := xrand.New(216)
	types := []events.Type{events.EvRunning, events.EvMPISend, events.EvMPIRecv, events.EvMPIWaitall, events.EvMarkerState}
	wide := func(n int) []Record {
		recs := make([]Record, n)
		for i := range recs {
			ty := types[rng.Intn(len(types))]
			recs[i] = Record{
				Type: ty, Bebits: profile.Bebits(rng.Intn(4)),
				Start: clock.Time(1000 + i), Dura: clock.Time(rng.Intn(50)),
				CPU: uint16(rng.Intn(4)), Node: uint16(rng.Intn(216)), Thread: uint16(rng.Intn(4)),
				Extra: make([]uint64, len(events.ExtraFields(ty))),
			}
		}
		return recs
	}
	var st v4EncState
	for _, recs := range [][]Record{wide(6000), wide(40), wide(3000)} {
		var in, out Batch
		in.reset()
		var order []dictEntry
		seen := map[dictEntry]bool{}
		for i := range recs {
			in.push(&recs[i])
			key := dictEntry{recs[i].Type, recs[i].Bebits, recs[i].CPU, recs[i].Node, recs[i].Thread, len(recs[i].Extra)}
			if !seen[key] {
				seen[key] = true
				order = append(order, key)
			}
		}
		out.reset()
		if err := out.decodeV4(in.appendV4(nil, &st)); err != nil {
			t.Fatal(err)
		}
		if len(out.dict) != len(order) {
			t.Fatalf("%d rows: dictionary of %d entries, want %d distinct", len(recs), len(out.dict), len(order))
		}
		for i := range order {
			if out.dict[i] != order[i] {
				t.Fatalf("%d rows: dictionary entry %d is %+v, first appearance says %+v", len(recs), i, out.dict[i], order[i])
			}
		}
		if out.N != len(recs) {
			t.Fatalf("decoded %d rows of %d", out.N, len(recs))
		}
		for i := range recs {
			if !eqRecord(out.Row(i), recs[i]) {
				t.Fatalf("row %d: %+v, want %+v", i, out.Row(i), recs[i])
			}
		}
		if 2*len(st.dict) > len(st.slots) || len(st.slots)&(len(st.slots)-1) != 0 {
			t.Fatalf("%d entries in a table of %d slots", len(st.dict), len(st.slots))
		}
	}
	if len(st.slots) < 1024 {
		t.Fatalf("the wide frames never grew the table (%d slots)", len(st.slots))
	}
	// Steady state: a frame no wider than the last allocates nothing.
	var in Batch
	in.reset()
	recs := wide(3000)
	for i := range recs {
		in.push(&recs[i])
	}
	buf := in.appendV4(nil, &st)
	if avg := testing.AllocsPerRun(20, func() { buf = in.appendV4(buf[:0], &st) }); avg != 0 {
		t.Fatalf("encoding on warm scratch allocates %.1f objects", avg)
	}
}
