package interval

import (
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/profile"
	"tracefw/internal/xrand"
)

// TestV4DictionaryProbeTable drives the batch's probe table through a
// frame as wide as the 216×4 sweep cell's — several hundred dictionary
// entries, so the table doubles a few times mid-frame — and then through
// a narrow frame on the same batch: entries stay unique and in
// first-appearance order (which is what fixes every encoded byte), the
// encoder writes them as they stand, rows survive the round trip, and
// nothing of one frame leaks into the next.
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
	var in Batch
	for _, recs := range [][]Record{wide(6000), wide(40), wide(3000)} {
		var out Batch
		in.reset()
		var order []Key
		seen := map[Key]bool{}
		for i := range recs {
			in.push(&recs[i])
			key := Key{recs[i].Type, recs[i].Bebits, recs[i].CPU, recs[i].Node, recs[i].Thread, uint16(len(recs[i].Extra)), events.VectorField(recs[i].Type) != ""}
			if !seen[key] {
				seen[key] = true
				order = append(order, key)
			}
		}
		out.reset()
		if err := out.decodeV4(in.appendV4(nil)); err != nil {
			t.Fatal(err)
		}
		for name, dict := range map[string][]Key{"pushed": in.Dict, "decoded": out.Dict} {
			if len(dict) != len(order) {
				t.Fatalf("%d rows: %s dictionary of %d entries, want %d distinct", len(recs), name, len(dict), len(order))
			}
			for i := range order {
				if dict[i] != order[i] {
					t.Fatalf("%d rows: %s dictionary entry %d is %+v, first appearance says %+v", len(recs), name, i, dict[i], order[i])
				}
			}
		}
		if out.N != len(recs) {
			t.Fatalf("decoded %d rows of %d", out.N, len(recs))
		}
		for i := range recs {
			if !eqRecord(out.Row(i), recs[i]) {
				t.Fatalf("row %d: %+v, want %+v", i, out.Row(i), recs[i])
			}
			if out.Code[i] != in.Code[i] {
				t.Fatalf("row %d: decoded code %d, pushed %d", i, out.Code[i], in.Code[i])
			}
		}
		if 2*len(in.Dict) > len(in.slots) || len(in.slots)&(len(in.slots)-1) != 0 {
			t.Fatalf("%d entries in a table of %d slots", len(in.Dict), len(in.slots))
		}
	}
	if len(in.slots) < 1024 {
		t.Fatalf("the wide frames never grew the table (%d slots)", len(in.slots))
	}
	// Steady state: a frame no wider than the last interns and encodes
	// without allocating.
	recs := wide(3000)
	fill := func() {
		in.reset()
		for i := range recs {
			in.push(&recs[i])
		}
	}
	fill()
	buf := in.appendV4(nil)
	if avg := testing.AllocsPerRun(20, func() { fill(); buf = in.appendV4(buf[:0]) }); avg != 0 {
		t.Fatalf("interning and encoding on a warm batch allocate %.1f objects", avg)
	}
}

// RepeatDictionary rewrites a v4 file so that every frame's dictionary
// stores each entry twice, the copies after the originals, and every
// other row is coded to the copy: frames the writer never makes, holding
// the same rows. Header, frame boundaries, time bounds and directory
// shape stay the twin's.
func RepeatDictionary(t testing.TB, data []byte) []byte {
	t.Helper()
	f, err := NewFile(NewSeekBufferFrom(data))
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := f.Dirs()
	if err != nil {
		t.Fatal(err)
	}
	sb := NewSeekBuffer()
	w, err := NewWriter(sb, f.Header, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for di, dir := range dirs {
		for _, fe := range dir.Entries {
			b, err := f.ReadFrameBatch(fe)
			if err != nil {
				t.Fatal(err)
			}
			nd := uint32(len(b.Dict))
			b.Dict = append(b.Dict, b.Dict...)
			for i := 1; i < b.N; i += 2 {
				b.Code[i] += nd
			}
			w.fb.reset()
			*w.fb = *b
			w.frameMeta = frameEntry{records: uint32(b.N), start: fe.Start, end: fe.End}
			w.closeFrame()
		}
		if di < len(dirs)-1 {
			if err := w.flushGroup(false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sb.Bytes()
}

// MixedTrace is writeMixedFile's bytes: 2 000 records of four types,
// vectors among them, in small frames.
func MixedTrace(t *testing.T) []byte {
	sb, _ := writeMixedFile(t, 41, 2000, CurrentHeaderVersion)
	return sb.Bytes()
}

// TestRepeatDictionary: the rewritten file repeats entries in every
// frame and reads as its twin, row for row and directory for directory.
func TestRepeatDictionary(t *testing.T) {
	sb, recs := writeMixedFile(t, 41, 600, CurrentHeaderVersion)
	twin, err := NewFile(NewSeekBufferFrom(sb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewFile(NewSeekBufferFrom(RepeatDictionary(t, sb.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Validate(nil); err != nil {
		t.Fatal(err)
	}
	tf, _ := twin.Frames()
	rf, err := rep.Frames()
	if err != nil || len(rf) != len(tf) || len(rf) < 4 {
		t.Fatalf("%d frames (%v), twin %d", len(rf), err, len(tf))
	}
	for i := range rf {
		a, _ := twin.ReadFrameBatch(tf[i])
		b, err := rep.ReadFrameBatch(rf[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Dict) != 2*len(a.Dict) || rf[i].Start != tf[i].Start || rf[i].End != tf[i].End {
			t.Fatalf("frame %d: %d entries (twin %d), bounds [%d %d] (twin [%d %d])", i, len(b.Dict), len(a.Dict), rf[i].Start, rf[i].End, tf[i].Start, tf[i].End)
		}
	}
	got, err := rep.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !eqRecord(got[i], recs[i]) {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], recs[i])
		}
	}
}
