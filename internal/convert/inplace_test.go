package convert

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/mpisim"
	"tracefw/internal/profile"
	"tracefw/internal/trace"
)

// lifetimeWorkload exercises every way the converter lends out words it
// does not own for long: MPI exits (the raw record's args become the
// final piece's extras), Waitall (its trailing vector), markers split by
// nested calls (a state that knows its extras before it closes), blocked
// receives (zero-extras continuation pieces), I/O and page misses.
func lifetimeWorkload(t *testing.T) [][]byte {
	t.Helper()
	return runWorkload(t, 2, 2, 2, func(p *mpisim.Proc) {
		outer, inner := p.DefineMarker("outer"), p.DefineMarker("inner")
		peer := p.Rank() ^ 1
		p.InMarker(outer, func() {
			for i := 0; i < 6; i++ {
				p.Compute(clock.Millisecond)
				rs := []*mpisim.Request{p.Irecv(int32(peer), int32(i)), p.Isend(peer, int32(i), 512<<i)}
				p.InMarker(inner, func() { p.Waitall(rs...) })
				p.PageMiss(0x1000 * uint64(i+1))
			}
			p.FileRead(1 << 16)
			p.Allreduce(64)
		})
		p.Barrier()
	})
}

const poison = 0xdeadbeefdeadbeef

// TestPoisonedWordsConvertIdentically pins the record-lifetime contract
// from both sides: the raw record's Args are overwritten the moment
// event returns, and the emitted record's Extra and Vec backing the
// moment the sink returns (a sink copies what it keeps and may scribble
// on the rest). The files must not notice.
func TestPoisonedWordsConvertIdentically(t *testing.T) {
	raws := lifetimeWorkload(t)
	want := sequentialConvert(t, raws, Options{})
	markers := NewMarkerRegistry()
	vectors := 0
	for i, raw := range raws {
		pre, err := ScanPreamble(raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range pre.Defines {
			markers.ID(s)
		}
		sb := interval.NewSeekBuffer()
		w, err := interval.NewWriter(sb, interval.Header{
			ProfileVersion: profile.StdVersion,
			HeaderVersion:  interval.CurrentHeaderVersion,
			FieldMask:      profile.MaskIndividual,
			Threads:        pre.Threads,
			Markers:        markers.Table(),
		}, interval.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewStream(pre, markers, func(r *interval.Record) error {
			err := w.Add(r)
			vectors += len(r.Vec)
			for _, words := range [][]uint64{r.Extra, r.Vec} {
				for k := range words[:cap(words)] {
					words[:cap(words)][k] = poison
				}
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		rd, err := trace.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var rec trace.Record
		for {
			if err := rd.NextInto(&rec); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if err := st.Event(&rec); err != nil {
				t.Fatal(err)
			}
			for k := range rec.Args[:cap(rec.Args)] {
				rec.Args[:cap(rec.Args)][k] = poison
			}
		}
		if err := st.Finish(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb.Bytes(), want[i]) {
			t.Fatalf("node %d: poisoned conversion differs from Convert's file", i)
		}
	}
	if vectors == 0 {
		t.Fatal("workload emitted no vector field; the Vec lifetime went untested")
	}
}

// TestRecordPassAllocatesNothingPerEvent: what a record pass allocates
// is its tables, its few open states and the clock-pair list — not an
// object per event or per emitted piece.
func TestRecordPassAllocatesNothingPerEvent(t *testing.T) {
	raw := lifetimeWorkload(t)[0]
	pre, err := ScanPreamble(raw)
	if err != nil {
		t.Fatal(err)
	}
	markers := NewMarkerRegistry()
	for _, s := range pre.Defines {
		markers.ID(s)
	}
	rd, _ := trace.NewReader(bytes.NewReader(raw))
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		st, err := NewStream(pre, markers, func(*interval.Record) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			if err := st.Event(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Finish(); err != nil {
			t.Fatal(err)
		}
	})
	if perEvent := allocs / float64(len(recs)); len(recs) < 150 || perEvent > 0.25 {
		t.Fatalf("%.0f objects for %d events (%.2f per event)", allocs, len(recs), perEvent)
	}
}

// TestBatchDecoderSplitPoints feeds one stream cut at every point, and a
// byte at a time: whatever the batching, the same records come out, and
// Buffered and Finish report the partial record in between.
func TestBatchDecoderSplitPoints(t *testing.T) {
	for _, str := range []string{"", "a marker name"} {
		recs := []trace.Record{
			{Type: events.EvMPISend, Edge: events.Exit, TID: 1, Time: 10, Args: []uint64{1, 2, 3, 4, 5, 6}},
			{Type: events.EvMarkerDefine, Edge: events.Point, TID: 2, Time: 20, Args: []uint64{7}, Str: str},
			{Type: events.EvUndispatch, Edge: events.Point, TID: 3, Time: 30},
		}
		var img []byte
		var ends []int
		for i := range recs {
			img = recs[i].Encode(img)
			ends = append(ends, len(img))
		}
		decode := func(batches ...[]byte) (got []trace.Record) {
			var d BatchDecoder
			fed := 0
			for _, b := range batches {
				if err := d.Feed(b, func(r *trace.Record) error {
					cp := *r
					cp.Args = append([]uint64(nil), r.Args...)
					got = append(got, cp)
					return nil
				}); err != nil {
					t.Fatalf("str %q: feed: %v", str, err)
				}
				// Between batches exactly the bytes past the last whole
				// record are waiting.
				fed += len(b)
				whole := 0
				for _, e := range ends {
					if e <= fed {
						whole = e
					}
				}
				if d.Buffered() != fed-whole {
					t.Fatalf("str %q: %d bytes fed, %d buffered, want %d", str, fed, d.Buffered(), fed-whole)
				}
				if (d.Finish() != nil) != (fed != whole) {
					t.Fatalf("str %q: Finish after %d bytes: %v", str, fed, d.Finish())
				}
			}
			return got
		}
		for cut := 0; cut <= len(img); cut++ {
			if got := decode(img[:cut], img[cut:]); !reflect.DeepEqual(got, recs) {
				t.Fatalf("str %q: split at %d: %+v", str, cut, got)
			}
		}
		single := make([][]byte, len(img))
		for i := range img {
			single[i] = img[i : i+1]
		}
		if got := decode(single...); !reflect.DeepEqual(got, recs) {
			t.Fatalf("str %q: one-byte batches: %+v", str, got)
		}
	}
}

// TestBatchDecoderCopiesOnlyTheStraddler: with a partial record pending,
// a large batch is decoded where it lies; the remainder buffer never
// grows past one record.
func TestBatchDecoderCopiesOnlyTheStraddler(t *testing.T) {
	rec := trace.Record{Type: events.EvMPIRecv, Edge: events.Exit, TID: 1, Args: []uint64{1, 2, 3, 4, 5, 6}}
	var stream []byte
	for i := 0; i < 4000; i++ {
		rec.Time = clock.Time(i)
		stream = rec.Encode(stream)
	}
	var d BatchDecoder
	n := 0
	count := func(*trace.Record) error { n++; return nil }
	const batch = 64<<10 + 7
	for off := 0; off < len(stream); off += batch {
		if err := d.Feed(stream[off:min(off+batch, len(stream))], count); err != nil {
			t.Fatal(err)
		}
		if cap(d.rem) > 4*rec.EncodedSize() {
			t.Fatalf("remainder buffer grew to %d bytes for %d-byte records", cap(d.rem), rec.EncodedSize())
		}
	}
	if n != 4000 || d.Finish() != nil {
		t.Fatalf("%d records, finish %v", n, d.Finish())
	}
}

// TestScanTablesSkipsPayloads: the table pass reads the payload of
// thread-info and marker records only, with the arity errors it always
// had, and a record cut short still fails it.
func TestScanTablesSkipsPayloads(t *testing.T) {
	hdr := make([]byte, trace.RawHeaderSize)
	copy(hdr, "UTRAW1\x00\x00")
	image := func(recs ...trace.Record) []byte {
		img := append([]byte(nil), hdr...)
		for i := range recs {
			img = recs[i].Encode(img)
		}
		return img
	}
	info := trace.Record{Type: events.EvThreadInfo, TID: 0, Args: []uint64{100, 200, 0, uint64(events.ThreadMPI)}}
	tp, err := scanTables(bytes.NewReader(image(
		info,
		trace.Record{Type: events.EvMarkerDefine, TID: 0, Args: []uint64{5}, Str: "phase"},
		trace.Record{Type: events.EvMPISend, Edge: events.Entry, TID: 0, Time: 1},
		trace.Record{Type: events.EvMarkerBegin, TID: 0, Time: 2, Args: []uint64{9, 0}},
		trace.Record{Type: events.EvDispatch, TID: 4, Time: 3, Args: []uint64{1}},
	)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.threads) != 2 || tp.threads[0].PID != 100 || tp.threads[1].LTID != 4 || tp.threads[1].Task != -1 {
		t.Fatalf("thread table %+v", tp.threads)
	}
	if !reflect.DeepEqual(tp.defines, []string{"phase"}) || !reflect.DeepEqual(tp.placeholders, []string{"marker#0:9"}) {
		t.Fatalf("defines %v placeholders %v", tp.defines, tp.placeholders)
	}
	for want, rec := range map[string]trace.Record{
		"thread-info record with 3 args (want 4)": {Type: events.EvThreadInfo, Args: []uint64{1, 2, 3}},
		"marker-define record with no args":       {Type: events.EvMarkerDefine, Str: "x"},
		"marker-begin record with no args":        {Type: events.EvMarkerBegin},
	} {
		if _, err := scanTables(bytes.NewReader(image(info, rec))); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("want %q, got %v", want, err)
		}
	}
	img := image(info, trace.Record{Type: events.EvMPISend, Edge: events.Exit, Args: []uint64{1, 2, 3, 4, 5, 6}})
	for _, cut := range []int{3, 20, 60} {
		_, err := scanTables(bytes.NewReader(img[:len(img)-cut]))
		if err == nil || !strings.Contains(err.Error(), "unexpected EOF") {
			t.Fatalf("image cut %d bytes short: %v", cut, fmt.Sprint(err))
		}
	}
}
