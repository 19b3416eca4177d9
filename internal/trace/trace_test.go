package trace

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"tracefw/internal/clock"
	"tracefw/internal/events"
)

func TestRecordEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Record{
		{Type: events.EvDispatch, TID: 3, Time: 12345, Args: []uint64{2}},
		{Type: events.EvMPISend, Edge: events.Entry, TID: 0, Time: -1, Args: []uint64{1, 99, 4096, 7, 0, 0xdead}},
		{Type: events.EvMPISend, Edge: events.Exit, TID: 511, Time: 1 << 60},
		{Type: events.EvMarkerDefine, TID: 5, Time: 42, Args: []uint64{17}, Str: "Initial Phase"},
		{Type: events.EvGlobalClock, TID: 1, Time: 1000, Args: []uint64{999}},
	}
	for i, want := range cases {
		b := want.Encode(nil)
		if len(b) != want.EncodedSize() {
			t.Fatalf("case %d: encoded %d bytes, EncodedSize says %d", i, len(b), want.EncodedSize())
		}
		got, n, err := Decode(b)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if n != len(b) {
			t.Fatalf("case %d: consumed %d of %d bytes", i, n, len(b))
		}
		if got.Type != want.Type || got.Edge != want.Edge || got.TID != want.TID ||
			got.Time != want.Time || got.Str != want.Str || !reflect.DeepEqual(got.Args, want.Args) {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	r := Record{Type: events.EvMPIRecv, Edge: events.Entry, Args: []uint64{1, 2, 3}}
	b := r.Encode(nil)
	for cut := 1; cut < len(b); cut++ {
		if _, _, err := Decode(b[:cut]); err == nil {
			t.Fatalf("decoding %d/%d bytes did not fail", cut, len(b))
		}
	}
}

func TestDecodeConsecutive(t *testing.T) {
	var b []byte
	want := []Record{
		{Type: events.EvDispatch, TID: 1, Time: 10, Args: []uint64{0}},
		{Type: events.EvMarkerBegin, TID: 1, Time: 20, Args: []uint64{3, 0x1234}},
		{Type: events.EvUndispatch, TID: 1, Time: 30, Args: []uint64{0, 1}},
	}
	for i := range want {
		b = want[i].Encode(b)
	}
	off := 0
	for i := range want {
		got, n, err := Decode(b[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		off += n
		if got.Type != want[i].Type || got.Time != want[i].Time {
			t.Fatalf("record %d mismatch: %+v", i, got)
		}
	}
	if off != len(b) {
		t.Fatalf("leftover bytes: %d", len(b)-off)
	}
}

// TestQuickEncodeDecode holds Encode to its contract over the whole
// legal range of a record — 0…maxArgs args; empty, 1-byte, 65 535-byte
// and in-between strings: the bytes decode back to the record, there
// are exactly EncodedSize of them, they land after whatever dst already
// held (in place when dst has the room, the encoder indexes into the
// reserved space rather than appending), and the two impossible records
// still panic.
func TestQuickEncodeDecode(t *testing.T) {
	f := func(ty uint16, edge uint8, tid int32, tm int64, nargs, slen uint16, pick uint8, fill uint64) bool {
		na := int(nargs) % (maxArgs + 1)
		switch pick % 4 {
		case 0:
			na = 0
		case 1:
			na = maxArgs
		}
		sl := int(slen)
		switch pick / 4 % 4 {
		case 0:
			sl = 0
		case 1:
			sl = 1
		case 2:
			sl = 0xffff
		}
		args := make([]uint64, na)
		for i := range args {
			args[i] = fill + uint64(i)*0x9e3779b97f4a7c15
		}
		str := make([]byte, sl)
		for i := range str {
			str[i] = byte(fill>>(i%8*8)) + byte(i)
		}
		r := Record{
			Type: events.Type(ty), Edge: events.Edge(edge % 3), TID: tid,
			Time: clock.Time(tm), Args: args, Str: string(str),
		}
		b := r.Encode(nil)
		if len(b) != r.EncodedSize() {
			return false
		}
		got, n, err := Decode(b)
		if err != nil || n != len(b) {
			return false
		}
		if len(got.Args) != len(args) {
			return false
		}
		for i := range args {
			if got.Args[i] != args[i] {
				return false
			}
		}
		if got.Type != r.Type || got.Edge != r.Edge || got.TID != r.TID ||
			got.Time != r.Time || got.Str != r.Str {
			return false
		}
		// Onto a non-empty dst, with and without room to spare.
		prefix := []byte{0xa5, 0x5a, 0xa5, 0x5a, 0xa5, 0x5a, 0xa5}
		for _, spare := range []int{0, len(b) + 3} {
			dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
			out := r.Encode(dst)
			if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], b) {
				return false
			}
			if spare > 0 && &out[0] != &dst[0] {
				return false // had the room, reallocated anyway
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]Record{
		"too many args":    {Args: make([]uint64, maxArgs+1)},
		"oversized string": {Str: string(make([]byte, 0x10000))},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Encode of a record with %s did not panic", name)
				}
			}()
			r.Encode(nil)
		}()
	}
}

func TestFacilityWriteRead(t *testing.T) {
	var buf bytes.Buffer
	f, err := NewFacility(Options{Enabled: events.MaskAll}, 2, 8, &buf)
	if err != nil {
		t.Fatal(err)
	}
	f.CutDispatch(0, 100, 3)
	f.CutThreadInfo(0, 100, 1234, 5678, 2, events.ThreadMPI)
	f.CutGlobalClock(1, 200, 195)
	f.CutUndispatch(0, 300, 3, events.UndispatchBlock)
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}

	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Info.Node != 2 || rd.Info.NumCPUs != 8 || rd.Info.Enabled != events.MaskAll {
		t.Fatalf("header mismatch: %+v", rd.Info)
	}
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("read %d records, want 4", len(recs))
	}
	if recs[0].Type != events.EvDispatch || recs[0].Args[0] != 3 {
		t.Fatalf("record 0: %+v", recs[0])
	}
	if recs[2].Type != events.EvGlobalClock || recs[2].Time != 200 || recs[2].Args[0] != 195 {
		t.Fatalf("clock record: %+v", recs[2])
	}
	if recs[3].Args[1] != events.UndispatchBlock {
		t.Fatalf("undispatch reason: %+v", recs[3])
	}
}

func TestFacilityMaskFiltersClasses(t *testing.T) {
	var buf bytes.Buffer
	f, err := NewFacility(Options{Enabled: events.MaskMPI}, 0, 1, &buf)
	if err != nil {
		t.Fatal(err)
	}
	f.CutDispatch(0, 1, 0) // system class: dropped
	f.Cut(&Record{Type: events.EvMPISend, Edge: events.Entry, Time: 2})
	f.CutGlobalClock(0, 3, 3) // infrastructure: always kept
	f.Flush()
	cut, dropped := f.Counts()
	if cut != 2 || dropped != 1 {
		t.Fatalf("cut=%d dropped=%d, want 2/1", cut, dropped)
	}
	rd, _ := NewReader(bytes.NewReader(buf.Bytes()))
	recs, _ := rd.ReadAll()
	if len(recs) != 2 || recs[0].Type != events.EvMPISend || recs[1].Type != events.EvGlobalClock {
		t.Fatalf("unexpected records: %+v", recs)
	}
}

func TestFacilityDelayedStart(t *testing.T) {
	var buf bytes.Buffer
	f, _ := NewFacility(Options{Enabled: events.MaskAll, DelayStart: true}, 0, 1, &buf)
	f.CutDispatch(0, 1, 0) // before Start: dropped
	f.Start()
	f.CutDispatch(0, 2, 0)
	f.Stop()
	f.CutDispatch(0, 3, 0) // after Stop: dropped
	f.Flush()
	rd, _ := NewReader(bytes.NewReader(buf.Bytes()))
	recs, _ := rd.ReadAll()
	if len(recs) != 1 || recs[0].Time != 2 {
		t.Fatalf("delayed start window wrong: %+v", recs)
	}
}

func TestFacilityBufferFlushing(t *testing.T) {
	var buf bytes.Buffer
	// Tiny buffer forces many flushes; everything must still arrive.
	f, _ := NewFacility(Options{Enabled: events.MaskAll, BufferSize: 64}, 0, 1, &buf)
	const n = 1000
	for i := 0; i < n; i++ {
		f.CutDispatch(int32(i%4), clock.Time(i), i%2)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, _ := NewReader(bytes.NewReader(buf.Bytes()))
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("read %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Time != clock.Time(i) {
			t.Fatalf("record %d out of order: time %d", i, r.Time)
		}
	}
}

func TestSeqnoPerPair(t *testing.T) {
	var buf bytes.Buffer
	f, _ := NewFacility(Options{Enabled: events.MaskAll}, 0, 1, &buf)
	if s := f.NextSeqno(0, 1); s != 1 {
		t.Fatalf("first seqno = %d", s)
	}
	if s := f.NextSeqno(0, 1); s != 2 {
		t.Fatalf("second seqno = %d", s)
	}
	if s := f.NextSeqno(1, 0); s != 1 {
		t.Fatalf("reverse pair seqno = %d", s)
	}
	if s := f.NextSeqno(0, 2); s != 1 {
		t.Fatalf("other pair seqno = %d", s)
	}
}

func TestCreateNodeFileAndOpenFile(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Prefix: filepath.Join(dir, "tr"), Enabled: events.MaskAll}
	f, err := CreateNodeFile(opts, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	f.CutDispatch(0, 7, 1)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenFile(opts.FileName(3))
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if rd.Info.Node != 3 || rd.Info.NumCPUs != 4 {
		t.Fatalf("file info: %+v", rd.Info)
	}
	recs, err := rd.ReadAll()
	if err != nil || len(recs) != 1 {
		t.Fatalf("recs=%v err=%v", recs, err)
	}
}

func TestReaderBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACEFILE WITH ENOUGH BYTES"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReaderEOFAfterLastRecord(t *testing.T) {
	var buf bytes.Buffer
	f, _ := NewFacility(Options{Enabled: events.MaskAll}, 0, 1, &buf)
	f.CutDispatch(0, 1, 0)
	f.Flush()
	rd, _ := NewReader(bytes.NewReader(buf.Bytes()))
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestFileNameFormat(t *testing.T) {
	o := Options{Prefix: "/tmp/run"}
	if got := o.FileName(12); got != "/tmp/run.12" {
		t.Fatalf("FileName = %q", got)
	}
}

func BenchmarkCutTraceRecord(b *testing.B) {
	// Paper §2.1: the first two parts of cutting a record (enable test +
	// buffer insertion) cost a small fraction of a microsecond.
	f, _ := NewFacility(Options{Enabled: events.MaskAll, BufferSize: 1 << 22}, 0, 1, io.Discard)
	rec := &Record{Type: events.EvMPISend, Edge: events.Entry, TID: 1, Args: []uint64{1, 2, 3}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Time = clock.Time(i)
		f.Cut(rec)
	}
}

func TestWrapModeKeepsNewestRecords(t *testing.T) {
	var buf bytes.Buffer
	f, err := NewFacility(Options{Enabled: events.MaskAll, Wrap: true, BufferSize: 512}, 0, 1, &buf)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		f.CutDispatch(0, clock.Time(i), 0)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, _ := NewReader(bytes.NewReader(buf.Bytes()))
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) >= n || len(recs) == 0 {
		t.Fatalf("wrap kept %d of %d records", len(recs), n)
	}
	// The retained window is the newest suffix, contiguous and in order.
	first := recs[0].Time
	for i, r := range recs {
		if r.Time != first+clock.Time(i) {
			t.Fatalf("window not contiguous at %d: %v", i, r.Time)
		}
	}
	if recs[len(recs)-1].Time != clock.Time(n-1) {
		t.Fatalf("newest record missing: %v", recs[len(recs)-1].Time)
	}
	cut, dropped := f.Counts()
	if cut != n || dropped != int64(n-len(recs)) {
		t.Fatalf("cut=%d dropped=%d retained=%d", cut, dropped, len(recs))
	}
}

func TestWrapModeBounded(t *testing.T) {
	var buf bytes.Buffer
	f, _ := NewFacility(Options{Enabled: events.MaskAll, Wrap: true, BufferSize: 1024}, 0, 1, &buf)
	for i := 0; i < 100000; i++ {
		f.CutDispatch(int32(i%8), clock.Time(i), i%2)
	}
	f.Flush()
	if buf.Len() > 1024+rawHeaderSize+64 {
		t.Fatalf("wrap buffer leaked: %d bytes written", buf.Len())
	}
}
