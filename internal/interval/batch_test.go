package interval

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/profile"
	"tracefw/internal/xrand"
)

// writeMixedFile builds a file whose records span the shapes the batch
// decoder must handle: no extras (Running), fixed extras of several
// widths, and the trailing vector of Waitall — across enough records to
// force multiple frames and directories.
func writeMixedFile(t *testing.T, seed uint64, n int, hdrVersion uint32) (*SeekBuffer, []Record) {
	t.Helper()
	return writeMixedFileFrames(t, seed, n, hdrVersion, 512)
}

// writeMixedFileFrames is writeMixedFile with an explicit frame size.
func writeMixedFileFrames(t *testing.T, seed uint64, n int, hdrVersion uint32, frameBytes int) (*SeekBuffer, []Record) {
	t.Helper()
	rng := xrand.New(seed)
	recs := make([]Record, n)
	for i := range recs {
		r := Record{
			Bebits: profile.Complete,
			Start:  clock.Time(rng.Int63n(int64(100 * clock.Millisecond))),
			Dura:   clock.Time(rng.Int63n(int64(5 * clock.Millisecond))),
			CPU:    uint16(rng.Intn(4)),
			Node:   uint16(rng.Intn(2)),
			Thread: uint16(rng.Intn(8)),
		}
		switch rng.Intn(4) {
		case 0:
			r.Type = events.EvRunning
		case 1:
			r.Type = events.EvMPISend
			r.Extra = []uint64{rng.Uint64() % 1000, 7, uint64(i), 0, 1, rng.Uint64()}
		case 2:
			r.Type = events.EvMPIBarrier
			r.Extra = []uint64{1, rng.Uint64() % (1 << 40)}
		default:
			r.Type = events.EvMPIWaitall
			nv := rng.Intn(5)
			r.Extra = []uint64{uint64(nv), rng.Uint64()}
			r.Vec = make([]uint64, 3*nv)
			for j := range r.Vec {
				r.Vec[j] = rng.Uint64() % 100000
			}
		}
		recs[i] = r
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].End() < recs[j].End() })
	hdr := testHeader()
	hdr.HeaderVersion = hdrVersion
	sb := NewSeekBuffer()
	w, err := NewWriter(sb, hdr, WriterOptions{FrameBytes: frameBytes, FramesPerDir: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Add(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sb, recs
}

// batchRecords copies every row of b out as a self-contained record.
func batchRecords(b *Batch) []Record {
	recs := make([]Record, b.N)
	for i := range recs {
		recs[i] = b.RowCopy(i)
	}
	return recs
}

func eqRecord(a, b Record) bool {
	if a.Type != b.Type || a.Bebits != b.Bebits || a.Start != b.Start ||
		a.Dura != b.Dura || a.CPU != b.CPU || a.Node != b.Node || a.Thread != b.Thread {
		return false
	}
	if len(a.Extra) != len(b.Extra) || len(a.Vec) != len(b.Vec) {
		return false
	}
	for i := range a.Extra {
		if a.Extra[i] != b.Extra[i] {
			return false
		}
	}
	for i := range a.Vec {
		if a.Vec[i] != b.Vec[i] {
			return false
		}
	}
	return true
}

// TestBatchMatchesRecordDecode decodes every frame of every header
// version both ways — the reference record decoder (FrameRecords) and
// the columnar batch — and compares row by row, reusing one Batch
// throughout so stale column contents from previous frames would be
// caught. The shared right-sized batch (FrameBatch) must carry the same
// rows with no spare capacity, and its Footprint must be exact.
func TestBatchMatchesRecordDecode(t *testing.T) {
	for v := uint32(1); v <= CurrentHeaderVersion; v++ {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			sb, _ := writeMixedFile(t, 0xb0b0+uint64(v), 400, v)
			f, err := NewFile(NewSeekBufferFrom(sb.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			fes, err := f.Frames()
			if err != nil {
				t.Fatal(err)
			}
			if len(fes) < 4 {
				t.Fatalf("want a multi-frame file, got %d frames", len(fes))
			}
			var b Batch
			total := 0
			for _, fe := range fes {
				recs, err := f.FrameRecords(fe)
				if err != nil {
					t.Fatal(err)
				}
				if err := f.DecodeFrameBatch(fe, &b); err != nil {
					t.Fatal(err)
				}
				shared, err := f.FrameBatch(fe)
				if err != nil {
					t.Fatal(err)
				}
				checkRightSized(t, shared)
				if !reflect.DeepEqual(batchRecords(shared), batchRecords(&b)) {
					t.Fatalf("frame at %d: FrameBatch rows differ from DecodeFrameBatch rows", fe.Offset)
				}
				if b.N != len(recs) {
					t.Fatalf("frame at %d: batch N=%d, records=%d", fe.Offset, b.N, len(recs))
				}
				for i, want := range recs {
					if got := b.Row(i); !eqRecord(got, want) {
						t.Fatalf("frame at %d row %d: batch %+v, record %+v", fe.Offset, i, got, want)
					}
					if got := b.RowCopy(i); !eqRecord(got, want) {
						t.Fatalf("frame at %d row %d: RowCopy %+v, record %+v", fe.Offset, i, got, want)
					}
					if want.End() != b.End(i) {
						t.Fatalf("frame at %d row %d: End mismatch", fe.Offset, i)
					}
				}
				total += b.N
			}
			if total != 400 {
				t.Fatalf("decoded %d records, wrote 400", total)
			}
		})
	}
}

// TestBatchEncodedRowSize checks the accumulation-format size estimate
// against the writer's framing: summing EncodedRowSize over a frame's
// rows must reproduce the record payload+prefix accounting the writer
// used to close that frame (frame assignment is based on it).
func TestBatchEncodedRowSize(t *testing.T) {
	sb, _ := writeMixedFile(t, 99, 200, CurrentHeaderVersion)
	f, err := NewFile(NewSeekBufferFrom(sb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fes, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	for _, fe := range fes {
		if err := f.DecodeFrameBatch(fe, &b); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			r := b.Row(i)
			if got, want := b.EncodedRowSize(i), r.EncodedSize(); got != want {
				t.Fatalf("row %d (%v): EncodedRowSize=%d, want %d", i, r.Type, got, want)
			}
		}
	}
}

// checkRightSized asserts the shared-batch invariants: every column's
// capacity equals its length, and Footprint is the exact byte sum.
func checkRightSized(t *testing.T, b *Batch) {
	t.Helper()
	n := b.N
	want := int64(n)*(8+8+2+1+2+2+2) + int64(n+1)*(4+4) + int64(len(b.Extras)+len(b.Vecs))*8
	if got := b.Footprint(); got != want {
		t.Fatalf("Footprint = %d, want %d (%d rows, %d extras, %d vecs)", got, want, n, len(b.Extras), len(b.Vecs))
	}
	for name, c := range map[string][2]int{
		"Start": {len(b.Start), cap(b.Start)}, "Dura": {len(b.Dura), cap(b.Dura)},
		"Type": {len(b.Type), cap(b.Type)}, "Bebits": {len(b.Bebits), cap(b.Bebits)},
		"CPU": {len(b.CPU), cap(b.CPU)}, "Node": {len(b.Node), cap(b.Node)},
		"Thread": {len(b.Thread), cap(b.Thread)}, "ExtraOff": {len(b.ExtraOff), cap(b.ExtraOff)},
		"Extras": {len(b.Extras), cap(b.Extras)}, "VecOff": {len(b.VecOff), cap(b.VecOff)},
		"Vecs": {len(b.Vecs), cap(b.Vecs)},
	} {
		if c[0] != c[1] {
			t.Fatalf("column %s: len %d, cap %d — shared batches must be right-sized", name, c[0], c[1])
		}
	}
}

// TestMapFramesOrdering verifies the engine delivers frames of several
// files in (file, frame) order with the contents the reference record
// decoder produces, at several worker counts.
func TestMapFramesOrdering(t *testing.T) {
	sb, _ := writeMixedFile(t, 7, 300, CurrentHeaderVersion)
	sb2, _ := writeMixedFile(t, 8, 150, CurrentHeaderVersion)
	var files []*File
	for _, s := range []*SeekBuffer{sb, sb2} {
		f, err := NewFile(NewSeekBufferFrom(s.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	line := func(file int, fe FrameEntry, sum uint64) string {
		return fmt.Sprintf("%d/%d: sum=%d", file, fe.Offset, sum)
	}
	var want []string
	for fi, f := range files {
		fes, err := f.Frames()
		if err != nil {
			t.Fatal(err)
		}
		for _, fe := range fes {
			recs, err := f.FrameRecords(fe)
			if err != nil {
				t.Fatal(err)
			}
			var sum uint64
			for _, r := range recs {
				sum += uint64(r.Start) + uint64(r.Type)
				for _, e := range r.Extra {
					sum += e
				}
				for _, v := range r.Vec {
					sum += v
				}
			}
			want = append(want, line(fi, fe, sum))
		}
	}
	for _, par := range []int{1, 2, 8} {
		var got []string
		err := MapFrames(files, MapOptions{Parallel: par},
			func(_ int, _ FrameEntry, b *Batch) (uint64, error) {
				var sum uint64
				for i := 0; i < b.N; i++ {
					sum += uint64(b.Start[i]) + uint64(b.Type[i])
					for _, e := range b.ExtraRow(i) {
						sum += e
					}
					for _, v := range b.VecRow(i) {
						sum += v
					}
				}
				return sum, nil
			},
			func(file int, fe FrameEntry, sum uint64) error {
				got = append(got, line(file, fe, sum))
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("-j%d order/content differs:\n%s\nwant:\n%s", par, got, want)
		}
	}
}

// TestBatchDecodeZeroAlloc pins the warm-path allocation count: once a
// Batch's columns have grown to the largest frame, re-decoding frames
// into it must not allocate at all, on both the v4 varint path and the
// fixed-width path.
func TestBatchDecodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; count is meaningless")
	}
	for _, v := range []uint32{3, CurrentHeaderVersion} {
		sb, _ := writeMixedFile(t, 21, 300, v)
		f, err := NewFile(NewSeekBufferFrom(sb.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		fes, err := f.Frames()
		if err != nil {
			t.Fatal(err)
		}
		var b Batch
		for _, fe := range fes { // warm up: grow columns and the read buffer pool
			if err := f.DecodeFrameBatch(fe, &b); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			for _, fe := range fes {
				if err := f.DecodeFrameBatch(fe, &b); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("v%d: warm batch decode allocates %v times per pass, want 0", v, allocs)
		}
	}
}
