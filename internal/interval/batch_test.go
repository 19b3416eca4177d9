package interval

import (
	"errors"
	"fmt"
	"io"
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

// clone returns r owning its Extra and Vec.
func (r Record) clone() Record {
	var c Record
	r.CopyInto(&c)
	return c
}

// batchRecords copies every row of b out as a self-contained record.
func batchRecords(b *Batch) []Record {
	recs := make([]Record, b.N)
	for i := range recs {
		recs[i] = b.Row(i).clone()
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

// roundTripStream builds an end-time-ordered record stream that reaches
// every codec path: no extras, fixed extras of several widths, the
// Waitall vector from empty to long, all four bebits, negative start
// times and negative durations, and values needing long varints.
func roundTripStream(rng *xrand.Rand, n int) []Record {
	recs := make([]Record, n)
	end := -20 * int64(clock.Millisecond)
	for i := range recs {
		end += rng.Int63n(int64(clock.Millisecond))
		dura := rng.Int63n(int64(4*clock.Millisecond)) - int64(clock.Millisecond) // a quarter negative
		r := Record{
			Bebits: profile.Bebits(rng.Intn(4)),
			Start:  clock.Time(end - dura),
			Dura:   clock.Time(dura),
			CPU:    uint16(rng.Intn(4)),
			Node:   uint16(rng.Intn(3)),
			Thread: uint16(rng.Intn(8)),
		}
		switch rng.Intn(4) {
		case 0:
			r.Type = events.EvRunning
		case 1:
			r.Type = events.EvMPISend
			r.Extra = []uint64{rng.Uint64() >> uint(rng.Intn(64)), 7, uint64(i), 0, 1, rng.Uint64()}
		case 2:
			r.Type = events.EvMPIBarrier
			r.Extra = []uint64{1, rng.Uint64() % (1 << 40)}
		default:
			r.Type = events.EvMPIWaitall
			nv := rng.Intn(5)
			if rng.Intn(50) == 0 {
				nv = 40 // a payload past 255 bytes: the three-byte length prefix
			}
			r.Extra = []uint64{uint64(nv), rng.Uint64()}
			r.Vec = make([]uint64, 3*nv)
			for j := range r.Vec {
				r.Vec[j] = rng.Uint64() >> uint(rng.Intn(64))
			}
		}
		recs[i] = r
	}
	return recs
}

// TestBatchMatchesRecordDecode is the frame codec's round-trip property.
// A random stream goes through the Writer — with a FramePrologue, as the
// merge installs — at every header version, and everything that reads a
// frame must return exactly the records written, in order: a reused
// Batch (stale column contents from the previous frame would be caught),
// the shared right-sized FrameBatch, FrameRecords, and the Scanner's
// NextRecord and Next. There is no second decoder to compare against;
// the written records are the oracle. Frames are sized on the
// fixed-width measure at every version, so all four files must also
// assign records to frames identically.
func TestBatchMatchesRecordDecode(t *testing.T) {
	var assignment [][]uint32
	for v := uint32(1); v <= CurrentHeaderVersion; v++ {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			stream := roundTripStream(xrand.New(0xb0b0), 600)
			// written is what the writer was handed, prologues included: the
			// prologue callback runs inside Add, before Add's own record.
			var written []Record
			lastEnd := stream[0].End()
			hdr := testHeader()
			hdr.HeaderVersion = v
			sb := NewSeekBuffer()
			w, err := NewWriter(sb, hdr, WriterOptions{FrameBytes: 700, FramesPerDir: 4,
				FramePrologue: func() []Record {
					ps := []Record{
						{Type: events.EvMPIWaitall, Bebits: profile.Continuation, Start: lastEnd, Thread: 1,
							Extra: []uint64{1, 2}, Vec: []uint64{3, 4, uint64(len(written))}},
						{Type: events.EvMarkerState, Bebits: profile.Continuation, Start: lastEnd, Thread: 2,
							Extra: []uint64{9, uint64(len(written)), 0}},
					}
					written = append(written, ps...)
					return ps
				}})
			if err != nil {
				t.Fatal(err)
			}
			for i := range stream {
				if err := w.Add(&stream[i]); err != nil {
					t.Fatal(err)
				}
				written = append(written, stream[i])
				lastEnd = stream[i].End()
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			f, err := NewFile(NewSeekBufferFrom(sb.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Validate(nil); err != nil {
				t.Fatal(err)
			}
			fes, err := f.Frames()
			if err != nil {
				t.Fatal(err)
			}
			if len(fes) < 8 {
				t.Fatalf("want a multi-frame file, got %d frames", len(fes))
			}
			counts := make([]uint32, len(fes))
			var b Batch
			at := 0
			for fi, fe := range fes {
				counts[fi] = fe.Records
				if err := f.DecodeFrameBatch(fe, &b); err != nil {
					t.Fatal(err)
				}
				shared, err := f.ReadFrameBatch(fe)
				if err != nil {
					t.Fatal(err)
				}
				checkRightSized(t, shared)
				recs, err := f.FrameRecords(fe)
				if err != nil {
					t.Fatal(err)
				}
				if b.N != int(fe.Records) || shared.N != b.N || len(recs) != b.N || at+b.N > len(written) {
					t.Fatalf("frame %d: entry claims %d records; batch %d, shared %d, FrameRecords %d; %d of %d written so far",
						fi, fe.Records, b.N, shared.N, len(recs), at, len(written))
				}
				for i := 0; i < b.N; i++ {
					want := written[at+i]
					for name, got := range map[string]Record{
						"Row": b.Row(i), "FrameBatch": shared.Row(i), "FrameRecords": recs[i],
					} {
						if !eqRecord(got, want) {
							t.Fatalf("frame %d row %d: %s %+v, wrote %+v", fi, i, name, got, want)
						}
					}
					if b.End(i) != want.End() {
						t.Fatalf("frame %d row %d: End %v, wrote %v", fi, i, b.End(i), want.End())
					}
				}
				at += b.N
			}
			if at != len(written) {
				t.Fatalf("frames hold %d records, wrote %d", at, len(written))
			}
			assignment = append(assignment, counts)

			scanned, err := f.Scan().All()
			if err != nil {
				t.Fatal(err)
			}
			sc := f.Scan()
			for i, want := range written {
				if i >= len(scanned) || !eqRecord(scanned[i], want) {
					t.Fatalf("Scanner.NextRecord %d of %d differs from the record written", i, len(scanned))
				}
				payload, err := sc.Next()
				if err != nil {
					t.Fatal(err)
				}
				if got, err := DecodePayload(payload); err != nil || !eqRecord(got, want) {
					t.Fatalf("Scanner.Next %d: %+v (%v), wrote %+v", i, got, err, want)
				}
			}
			if _, err := sc.Next(); !errors.Is(err, io.EOF) || len(scanned) != len(written) {
				t.Fatalf("wrote %d records; after as many, Next returned %v and All had produced %d", len(written), err, len(scanned))
			}
		})
	}
	for v := 1; v < len(assignment); v++ {
		if !reflect.DeepEqual(assignment[v], assignment[0]) {
			t.Fatalf("v%d assigns records to frames differently from v1:\n %v\n %v", v+1, assignment[v], assignment[0])
		}
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

// checkRightSized asserts the invariant of a batch of the caller's own:
// every column's capacity equals its length.
func checkRightSized(t *testing.T, b *Batch) {
	t.Helper()
	for name, c := range map[string][2]int{
		"Start": {len(b.Start), cap(b.Start)}, "Dura": {len(b.Dura), cap(b.Dura)},
		"Code": {len(b.Code), cap(b.Code)}, "Dict": {len(b.Dict), cap(b.Dict)},
		"ExtraOff": {len(b.ExtraOff), cap(b.ExtraOff)}, "Extras": {len(b.Extras), cap(b.Extras)},
		"VecOff": {len(b.VecOff), cap(b.VecOff)}, "Vecs": {len(b.Vecs), cap(b.Vecs)},
	} {
		if c[0] != c[1] {
			t.Fatalf("column %s: len %d, cap %d — a batch of the caller's own must be right-sized", name, c[0], c[1])
		}
	}
}

// TestMapFramesOrdering verifies the engine delivers frames of several
// files in (file, frame) order with the contents FrameRecords returns
// frame by frame, at several worker counts.
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
			func(_ int, fr *Frame) (uint64, error) {
				b, err := fr.Batch()
				if err != nil {
					return 0, err
				}
				var sum uint64
				for i := 0; i < b.N; i++ {
					sum += uint64(b.Start[i]) + uint64(b.Key(i).Type)
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
