package interval

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/profile"
	"tracefw/internal/xrand"
)

// Tests for the version-4 compact frame encoding: cross-version
// round-trip equivalence, size reduction, the zero-alloc scan path,
// and salvage's exact-decode requirement on v4 frames.

// randomMixedRecords builds an end-ordered record stream that stresses
// every v4 encoder path: plain records, zero-extra records, vector
// records (MPI_Waitall), negative start times, and large field values
// that need long varints.
func randomMixedRecords(rng *xrand.Rand, n int) []Record {
	recs := make([]Record, n)
	end := int64(-50 * int64(clock.Millisecond)) // start in negative time
	for i := range recs {
		// Monotone non-decreasing end times, as the writer requires.
		end += rng.Int63n(int64(clock.Millisecond))
		dura := rng.Int63n(int64(10 * clock.Millisecond))
		r := Record{
			Bebits: profile.Bebits(rng.Intn(4)),
			Start:  clock.Time(end - dura),
			Dura:   clock.Time(dura),
			CPU:    uint16(rng.Intn(5)),
			Node:   uint16(rng.Intn(3)),
			Thread: uint16(rng.Intn(6)),
		}
		switch rng.Intn(4) {
		case 0: // no extras
			r.Type = events.EvRunning
		case 1: // vector record
			r.Type = events.EvMPIWaitall
			nv := 3 * rng.Intn(5)
			if nv > 0 {
				vec := make([]uint64, nv)
				for j := range vec {
					vec[j] = rng.Uint64() >> uint(rng.Intn(64))
				}
				r.Vec = vec
			}
			r.Extra = []uint64{uint64(nv / 3), rng.Uint64() >> 40}
		default:
			r.Type = events.EvMPISend
			r.Extra = []uint64{
				rng.Uint64() >> uint(rng.Intn(64)), // any magnitude
				rng.Uint64() >> 56,                 // small
				uint64(i),
				rng.Uint64(), // full 64-bit
				0,
				7,
			}
		}
		recs[i] = r
	}
	return recs
}

// reencodeRecords writes recs under the given header version with small
// frames and returns the encoded file.
func reencodeRecords(t *testing.T, recs []Record, version uint32) *SeekBuffer {
	t.Helper()
	hdr := testHeader()
	hdr.HeaderVersion = version
	sb := NewSeekBuffer()
	w, err := NewWriter(sb, hdr, WriterOptions{FrameBytes: 512, FramesPerDir: 4})
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
	return sb
}

// scanAll decodes every record through the sequential scanner.
func scanAll(t *testing.T, sb *SeekBuffer) []Record {
	t.Helper()
	recs, err := openFile(t, sb).Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestCrossVersionRoundTrip is the cross-version property test: the
// same record stream written under every header version decodes to the
// identical Record sequence, through both the scanner and the parallel
// frame map.
func TestCrossVersionRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := xrand.New(seed)
		want := randomMixedRecords(rng, 300+int(seed)*100)
		var ref []Record
		for v := uint32(1); v <= CurrentHeaderVersion; v++ {
			sb := reencodeRecords(t, want, v)
			got := scanAll(t, sb)
			if len(got) != len(want) {
				t.Fatalf("seed %d v%d: %d records, want %d", seed, v, len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(normalize(got[i]), normalize(want[i])) {
					t.Fatalf("seed %d v%d record %d:\n got %+v\nwant %+v", seed, v, i, got[i], want[i])
				}
			}
			if v == 1 {
				ref = got
			} else if !reflect.DeepEqual(got, ref) {
				t.Fatalf("seed %d: v%d decode differs from v1", seed, v)
			}
			// MapFrames must agree with the sequential scan.
			var mapped []Record
			err := MapFrames([]*File{openFile(t, sb)}, MapOptions{Parallel: 2},
				func(_ int, fr *Frame) ([]Record, error) {
					b, err := fr.Batch()
					if err != nil {
						return nil, err
					}
					return batchRecords(b), nil
				},
				func(_ int, _ FrameEntry, recs []Record) error { mapped = append(mapped, recs...); return nil })
			if err != nil {
				t.Fatalf("seed %d v%d: MapFrames: %v", seed, v, err)
			}
			if !reflect.DeepEqual(mapped, got) {
				t.Fatalf("seed %d v%d: MapFrames records differ from scan", seed, v)
			}
		}
	}
}

// TestV4SmallerThanV3 checks the headline claim: the compact encoding
// shrinks files by at least 30% on a representative record mix.
func TestV4SmallerThanV3(t *testing.T) {
	rng := xrand.New(42)
	recs := randomMixedRecords(rng, 2000)
	v3 := len(reencodeRecords(t, recs, 3).Bytes())
	v4 := len(reencodeRecords(t, recs, 4).Bytes())
	t.Logf("v3=%d bytes, v4=%d bytes (%.1f%%)", v3, v4, 100*float64(v4)/float64(v3))
	if float64(v4) > 0.70*float64(v3) {
		t.Fatalf("v4 file is %d bytes, v3 is %d: want at least 30%% smaller", v4, v3)
	}
}

// TestV4WindowScanMatchesSequential cross-checks windowed access
// against a filtered sequential scan on a v4 file (frame-relative
// deltas must not disturb window selection).
func TestV4WindowScanMatchesSequential(t *testing.T) {
	sb, _ := writeRandomFile(t, 9, 1200, CurrentHeaderVersion)
	f := openFile(t, sb)
	all := scanAll(t, sb)
	lo, hi := 20*clock.Millisecond, 60*clock.Millisecond
	var want []Record
	for _, r := range all {
		if r.End() >= lo && r.Start <= hi {
			want = append(want, r)
		}
	}
	sc := f.ScanWindow(lo, hi)
	var got []Record
	for {
		r, err := sc.NextRecord()
		if err != nil {
			break
		}
		if r.End() >= lo && r.Start <= hi {
			got = append(got, r)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("window scan: %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(normalize(got[i]), normalize(want[i])) {
			t.Fatalf("window record %d differs", i)
		}
	}
}

// TestV4ScanAllocations locks in the scanner's allocation shape: it
// obtains every frame as one right-sized batch and hands out rows
// aliasing it, so a full pass allocates per frame — the batch's columns,
// the directory walk — and never per record. A per-record allocation
// regression shows up here as thousands.
func TestV4ScanAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; count is meaningless")
	}
	for _, v := range []uint32{3, CurrentHeaderVersion} {
		sb, recs := writeMixedFileFrames(t, 11, 5000, v, 16<<10)
		f := openFile(t, sb)
		frames, err := f.Frames()
		if err != nil {
			t.Fatal(err)
		}
		// A batch is a struct and eleven columns; the rest is directory
		// reads and pool churn.
		budget := float64(16*len(frames) + 64)
		if budget > float64(len(recs))/4 {
			t.Fatalf("v%d: %d frames for %d records: the per-frame budget would hide a per-record allocation", v, len(frames), len(recs))
		}
		for name, pass := range map[string]func(*Scanner) error{
			"NextRecord": func(sc *Scanner) error { _, err := sc.NextRecord(); return err },
			"Next":       func(sc *Scanner) error { _, err := sc.Next(); return err },
		} {
			n := 0
			allocs := testing.AllocsPerRun(3, func() {
				sc := f.Scan()
				for n = 0; pass(sc) == nil; n++ {
				}
			})
			if n != len(recs) {
				t.Fatalf("v%d %s: scanned %d records, wrote %d", v, name, n, len(recs))
			}
			if allocs > budget {
				t.Fatalf("v%d %s full scan: %.0f allocs for %d records in %d frames (budget %.0f)",
					v, name, allocs, len(recs), len(frames), budget)
			}
			t.Logf("v%d %s: %.0f allocs over %d records in %d frames", v, name, allocs, len(recs), len(frames))
		}
	}
}

// TestV4SalvageRejectsUndecodableFrame plants a corrupted varint stream
// behind a *valid* CRC (checksums recomputed over the damaged bytes) in
// one v4 frame. The CRC no longer protects the frame, so salvage must
// fall back on the exact-decode rule: the frame is dropped, every other
// frame survives, and Validate rejects the file.
func TestV4SalvageRejectsUndecodableFrame(t *testing.T) {
	sb, _ := writeRandomFile(t, 13, 600, CurrentHeaderVersion)
	data := append([]byte(nil), sb.Bytes()...)

	f := openFile(t, sb)
	frames, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := f.Dirs()
	if err != nil {
		t.Fatal(err)
	}
	d := dirs[0]
	fe := d.Entries[0]

	// An impossible dictionary count: 0xff 0xff 0x7f decodes to a
	// number far past the frame's own size, so cursor init must fail.
	data[fe.Offset], data[fe.Offset+1], data[fe.Offset+2] = 0xff, 0xff, 0x7f
	// Recompute the frame CRC over the damaged bytes and patch it into
	// the directory entry, then fix the directory checksum too.
	sum := crc32.Checksum(data[fe.Offset:fe.Offset+int64(fe.Bytes)], crcTable)
	entOff := d.Offset + int64(dirHeaderSize(CurrentHeaderVersion))
	binary.LittleEndian.PutUint32(data[entOff+32:], sum)
	entRaw := data[entOff : entOff+int64(len(d.Entries)*entrySize(CurrentHeaderVersion))]
	dsum := dirChecksum(uint32(len(d.Entries)), d.Start, d.End, uint64(d.Records), entRaw)
	binary.LittleEndian.PutUint32(data[d.Offset+48:], dsum)

	cf, err := NewFile(NewSeekBufferFrom(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cf.Validate(nil); err == nil {
		t.Fatal("Validate accepted a frame whose varint stream does not decode")
	}
	sv := cf.Salvage()
	if sv.Report.Clean() {
		t.Fatal("salvage reported a clean file")
	}
	if len(sv.Frames) != len(frames)-1 {
		t.Fatalf("salvage recovered %d frames, want %d", len(sv.Frames), len(frames)-1)
	}
	for _, got := range sv.Frames {
		if got.Offset == fe.Offset {
			t.Fatalf("salvage recovered the undecodable frame at %d", fe.Offset)
		}
	}
	// Repair must produce a valid file from the surviving frames.
	out := NewSeekBuffer()
	if _, err := Repair(cf, sv, out, WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	rf, err := NewFile(NewSeekBufferFrom(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rf.Validate(nil); err != nil {
		t.Fatalf("repaired file fails validation: %v", err)
	}
}

// TestV4FrameSizes sanity-checks encodedFrameSizes, the helper behind
// `utedump -sizes`: per-frame byte counts must sum to the directory
// entries' Bytes fields, and record counts to the file total.
func TestV4FrameSizes(t *testing.T) {
	for _, v := range []uint32{3, CurrentHeaderVersion} {
		sb, recs := writeRandomFile(t, 17, 700, v)
		f := openFile(t, sb)
		frames, err := f.Frames()
		if err != nil {
			t.Fatal(err)
		}
		var bytes, n int64
		for _, fe := range frames {
			bytes += int64(fe.Bytes)
			n += int64(fe.Records)
		}
		if n != int64(len(recs)) {
			t.Fatalf("v%d: frames claim %d records, wrote %d", v, n, len(recs))
		}
		if bytes <= 0 {
			t.Fatalf("v%d: zero frame bytes", v)
		}
		_ = fmt.Sprintf("%d", bytes)
	}
}
