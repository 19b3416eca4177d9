package interval

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"tracefw/internal/events"
	"tracefw/internal/profile"
)

// Tests for the frame codec's edges: the writer's payload bound, its
// allocation ceiling, the scanner's frame-granular failure contract, and
// Repair's byte identity with a verbatim copy.

// TestAddRejectsOversizedPayload: a record whose fixed-width payload
// would pass 65 535 bytes — more than a length prefix can state and more
// than the v4 decoder accepts — fails the writer for good instead of
// panicking (v1–v3) or writing a frame no reader opens (v4). The largest
// Waitall vector that fits is written and read back.
func TestAddRejectsOversizedPayload(t *testing.T) {
	waitall := func(nv int) Record {
		return Record{Type: events.EvMPIWaitall, Bebits: profile.Complete, Dura: 1,
			Extra: []uint64{uint64(nv / 3), 0}, Vec: make([]uint64, nv)}
	}
	// Common fields, two extras, the vector counter, then the elements.
	fits := (maxPayload - profile.CommonSize - 2*8 - 2) / 8
	for _, v := range []uint32{3, CurrentHeaderVersion} {
		hdr := testHeader()
		hdr.HeaderVersion = v
		sb := NewSeekBuffer()
		w, err := NewWriter(sb, hdr, WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		big := waitall(fits)
		big.Vec[fits-1] = 1<<64 - 1
		if err := w.Add(&big); err != nil {
			t.Fatalf("v%d: a %d-element vector fits the format but Add said %v", v, fits, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		recs, err := openFile(t, sb).Scan().All()
		if err != nil || len(recs) != 1 || !eqRecord(recs[0], big) {
			t.Fatalf("v%d: the largest record did not read back (%d records, %v)", v, len(recs), err)
		}

		w, err = NewWriter(NewSeekBuffer(), hdr, WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		over := waitall(fits + 1)
		err = w.Add(&over)
		if err == nil || !strings.Contains(err.Error(), "format limit") {
			t.Fatalf("v%d: Add of a %d-element vector: %v, want a format-limit error", v, fits+1, err)
		}
		small := waitall(3)
		if err2 := w.Add(&small); err2 != err {
			t.Fatalf("v%d: the error is not sticky: next Add said %v", v, err2)
		}
		if err2 := w.Close(); err2 != err {
			t.Fatalf("v%d: Close after the failed Add said %v", v, err2)
		}
	}
}

// discardSeeker is a WriteSeeker that keeps nothing, so a writer's own
// allocations are all a measurement sees.
type discardSeeker struct{ off int64 }

func (d *discardSeeker) Write(p []byte) (int, error) { d.off += int64(len(p)); return len(p), nil }
func (d *discardSeeker) Seek(off int64, whence int) (int64, error) {
	if whence == io.SeekStart {
		d.off = off
	}
	return d.off, nil
}

// TestWriterSteadyStateZeroAlloc: Add pushes columns into the writer's
// frame batch and closeFrame encodes from them into reused buffers, so
// once the batch, the dictionary scratch and the group buffer have grown
// to frame size Add and closeFrame allocate nothing — not per record,
// not per frame — at either encoding, with or without a prologue. What
// is left is the directory flush's one allocation (the checksum's
// 32-byte cover escapes), every FramesPerDir frames.
func TestWriterSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; count is meaningless")
	}
	_, recs := writeMixedFile(t, 5, 4000, CurrentHeaderVersion)
	prologue := recs[:40]
	for _, v := range []uint32{3, CurrentHeaderVersion} {
		for _, withPrologue := range []bool{false, true} {
			opts := WriterOptions{FrameBytes: 2048, FramesPerDir: 4, unordered: true}
			if withPrologue {
				opts.FramePrologue = func() []Record { return prologue }
			}
			hdr := testHeader()
			hdr.HeaderVersion = v
			w, err := NewWriter(&discardSeeker{}, hdr, opts)
			if err != nil {
				t.Fatal(err)
			}
			pass := func() {
				for i := range recs {
					if err := w.Add(&recs[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			pass() // warm up: grow every reused buffer
			frames := w.SealedFrames()
			if frames < 50 {
				t.Fatalf("v%d: only %d frames sealed; the pass must close frames and flush directories", v, frames)
			}
			dirs := float64(frames/opts.FramesPerDir + 1)
			if allocs := testing.AllocsPerRun(5, pass); allocs > dirs {
				t.Fatalf("v%d prologue=%v: %v allocations per pass of %d records in %d frames, want at most one per directory (%v)",
					v, withPrologue, allocs, len(recs), frames, dirs)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestScannerFailsAtFrameGranularity pins the scanner's failure
// contract: frames are decoded whole, so a frame whose last record is
// damaged fails at its first row — every record of the frames before it
// has been produced, none of its own — and the error is sticky. (The
// checksums that would catch this damage earlier are switched off or
// absent: v2 stores none.)
func TestScannerFailsAtFrameGranularity(t *testing.T) {
	for _, v := range []uint32{2, CurrentHeaderVersion} {
		sb, _ := writeMixedFile(t, 77, 300, v)
		data := append([]byte(nil), sb.Bytes()...)
		fes, err := openFile(t, sb).Frames()
		if err != nil {
			t.Fatal(err)
		}
		const bad = 3
		var before int
		for _, fe := range fes[:bad] {
			before += int(fe.Records)
		}
		// Break the frame's last record: a dangling continuation bit in
		// the stream's final varint (v4), or a length prefix claiming one
		// byte more than the frame holds (v2).
		raw := data[fes[bad].Offset : fes[bad].Offset+int64(fes[bad].Bytes)]
		if v >= 4 {
			raw[len(raw)-1] = 0x80
		} else {
			last := 0
			for off := 0; off < len(raw); {
				_, n, err := NextFramed(raw[off:])
				if err != nil {
					t.Fatal(err)
				}
				last, off = off, off+n
			}
			raw[last]++
		}
		f, err := NewFile(NewSeekBufferFrom(data))
		if err != nil {
			t.Fatal(err)
		}
		f.skipSums = true // reach the decoder: the CRC would stop this frame first
		for name, next := range map[string]func(*Scanner) error{
			"NextRecord": func(sc *Scanner) error { _, err := sc.NextRecord(); return err },
			"Next":       func(sc *Scanner) error { _, err := sc.Next(); return err },
		} {
			sc := f.Scan()
			n := 0
			var serr error
			for serr = next(sc); serr == nil; serr = next(sc) {
				n++
			}
			if errors.Is(serr, io.EOF) {
				t.Fatalf("v%d %s: scan reached EOF over a damaged frame", v, name)
			}
			if n != before {
				t.Fatalf("v%d %s: %d records before the error (%v), want the %d of the %d frames before the damaged one",
					v, name, n, serr, before, bad)
			}
			if again := next(sc); again != serr {
				t.Fatalf("v%d %s: error not sticky: %v then %v", v, name, serr, again)
			}
		}
		if _, err := f.FrameRecords(fes[bad]); err == nil {
			t.Fatalf("v%d: FrameRecords decoded the damaged frame", v)
		}
		if _, err := f.Validate(nil); err == nil {
			t.Fatalf("v%d: Validate accepted the damaged frame", v)
		}
	}
}

// TestRepairMatchesVerbatimCopy: Repair decodes every salvaged frame and
// re-adds its records. Before the frame codec was collapsed it copied
// v1–v3 payload bytes verbatim (and synthesized v4 payloads for the same
// entry point); the outputs must not have moved. On a clean file a
// verbatim copy under the source's own writer options is the source, byte
// for byte; on a damaged one the repaired file's hash is pinned to what
// the verbatim-copy Repair produced.
func TestRepairMatchesVerbatimCopy(t *testing.T) {
	pinned := map[uint32]string{ // sha256 of the repaired damaged fixture, per header version
		1: "0275d410006220d9589d33a90787cb5391db3cee1fff5162e5631a4acfc14400",
		2: "2383a546efa0397efdc20dd692b1f543ec0c39f1d200e2eb5a2f07981278f5e4",
		3: "0508307e3ed9db86a833f69ea9db7bdc934fa3f1dc328cbf3fce89d57b6dd845",
		4: "633cdf06778d6b67538f83abdc294a4bce63471facf0660d70ebdbeba46bc036",
	}
	opts := WriterOptions{FrameBytes: 512, FramesPerDir: 4} // writeMixedFile's
	repair := func(data []byte) ([]byte, *RepairReport) {
		f, err := NewFile(NewSeekBufferFrom(data))
		if err != nil {
			t.Fatal(err)
		}
		out := NewSeekBuffer()
		rep, err := Repair(f, f.Salvage(), out, opts)
		if err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), rep
	}
	for v := uint32(1); v <= CurrentHeaderVersion; v++ {
		sb, recs := writeMixedFile(t, 0x5a17+uint64(v), 500, v)
		clean, rep := repair(sb.Bytes())
		if string(clean) != string(sb.Bytes()) || rep.RecordsWritten != int64(len(recs)) {
			t.Fatalf("v%d: Repair of a clean file is not the file (%d bytes vs %d, %d of %d records)",
				v, len(clean), len(sb.Bytes()), rep.RecordsWritten, len(recs))
		}

		fes, err := openFile(t, sb).Frames()
		if err != nil {
			t.Fatal(err)
		}
		damaged := append([]byte(nil), sb.Bytes()...)
		for _, fi := range []int{2, 9} { // one frame early, one in a later directory
			fe := fes[fi]
			for i := int64(0); i < 12; i++ {
				damaged[fe.Offset+int64(fe.Bytes)/2+i] ^= 0xa5
			}
		}
		fixed, rep := repair(damaged)
		if rep.FramesWritten >= len(fes) || rep.FramesWritten < len(fes)-4 {
			t.Fatalf("v%d: repair kept %d of %d frames; the fixture should lose a few", v, rep.FramesWritten, len(fes))
		}
		rf, err := NewFile(NewSeekBufferFrom(fixed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rf.Validate(nil); err != nil {
			t.Fatalf("v%d: repaired file fails validation: %v", v, err)
		}
		sum := sha256.Sum256(fixed)
		if got := hex.EncodeToString(sum[:]); got != pinned[v] {
			t.Errorf("v%d: repaired file hashes to %s, want %s (%s)", v, got, pinned[v],
				fmt.Sprintf("%d frames, %d records", rep.FramesWritten, rep.RecordsWritten))
		}
	}
}
