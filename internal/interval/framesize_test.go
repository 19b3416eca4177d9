// Frame sizing: one frame-full rule, measured on the fixed-width size of
// a frame's regular records. External test package so the pinned
// file can come out of the real converter.
package interval_test

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/convert"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/mpisim"
	"tracefw/internal/profile"
	"tracefw/internal/testutil"
)

// sizedRecords returns n end-time-ordered records of mixed encoded
// sizes (26, 74 and 50 bytes framed).
func sizedRecords(n int) []interval.Record {
	recs := make([]interval.Record, n)
	for i := range recs {
		r := interval.Record{Type: events.EvRunning, Bebits: profile.Complete,
			Start: clock.Time(i) * 10, Dura: 5, Thread: uint16(i % 7)}
		switch i % 3 {
		case 1:
			r.Type, r.Extra = events.EvMPISend, []uint64{1, 2, 3, 4, 5, uint64(i)}
		case 2:
			r.Type, r.Extra = events.EvMarkerState, []uint64{9, uint64(i), 0}
		}
		recs[i] = r
	}
	return recs
}

// writeFile writes recs under hdr and opts and reopens the result.
func writeFile(t *testing.T, hdr interval.Header, opts interval.WriterOptions, recs []interval.Record) (*interval.File, []interval.FrameEntry) {
	t.Helper()
	sb := interval.NewSeekBuffer()
	w, err := interval.NewWriter(sb, hdr, opts)
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
	f, err := interval.NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	fes, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	return f, fes
}

// TestFramesCloseOnFixedWidthSize: the frame-full rule is stated in
// Record.EncodedSize whatever the writer encodes, so a frame closes with
// the record that takes its fixed-width size to FrameBytes — at header
// version 4, whose frames are far smaller on disk, exactly as at 3.
func TestFramesCloseOnFixedWidthSize(t *testing.T) {
	recs := sizedRecords(500)
	opts := interval.WriterOptions{FrameBytes: 1000, FramesPerDir: 3}
	var want []uint32 // the rule, applied by hand
	var n uint32
	size := 0
	for i := range recs {
		n++
		if size += recs[i].EncodedSize(); size >= opts.FrameBytes {
			want = append(want, n)
			n, size = 0, 0
		}
	}
	if n > 0 {
		want = append(want, n)
	}
	for _, v := range []uint32{3, interval.CurrentHeaderVersion} {
		_, fes := writeFile(t, interval.Header{HeaderVersion: v}, opts, recs)
		got := make([]uint32, len(fes))
		for i, fe := range fes {
			got[i] = fe.Records
			if v < 4 && i < len(fes)-1 && int(fe.Bytes) < opts.FrameBytes {
				t.Fatalf("v%d frame %d closed at %d bytes, under FrameBytes", v, i, fe.Bytes)
			}
		}
		if len(got) < 10 || !reflect.DeepEqual(got, want) {
			t.Fatalf("v%d frame record counts:\n got  %v\n want %v", v, got, want)
		}
	}
}

// TestFrameHoldsAsMuchAsItsPrologue: a prologue larger than FrameBytes
// does not close the frame; the frame closes once its regular records
// are no fewer and no smaller than the prologue.
func TestFrameHoldsAsMuchAsItsPrologue(t *testing.T) {
	// 60 open states of 74 bytes: a 4440-byte prologue against a
	// 1000-byte FrameBytes.
	open := make([]interval.Record, 60)
	for i := range open {
		open[i] = interval.Record{Type: events.EvMPISend, Bebits: profile.Continuation,
			Thread: uint16(i), Extra: make([]uint64, 6)}
	}
	var prologueBytes int
	for i := range open {
		prologueBytes += open[i].EncodedSize()
	}
	f, fes := writeFile(t, interval.Header{}, interval.WriterOptions{
		FrameBytes:    1000,
		FramePrologue: func() []interval.Record { return open },
	}, sizedRecords(2000))
	if len(fes) < 5 {
		t.Fatalf("only %d frames", len(fes))
	}
	for i, fe := range fes[:len(fes)-1] {
		frecs, err := f.FrameRecords(fe)
		if err != nil {
			t.Fatal(err)
		}
		var regBytes, sansLast int
		for j := len(open); j < len(frecs); j++ {
			sansLast = regBytes
			regBytes += frecs[j].EncodedSize()
		}
		if n := len(frecs) - len(open); n < len(open) || regBytes < prologueBytes {
			t.Fatalf("frame %d closed with %d regular records (%d B) after a prologue of %d (%d B)",
				i, n, regBytes, len(open), prologueBytes)
		}
		// ...and no later than that: 74-byte prologue records are the
		// largest there are, so bytes are what kept the frame open.
		if sansLast >= prologueBytes {
			t.Fatalf("frame %d stayed open past the rule: %d B of regular records before its last", i, sansLast)
		}
	}
}

// TestFrameBoundariesWithoutPrologueUnchanged pins a converted per-node
// file (the converter installs no FramePrologue): sizing frames by
// their regular records must not move a single byte of it.
func TestFrameBoundariesWithoutPrologueUnchanged(t *testing.T) {
	sh := testutil.Shape{Nodes: 2, TasksPerNode: 2, CPUs: 1, Seed: 3}
	raws := testutil.RunWorkload(t, sh, func(p *mpisim.Proc) {
		m := p.DefineMarker("phase")
		for i := 0; i < 40; i++ {
			p.InMarker(m, func() { p.Compute(100 * clock.Microsecond) })
			p.Allreduce(64)
		}
	})
	outs, _, err := convert.ConvertBuffers(raws, convert.Options{
		Writer: interval.WriterOptions{FrameBytes: 2048, FramesPerDir: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := interval.NewFile(outs[0])
	if err != nil {
		t.Fatal(err)
	}
	fes, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	if len(fes) < 4 {
		t.Fatalf("only %d frames", len(fes))
	}
	sum := sha256.Sum256(outs[0].Bytes())
	const want = "4dab540b784502e2b2f6ad89cef7bf096a8ecf6cf8730c15b3eddadc056adece" // as written before the rule changed
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("converted node-0 file hashes to %s, want %s (%d frames)", got, want, len(fes))
	}
}
