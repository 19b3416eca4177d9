// Frame sizing: one frame-full rule behind Add and AddPayload, measured
// on a frame's regular records. External test package so the pinned
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

// writeFile writes recs through add and reopens the result.
func writeFile(t *testing.T, opts interval.WriterOptions, recs []interval.Record,
	add func(*interval.Writer, *interval.Record) error) (*interval.File, []interval.FrameEntry) {
	t.Helper()
	sb := interval.NewSeekBuffer()
	w, err := interval.NewWriter(sb, interval.Header{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := add(w, &recs[i]); err != nil {
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

// frameCounts returns the record count of every frame recs fall into.
func frameCounts(t *testing.T, opts interval.WriterOptions, recs []interval.Record,
	add func(*interval.Writer, *interval.Record) error) []uint32 {
	t.Helper()
	_, fes := writeFile(t, opts, recs, add)
	counts := make([]uint32, len(fes))
	for i, fe := range fes {
		counts[i] = fe.Records
	}
	return counts
}

func TestAddAndAddPayloadCloseFramesAlike(t *testing.T) {
	recs := sizedRecords(500)
	opts := interval.WriterOptions{FrameBytes: 1000, FramesPerDir: 3}
	byAdd := frameCounts(t, opts, recs, (*interval.Writer).Add)
	byPayload := frameCounts(t, opts, recs, func(w *interval.Writer, r *interval.Record) error {
		return w.AddPayload(r.AppendPayload(nil), r.Start, r.End())
	})
	if len(byAdd) < 10 || !reflect.DeepEqual(byAdd, byPayload) {
		t.Fatalf("frame record counts differ:\n Add        %v\n AddPayload %v", byAdd, byPayload)
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
	f, fes := writeFile(t, interval.WriterOptions{
		FrameBytes:    1000,
		FramePrologue: func() []interval.Record { return open },
	}, sizedRecords(2000), (*interval.Writer).Add)
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
