package merge_test

// Edge-case coverage for the k-way merge: inputs that tie on every key
// and inputs damaged mid-frame. Zero-source and single-source merges
// live in merge_test.go.

import (
	"bytes"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/profile"
)

// tieFile writes n records that all share the same end time, tagged with
// the stream index so the merge order is observable.
func tieFile(t *testing.T, stream, n int) []byte {
	t.Helper()
	sb := interval.NewSeekBuffer()
	w, err := interval.NewWriter(sb, interval.Header{
		ProfileVersion: profile.StdVersion,
		HeaderVersion:  interval.CurrentHeaderVersion,
		FieldMask:      profile.MaskIndividual,
		Markers:        map[uint64]string{},
	}, interval.WriterOptions{FrameBytes: 256, FramesPerDir: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r := interval.Record{
			Type:   events.EvRunning,
			Bebits: profile.Complete,
			Start:  clock.Second,
			Dura:   clock.Second,
			CPU:    uint16(stream),
			Thread: uint16(i),
		}
		if err := w.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sb.Bytes()
}

// TestMergeAllEqualEndTimes: when every record in every input carries
// the same end time, the tie-break must be wholly deterministic — lowest
// stream first, input order within a stream — byte-identical across all
// pipeline widths and equal to the sorted reference.
func TestMergeAllEqualEndTimes(t *testing.T) {
	const streams, perStream = 4, 9
	mkFiles := func() []*interval.File {
		files := make([]*interval.File, streams)
		for s := range files {
			f, err := interval.NewFile(interval.NewSeekBufferFrom(tieFile(t, s, perStream)))
			if err != nil {
				t.Fatal(err)
			}
			files[s] = f
		}
		return files
	}

	var ref []byte
	for _, width := range []int{1, 4, 8} {
		cfg := merge.NoPseudo(merge.Options{Estimator: merge.EstimatorNone, Parallel: width})
		out := interval.NewSeekBuffer()
		res, err := merge.Merge(mkFiles(), out, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if res.Records != streams*perStream {
			t.Fatalf("%+v: %d records, want %d", cfg, res.Records, streams*perStream)
		}
		if ref == nil {
			ref = out.Bytes()
		} else if !bytes.Equal(ref, out.Bytes()) {
			t.Fatalf("%+v: output differs from reference merge", cfg)
		}
	}

	// With every key equal, a stream is drained completely before the
	// next one starts: the winner of each all-way tie is always the
	// lowest live stream index.
	mf, err := interval.NewFile(interval.NewSeekBufferFrom(ref))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := mf.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != streams*perStream {
		t.Fatalf("merged file has %d records", len(recs))
	}
	if !bytes.Equal(encodeAll(recs), encodeAll(sortReference(t, mkFiles(), merge.EstimatorNone))) {
		t.Fatal("merged records differ from the sorted reference")
	}
	for i, r := range recs {
		if int(r.CPU) != i/perStream || int(r.Thread) != i%perStream {
			t.Fatalf("record %d: stream %d seq %d breaks the tie order", i, r.CPU, r.Thread)
		}
	}
}

// TestMergeTruncatedMidFrame: an input cut off inside a frame must fail
// the merge with an error — at any width — and never panic or produce
// output passing for complete.
func TestMergeTruncatedMidFrame(t *testing.T) {
	whole := tieFile(t, 0, 40)
	pf, err := interval.NewFile(interval.NewSeekBufferFrom(whole))
	if err != nil {
		t.Fatal(err)
	}
	frames, err := pf.Frames()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 2 {
		t.Fatalf("need multiple frames, got %d", len(frames))
	}
	last := frames[len(frames)-1]
	cut := last.Offset + int64(last.Bytes)/2

	tf, err := interval.NewFile(interval.NewSeekBufferFrom(whole[:cut]))
	if err != nil {
		// The truncated file may already fail to open; that is an
		// acceptable rejection, but then the merge path goes untested.
		t.Fatalf("truncated file does not open (%v); pick a later cut", err)
	}
	for _, par := range []int{1, 4} {
		if _, err := merge.Merge([]*interval.File{tf}, interval.NewSeekBuffer(),
			merge.NoPseudo(merge.Options{Estimator: merge.EstimatorNone, Parallel: par})); err == nil {
			t.Fatalf("Parallel=%d: merge of a mid-frame-truncated input succeeded", par)
		}
	}

	// A healthy companion input must not mask the damage.
	good, err := interval.NewFile(interval.NewSeekBufferFrom(tieFile(t, 1, 8)))
	if err != nil {
		t.Fatal(err)
	}
	tf2, err := interval.NewFile(interval.NewSeekBufferFrom(whole[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := merge.Merge([]*interval.File{tf2, good}, interval.NewSeekBuffer(),
		merge.NoPseudo(merge.Options{Estimator: merge.EstimatorNone})); err == nil {
		t.Fatal("merge with one truncated input succeeded")
	}
}
