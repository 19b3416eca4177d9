package interval

import (
	"context"
	"errors"
	"io"
	"reflect"
	"sync/atomic"
	"testing"
)

// decodeOnly is a frame source that decodes through a function and
// memoizes nothing: a memo compute gets the frame through the function
// too.
type decodeOnly func(f *File, fe FrameEntry, scratch *Batch) (*Batch, error)

func (d decodeOnly) Decode(f *File, fe FrameEntry, scratch *Batch) (*Batch, error) {
	return d(f, fe, scratch)
}

func (d decodeOnly) Memo(_ context.Context, f *File, fe FrameEntry, _ string, compute func(*Batch, bool) (any, int64, error)) (any, bool, error) {
	b, err := d(f, fe, nil)
	if err != nil {
		return nil, false, err
	}
	v, _, err := compute(b, false)
	return v, false, err
}

// frameLen is a map function returning a frame's record count.
func frameLen(_ int, fr *Frame) (int, error) {
	b, err := fr.Batch()
	if err != nil {
		return 0, err
	}
	return b.N, nil
}

// hookFed opens sb with a frame source answering from a map filled on
// first use through ReadFrameBatch — the shape of a serving cache
// without eviction.
func hookFed(t *testing.T, sb *SeekBuffer) (*File, map[int64]*Batch) {
	t.Helper()
	f := openFile(t, sb)
	cache := map[int64]*Batch{}
	f.SetFrameSource(decodeOnly(func(f *File, fe FrameEntry, _ *Batch) (*Batch, error) {
		if b, ok := cache[fe.Offset]; ok {
			return b, nil
		}
		b, err := f.ReadFrameBatch(fe)
		if err == nil {
			cache[fe.Offset] = b
		}
		return b, err
	}))
	return f, cache
}

// TestHookBatchesAreShared: over a hook-fed file the engine hands mapFn
// the hook's own *Batch — no copy, no rebuild — so a warm run reads no
// frame and its allocation count does not grow with the record count;
// FrameBatch and the scanner serve the same batches.
func TestHookBatchesAreShared(t *testing.T) {
	type run struct {
		frames, records int
		allocs          float64
	}
	var runs []run
	// Ten times the records in frames ten times the size: about the same
	// number of frames, so a per-record cost would show as 10× allocs.
	for _, sz := range []struct{ n, frameBytes int }{{600, 512}, {6000, 5120}} {
		sb, _ := writeMixedFileFrames(t, 31, sz.n, CurrentHeaderVersion, sz.frameBytes)
		f, cache := hookFed(t, sb)
		pointers := func() []*Batch {
			var got []*Batch
			err := MapFrames([]*File{f}, MapOptions{Parallel: 1},
				func(_ int, fr *Frame) (*Batch, error) { return fr.Batch() },
				func(_ int, _ FrameEntry, b *Batch) error { got = append(got, b); return nil })
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		cold := pointers()
		decoded := f.DecodedFrames()
		if decoded != int64(len(cold)) || len(cold) != len(cache) {
			t.Fatalf("cold run: %d frames mapped, %d decoded, %d cached", len(cold), decoded, len(cache))
		}
		warm := pointers()
		fes, err := f.Frames()
		if err != nil {
			t.Fatal(err)
		}
		for i, fe := range fes {
			if warm[i] != cache[fe.Offset] || warm[i] != cold[i] {
				t.Fatalf("frame %d: warm run mapped %p, the hook holds %p", i, warm[i], cache[fe.Offset])
			}
			if b, err := f.FrameBatch(fe); err != nil || b != cache[fe.Offset] {
				t.Fatalf("frame %d: FrameBatch = %p, %v; the hook holds %p", i, b, err, cache[fe.Offset])
			}
			checkRightSized(t, warm[i])
		}
		// The scanner's hook branch walks the same batches row by row.
		var scanned []Record
		sc := f.Scan()
		for {
			r, err := sc.NextRecord()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			scanned = append(scanned, r)
		}
		if !reflect.DeepEqual(scanned, scanAll(t, sb)) {
			t.Fatal("hook-fed scan differs from a direct scan")
		}
		if got := f.DecodedFrames(); got != decoded {
			t.Fatalf("warm paths read %d more frames", got-decoded)
		}
		r := run{frames: len(fes), records: sz.n}
		if !raceEnabled {
			r.allocs = testing.AllocsPerRun(5, func() { pointers() })
		}
		runs = append(runs, r)
	}
	if raceEnabled {
		return
	}
	small, big := runs[0], runs[1]
	ceiling := float64(4*max(small.frames, big.frames) + 32)
	if small.allocs > ceiling || big.allocs > ceiling {
		t.Fatalf("warm run allocations %v (%d records, %d frames) and %v (%d records, %d frames) exceed the per-frame ceiling %v",
			small.allocs, small.records, small.frames, big.allocs, big.records, big.frames, ceiling)
	}
	t.Logf("warm allocs: %v over %d frames / %d records; %v over %d frames / %d records",
		small.allocs, small.frames, small.records, big.allocs, big.frames, big.records)
}

// TestHookScratchIsLent: the map-reduce engine lends the hook a pooled
// batch, which a hook that keeps nothing decodes into and returns, while
// FrameBatch and the scanner lend none — what they hand out must outlive
// the next frame. Every answer through such a hook equals the hook-less
// one, at one worker and at four.
func TestHookScratchIsLent(t *testing.T) {
	sb, want := writeMixedFileFrames(t, 32, 2000, CurrentHeaderVersion, 512)
	f := openFile(t, sb)
	var lent, unlent atomic.Int64
	f.SetFrameSource(decodeOnly(func(f *File, fe FrameEntry, scratch *Batch) (*Batch, error) {
		if scratch == nil {
			unlent.Add(1)
			return f.ReadFrameBatch(fe)
		}
		lent.Add(1)
		return scratch, f.DecodeFrameBatch(fe, scratch)
	}))
	fes, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		lent.Store(0)
		var got []Record
		err := MapFrames([]*File{f}, MapOptions{Parallel: par},
			func(_ int, fr *Frame) ([]Record, error) {
				b, err := fr.Batch()
				if err != nil {
					return nil, err
				}
				recs := make([]Record, b.N)
				for i := range recs {
					recs[i] = b.Row(i).clone()
				}
				return recs, nil
			},
			func(_ int, _ FrameEntry, recs []Record) error { got = append(got, recs...); return nil })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, scanAll(t, sb)) {
			t.Fatalf("Parallel %d: records through a scratch-decoding hook differ from a direct scan", par)
		}
		if lent.Load() != int64(len(fes)) || unlent.Load() != 0 {
			t.Fatalf("Parallel %d: MapFrames lent scratch on %d of %d frames, and none on %d", par, lent.Load(), len(fes), unlent.Load())
		}
	}
	lent.Store(0)
	scanned, err := f.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	if len(scanned) != len(want) || lent.Load() != 0 || unlent.Load() != int64(len(fes)) {
		t.Fatalf("scan: %d records of %d, scratch lent on %d frames and withheld on %d of %d", len(scanned), len(want), lent.Load(), unlent.Load(), len(fes))
	}
}
