package interval

import (
	"context"
	"fmt"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/xrand"
)

// lendingSource is a frame source that memoizes nothing: every lookup
// decodes its frame into one scratch batch, reused from one lookup to the
// next, and lends it to compute with store false — what a serving cache
// does for a frame it does not keep. The pyramid engine reads its edge
// remainders under the zero key, so a lookup under any other fails the
// test.
type lendingSource struct {
	t       *testing.T
	scratch Batch
	lookups int
}

func (l *lendingSource) Memo(_ context.Context, f *File, fe FrameEntry, key MemoKey, compute func(*Batch, bool) (any, int64, error)) (any, bool, error) {
	if key != (MemoKey{}) {
		l.t.Errorf("frame at %d looked up under the key %x", fe.Offset, key)
	}
	l.lookups++
	if err := f.DecodeFrameBatch(fe, &l.scratch); err != nil {
		return nil, false, err
	}
	v, _, err := compute(&l.scratch, false)
	return v, false, err
}

// TestRemainderMemoKeys holds the pyramid engine's edge remainders, read
// through a frame source that lends each frame and memoizes nothing, to
// the scan: random unaligned windows and bin counts — each window at two
// bin counts, which share the frames cut at its ends — over a file with
// a sidecar, every summary equal to the sidecar-less file's, and every
// frame the engine fetched a lookup under the zero key.
func TestRemainderMemoKeys(t *testing.T) {
	f, bare := openPair(t, func() *SeekBuffer { sb, _ := writePyrFile(t, 33, 1500, CurrentHeaderVersion); return sb }(), PyramidOptions{BaseCells: 64})
	src := &lendingSource{t: t}
	f.SetFrameSource(src)
	first, last, _, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(34)
	for k := 0; k < 24; k++ {
		lo := first + clock.Time(rng.Int63n(int64(last-first)))
		hi := lo + clock.Time(rng.Int63n(int64(last-lo)+1))
		bins := 1 + rng.Intn(40)
		if int64(hi-lo) < int64(bins) {
			continue
		}
		for _, o := range []WindowSummaryOptions{{Bins: bins, Lo: lo, Hi: hi}, {Bins: bins + 1 + rng.Intn(7), Lo: lo, Hi: hi}} {
			label := fmt.Sprintf("case %d [%d, %d] bins=%d", k, o.Lo, o.Hi, o.Bins)
			lookups := src.lookups
			pyr := summarize(t, label, f, o, "pyramid")
			assertSummariesEqual(t, label, pyr, summarize(t, label, bare, o, "scan"))
			if got := src.lookups - lookups; pyr.FramesDecoded != got {
				t.Fatalf("%s: %d frames fetched, %d lookups", label, pyr.FramesDecoded, got)
			}
		}
	}
	if src.lookups == 0 {
		t.Fatal("no window had an edge remainder")
	}
}
