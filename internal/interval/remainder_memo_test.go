package interval

import (
	"context"
	"fmt"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/xrand"
)

// refusingSource is a frame source that fails the test on any lookup:
// the pyramid engine reads its edge remainders itself, and a value of one
// window's edges is never memoized.
type refusingSource struct{ t *testing.T }

func (r refusingSource) Memo(_ context.Context, _ *File, fe FrameEntry, key MemoKey, _ func(*Batch, bool) (any, int64, error)) (any, bool, error) {
	r.t.Errorf("frame at %d looked up under the key %x", fe.Offset, key)
	return nil, false, fmt.Errorf("frame at %d looked up", fe.Offset)
}

// TestRemainderMemoKeys holds the pyramid engine's edge remainders, over
// a file whose frame source fails on any lookup, to the scan: random
// unaligned windows and bin counts — each window at two bin counts,
// which share the frames cut at its ends — over a file with a sidecar,
// every summary equal to the sidecar-less file's, and every frame the
// engine reports fetched one read of the file.
func TestRemainderMemoKeys(t *testing.T) {
	f, bare := openPair(t, func() *SeekBuffer { sb, _ := writePyrFile(t, 33, 1500, CurrentHeaderVersion); return sb }(), PyramidOptions{BaseCells: 64})
	f.SetFrameSource(refusingSource{t})
	first, last, _, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	fetched := 0
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
			reads := f.DecodedFrames()
			pyr := summarize(t, label, f, o, "pyramid")
			assertSummariesEqual(t, label, pyr, summarize(t, label, bare, o, "scan"))
			if got := f.DecodedFrames() - reads; int64(pyr.FramesDecoded) != got {
				t.Fatalf("%s: %d frames fetched, %d frame reads", label, pyr.FramesDecoded, got)
			}
			fetched += pyr.FramesDecoded
		}
	}
	if fetched == 0 {
		t.Fatal("no window had an edge remainder")
	}
}
