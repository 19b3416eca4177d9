package interval

import (
	"context"
	"errors"
	"testing"

	"tracefw/internal/clock"
)

// TestWindowOpsAtFrameBoundaries probes FrameContaining, SeekTime, and
// FramesInWindow at exact frame start and end timestamps — the
// off-by-one surface of every window operation — across all four header
// versions, against oracles computed from the full frame and record
// lists.
func TestWindowOpsAtFrameBoundaries(t *testing.T) {
	for version := uint32(1); version <= CurrentHeaderVersion; version++ {
		t.Run(versionName(version), func(t *testing.T) {
			sb, _ := writeRandomFile(t, 0xb0+uint64(version), 700, version)
			f := openFile(t, sb)
			frames, err := f.Frames()
			if err != nil {
				t.Fatal(err)
			}
			if len(frames) < 8 {
				t.Fatalf("want several frames, got %d", len(frames))
			}

			var probes []clock.Time
			for _, fe := range frames {
				probes = append(probes, fe.Start, fe.End)
				if fe.Start > 0 {
					probes = append(probes, fe.Start-1)
				}
				probes = append(probes, fe.End+1)
			}

			for _, p := range probes {
				checkFrameContaining(t, f, frames, p)
				checkSeekTime(t, f, frames, p)
				checkFramesInWindow(t, f, frames, p, p)
			}
			// Windows spanning exactly one frame's bounds, and the
			// degenerate inverted window.
			for _, fe := range frames {
				checkFramesInWindow(t, f, frames, fe.Start, fe.End)
			}
			if got, err := f.FramesInWindow(frames[0].End+1, frames[0].End); err != nil || len(got) != 0 {
				// Inverted windows legitimately match nothing.
				for _, fe := range got {
					if !(fe.End >= frames[0].End+1 && fe.Start <= frames[0].End) {
						t.Fatalf("inverted window returned non-overlapping frame %+v", fe)
					}
				}
			}
		})
	}
}

func versionName(v uint32) string {
	return "v" + string(rune('0'+v))
}

// checkFrameContaining: the contract is "first frame with End >= t",
// derived from the frames' end-time ordering.
func checkFrameContaining(t *testing.T, f *File, frames []FrameEntry, p clock.Time) {
	t.Helper()
	fe, ok, err := f.FrameContaining(p)
	if err != nil {
		t.Fatalf("FrameContaining(%v): %v", p, err)
	}
	var want *FrameEntry
	for i := range frames {
		if frames[i].End >= p {
			want = &frames[i]
			break
		}
	}
	if (want != nil) != ok {
		t.Fatalf("FrameContaining(%v): ok=%v, oracle %v", p, ok, want != nil)
	}
	if ok && (fe.Offset != want.Offset || fe.Start != want.Start || fe.End != want.End) {
		t.Fatalf("FrameContaining(%v) = %+v, oracle %+v", p, fe, *want)
	}
}

// checkSeekTime: SeekTime is frame-granular — after SeekTime(p) the
// scanner yields every record from the first frame whose End >= p to
// the end of the file.
func checkSeekTime(t *testing.T, f *File, frames []FrameEntry, p clock.Time) {
	t.Helper()
	s := f.Scan()
	if err := s.SeekTime(p); err != nil {
		t.Fatalf("SeekTime(%v): %v", p, err)
	}
	got, err := s.All()
	if err != nil {
		t.Fatalf("All after SeekTime(%v): %v", p, err)
	}
	var want int
	for _, fe := range frames {
		if fe.End >= p {
			want += int(fe.Records)
		}
	}
	if len(got) != want {
		t.Fatalf("SeekTime(%v) yields %d records, oracle %d", p, len(got), want)
	}
}

// checkFramesInWindow: exact agreement with the overlap filter over the
// full frame list, including order.
func checkFramesInWindow(t *testing.T, f *File, frames []FrameEntry, lo, hi clock.Time) {
	t.Helper()
	got, err := f.FramesInWindow(lo, hi)
	if err != nil {
		t.Fatalf("FramesInWindow(%v, %v): %v", lo, hi, err)
	}
	var want []FrameEntry
	for _, fe := range frames {
		if fe.End >= lo && fe.Start <= hi {
			want = append(want, fe)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("FramesInWindow(%v, %v) returns %d frames, oracle %d", lo, hi, len(got), len(want))
	}
	for i := range got {
		if got[i].Offset != want[i].Offset {
			t.Fatalf("FramesInWindow(%v, %v)[%d] offset %d, oracle %d",
				lo, hi, i, got[i].Offset, want[i].Offset)
		}
	}
}

// frameLen is a map function returning a frame's record count.
func frameLen(_ int, fr *Frame) (int, error) {
	b, err := fr.Batch()
	if err != nil {
		return 0, err
	}
	return b.N, nil
}

// TestMapFramesContextCancelled: a cancelled context aborts the
// map-reduce engine with the context's error.
func TestMapFramesContextCancelled(t *testing.T) {
	sb, _ := writeRandomFile(t, 21, 500, CurrentHeaderVersion)
	f := openFile(t, sb)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := MapFrames([]*File{f}, MapOptions{Context: ctx},
		frameLen,
		func(_ int, _ FrameEntry, _ int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("MapFrames under cancelled context: %v, want context.Canceled", err)
	}
}

// TestMapFramesContextMidFlight cancels while frames are in flight; the
// engine must stop with the context error, not hang or succeed.
func TestMapFramesContextMidFlight(t *testing.T) {
	sb, _ := writeRandomFile(t, 22, 3000, CurrentHeaderVersion)
	f := openFile(t, sb)
	ctx, cancel := context.WithCancel(context.Background())
	frames := 0
	err := MapFrames([]*File{f}, MapOptions{Context: ctx, Parallel: 2},
		frameLen,
		func(_ int, _ FrameEntry, _ int) error {
			frames++
			if frames == 2 {
				cancel()
			}
			return nil
		})
	cancel()
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel: %v, want context.Canceled or nil", err)
	}
}
