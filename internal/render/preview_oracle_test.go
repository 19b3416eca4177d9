package render

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/slog"
	"tracefw/internal/xrand"
)

// previewSVGOracle is PreviewSVG with every bar written by fmt.Fprintf:
// the reference the strconv-appending renderer must match byte for byte.
func previewSVGOracle(p *slog.Preview) string {
	keys := make([]string, len(p.States))
	for i, ty := range p.States {
		keys[i] = ty.Name()
	}
	const (
		w      = 800.0
		h      = 220.0
		left   = 60.0
		bottom = 40.0
	)
	var sb strings.Builder
	fmt.Fprintf(&sb, svgHeader, int(w+left+20), int(h+bottom+40))
	sb.WriteString(`<text x="4" y="14" font-weight="bold">preview</text>` + "\n")
	if len(p.Dur) == 0 || len(p.Dur[0]) == 0 {
		sb.WriteString(emptyPreviewNote(p))
		sb.WriteString("</svg>\n")
		return sb.String()
	}
	bins := len(p.Dur[0])
	totals, peak := stackedPeak(p.Dur, -1)
	if allZero(totals) {
		sb.WriteString(emptyPreviewNote(p))
		sb.WriteString("</svg>\n")
		return sb.String()
	}
	bw := w / float64(bins)
	for b := 0; b < bins; b++ {
		y := h + 20
		for s := range p.Dur {
			d := p.Dur[s][b]
			if d == 0 {
				continue
			}
			hh := float64(d) / float64(peak) * h
			y -= hh
			fmt.Fprintf(&sb, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s"><title>%s bin %d: %v</title></rect>`+"\n",
				left+float64(b)*bw, y, bw-0.5, hh, colorFor(keys, keys[s]), keys[s], b, d)
		}
	}
	timeAxis(&sb, p.TStart, p.TEnd, 5, left, w, h+34, 0, 0, "%.1fs")
	legend(&sb, keys, func(s int) bool {
		var tot clock.Time
		for _, d := range p.Dur[s] {
			tot += d
		}
		return tot != 0
	}, left, left+w-120, h+48.0)
	sb.WriteString("</svg>\n")
	return sb.String()
}

// TestPreviewSVGMatchesFmtOracle: on random previews — any bin count,
// sparse and dense bins, durations from a nanosecond to hours, and the
// empty and all-zero ones that draw the placeholder — PreviewSVG writes
// exactly what the fmt-formatted oracle does.
func TestPreviewSVGMatchesFmtOracle(t *testing.T) {
	rng := xrand.New(51)
	previews := []*slog.Preview{
		{States: events.StateTypes},
		{States: events.StateTypes, Dur: make([][]clock.Time, len(events.StateTypes))},
	}
	zero := &slog.Preview{TEnd: clock.Second, States: events.StateTypes, Dur: make([][]clock.Time, len(events.StateTypes))}
	for s := range zero.Dur {
		zero.Dur[s] = make([]clock.Time, 9)
	}
	previews = append(previews, zero)
	for k := 0; k < 60; k++ {
		bins := 1 + rng.Intn(300)
		t0 := clock.Time(rng.Int63n(int64(10 * clock.Second)))
		p := &slog.Preview{TStart: t0, TEnd: t0 + 1 + clock.Time(rng.Int63n(int64(100*clock.Second))), States: events.StateTypes, Dur: make([][]clock.Time, len(events.StateTypes))}
		density := rng.Intn(4)
		scale := []int64{1000, int64(clock.Millisecond), int64(clock.Second), math.MaxInt64 / 1024}[rng.Intn(4)]
		for s := range p.Dur {
			p.Dur[s] = make([]clock.Time, bins)
			for b := range p.Dur[s] {
				if rng.Intn(4) <= density {
					p.Dur[s][b] = clock.Time(1 + rng.Int63n(scale))
				}
			}
		}
		previews = append(previews, p)
	}
	for i, p := range previews {
		if got, want := PreviewSVG(p), previewSVGOracle(p); got != want {
			t.Fatalf("preview %d: PreviewSVG differs from the fmt oracle\n--- got ---\n%.800s\n--- want ---\n%.800s", i, got, want)
		}
	}
}
