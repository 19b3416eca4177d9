package render

import (
	"fmt"
	"strconv"
	"strings"

	"tracefw/internal/clock"
	"tracefw/internal/slog"
	"tracefw/internal/stats"
)

// PreviewSVG renders the whole-run preview of a SLOG file (the smaller
// window of the paper's Figure 7): one stacked bar per time bin, state
// durations stacked by color.
func PreviewSVG(p *slog.Preview) string {
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
		// Empty preview (no states or zero bins): an empty chart shell
		// rather than a panic.
		sb.WriteString(emptyPreviewNote(p))
		sb.WriteString("</svg>\n")
		return sb.String()
	}
	bins := len(p.Dur[0])
	// Peak stacked duration over bins scales the y axis.
	totals, peak := stackedPeak(p.Dur, -1)
	if allZero(totals) {
		// A window that overlaps no records: a placeholder note instead
		// of an axis over bounds no bar will ever reference.
		sb.WriteString(emptyPreviewNote(p))
		sb.WriteString("</svg>\n")
		return sb.String()
	}
	bw := w / float64(bins)
	colors := make([]string, len(keys))
	for s := range keys {
		colors[s] = colorFor(keys, keys[s])
	}
	// One <rect> per nonzero (bin, state), each appended into one reused
	// buffer — the bytes fmt's %.2f, %d and clock.Time's %.6fs would
	// print — and written to a builder sized for all of them up front.
	rects := 0
	for s := range p.Dur {
		for _, d := range p.Dur[s] {
			if d != 0 {
				rects++
			}
		}
	}
	sb.Grow(rects*160 + 4096)
	var line []byte
	for b := 0; b < bins; b++ {
		y := h + 20
		for s := range p.Dur {
			d := p.Dur[s][b]
			if d == 0 {
				continue
			}
			hh := float64(d) / float64(peak) * h
			y -= hh
			line = strconv.AppendFloat(append(line[:0], `<rect x="`...), left+float64(b)*bw, 'f', 2, 64)
			line = strconv.AppendFloat(append(line, `" y="`...), y, 'f', 2, 64)
			line = strconv.AppendFloat(append(line, `" width="`...), bw-0.5, 'f', 2, 64)
			line = strconv.AppendFloat(append(line, `" height="`...), hh, 'f', 2, 64)
			line = append(append(append(line, `" fill="`...), colors[s]...), `"><title>`...)
			line = strconv.AppendInt(append(append(line, keys[s]...), " bin "...), int64(b), 10)
			line = strconv.AppendFloat(append(line, ": "...), d.Seconds(), 'f', 6, 64)
			line = append(line, "s</title></rect>\n"...)
			sb.Write(line)
		}
	}
	// Axis: run time across bins. Legend only for states that appear.
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

// PreviewASCII renders the preview as a text histogram: one line per bin
// with a bar proportional to the bin's total non-Running duration.
func PreviewASCII(p *slog.Preview, width int) string {
	if width <= 0 {
		width = 60
	}
	runningIdx := -1
	for i, ty := range p.States {
		if ty.Name() == "Running" {
			runningIdx = i
		}
	}
	// Running time is background, not signal; exclude it from the bars.
	totals, peak := stackedPeak(p.Dur, runningIdx)
	var sb strings.Builder
	fmt.Fprintf(&sb, "preview: interesting time per bin, run [%v .. %v]\n", p.TStart, p.TEnd)
	if allZero(stackedTotals(p.Dur)) {
		sb.WriteString("(no data in window)\n")
		return sb.String()
	}
	for b := range totals {
		lo, _ := p.BinBounds(b)
		n := int(int64(totals[b]) * int64(width) / int64(peak))
		fmt.Fprintf(&sb, "%8.2fs |%s\n", lo.Seconds(), strings.Repeat("#", n))
	}
	return sb.String()
}

// StatsHeatmapSVG renders a two-free-variable table (like Figure 6's
// node × bin table) as a heatmap: x = second free variable, y = first,
// cell intensity = first y column.
func StatsHeatmapSVG(tb *stats.Table) string {
	// Collect axes.
	var ys, xs []string
	seenY, seenX := map[string]bool{}, map[string]bool{}
	vals := map[[2]string]float64{}
	var peak float64
	for _, r := range tb.Rows {
		if len(r.X) < 2 || len(r.Y) < 1 {
			continue
		}
		yk, xk := r.X[0].Text(), r.X[1].Text()
		if !seenY[yk] {
			seenY[yk] = true
			ys = append(ys, yk)
		}
		if !seenX[xk] {
			seenX[xk] = true
			xs = append(xs, xk)
		}
		vals[[2]string{yk, xk}] = r.Y[0]
		if r.Y[0] > peak {
			peak = r.Y[0]
		}
	}
	peak = peakOr1(peak)
	const cell = 14.0
	left, top := 80.0, 30.0
	wTotal := int(left + float64(len(xs))*cell + 20)
	hTotal := int(top + float64(len(ys))*cell + 50)
	var sb strings.Builder
	fmt.Fprintf(&sb, svgHeader, wTotal, hTotal)
	fmt.Fprintf(&sb, `<text x="4" y="14" font-weight="bold">%s</text>`+"\n", escape(tb.Name))
	for yi, yk := range ys {
		fmt.Fprintf(&sb, `<text x="4" y="%.1f">%s</text>`+"\n", top+float64(yi)*cell+11, escape(yk))
		for xi, xk := range xs {
			v := vals[[2]string{yk, xk}]
			shade := int(255 - v/peak*200)
			fmt.Fprintf(&sb, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="rgb(%d,%d,255)" stroke="#eee" stroke-width="0.5"><title>%s/%s = %g</title></rect>`+"\n",
				left+float64(xi)*cell, top+float64(yi)*cell, cell, cell, shade, shade, escape(yk), escape(xk), v)
		}
	}
	fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" fill="#555">%s →</text>`+"\n",
		left, top+float64(len(ys))*cell+16, escape(xLabel(tb)))
	sb.WriteString("</svg>\n")
	return sb.String()
}

// StatsBarsSVG renders a one-free-variable table as horizontal bars
// using the first y column.
func StatsBarsSVG(tb *stats.Table) string {
	var peak float64
	for _, r := range tb.Rows {
		if len(r.Y) > 0 && r.Y[0] > peak {
			peak = r.Y[0]
		}
	}
	peak = peakOr1(peak)
	const rowHt = 16.0
	left := 160.0
	w := 600.0
	hTotal := int(30 + float64(len(tb.Rows))*rowHt + 20)
	var sb strings.Builder
	fmt.Fprintf(&sb, svgHeader, int(left+w+80), hTotal)
	fmt.Fprintf(&sb, `<text x="4" y="14" font-weight="bold">%s</text>`+"\n", escape(tb.Name))
	for i, r := range tb.Rows {
		y := 24 + float64(i)*rowHt
		label := ""
		for j, x := range r.X {
			if j > 0 {
				label += "/"
			}
			label += x.Text()
		}
		v := 0.0
		if len(r.Y) > 0 {
			v = r.Y[0]
		}
		fmt.Fprintf(&sb, `<text x="4" y="%.1f">%s</text>`+"\n", y+11, escape(label))
		fmt.Fprintf(&sb, `<rect x="%.1f" y="%.1f" width="%.2f" height="%.1f" fill="%s"/>`+"\n",
			left, y, v/peak*w, rowHt-3, palette[0])
		fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" fill="#555">%g</text>`+"\n", left+v/peak*w+4, y+11, v)
	}
	sb.WriteString("</svg>\n")
	return sb.String()
}

// emptyPreviewNote is the shared placeholder drawn when a preview has
// nothing to show — no states, zero bins, or a window overlapping no
// records.
func emptyPreviewNote(p *slog.Preview) string {
	return fmt.Sprintf(`<text x="60" y="120" fill="#888">no data in window [%v .. %v]</text>`+"\n", p.TStart, p.TEnd)
}

func allZero(totals []clock.Time) bool {
	for _, t := range totals {
		if t != 0 {
			return false
		}
	}
	return true
}

// stackedTotals sums all states per bin (nothing skipped).
func stackedTotals(dur [][]clock.Time) []clock.Time {
	totals, _ := stackedPeak(dur, -1)
	return totals
}

func xLabel(tb *stats.Table) string {
	if len(tb.XLabels) >= 2 {
		return tb.XLabels[1]
	}
	return ""
}
