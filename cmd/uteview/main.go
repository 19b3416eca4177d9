// Command uteview is the repository's Jumpshot stand-in (paper §4): it
// renders the whole-run preview and the multiple time-space diagrams
// derived from one trace, as SVG files or ASCII.
//
// Usage:
//
//	uteview -merged merged.ute [-slog trace.slog]
//	        [-view thread-activity|processor-activity|thread-processor|processor-thread]
//	        [-t0 S] [-t1 S] [-window lo:hi] [-j N]
//	        [-connected] [-ascii] [-width N] [-o out.svg]
//	uteview -slog trace.slog -preview [-ascii] [-o preview.svg]
//	uteview -slog trace.slog -frame-at S        # fetch the frame containing time S
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"

	"tracefw/internal/clock"
	"tracefw/internal/interval"
	"tracefw/internal/render"
	"tracefw/internal/slog"
	"tracefw/internal/stats"
)

func main() {
	t0, t1, frameAt := seconds(0), seconds(0), seconds(-clock.Second)
	flag.Var(&t0, "t0", "window start, `seconds`")
	flag.Var(&t1, "t1", "window end, `seconds` (0 = full run)")
	flag.Var(&frameAt, "frame-at", "print the SLOG frame containing this time (`seconds`)")
	var (
		mergedPath = flag.String("merged", "", "merged interval file")
		slogPath   = flag.String("slog", "", "SLOG file (preview, arrows, frame fetch)")
		viewName   = flag.String("view", "thread-activity", "time-space diagram kind")
		window     = flag.String("window", "", "diagram window as lo:hi seconds (shorthand for -t0/-t1)")
		jobs       = flag.Int("j", 0, "frame-decode workers for diagram construction (0 = GOMAXPROCS)")
		connected  = flag.Bool("connected", false, "connect interval pieces per call")
		ascii      = flag.Bool("ascii", false, "render ASCII to stdout instead of SVG")
		width      = flag.Int("width", 100, "ASCII width in columns")
		out        = flag.String("o", "", "output SVG path (default stdout)")
		preview    = flag.Bool("preview", false, "render the preview histogram instead of a diagram (from -slog, or computed from -merged)")
		bins       = flag.Int("bins", 0, "preview bins when computing from -merged (0 = default)")
		verbose    = flag.Bool("v", false, "report which engine answered and what it cost (stderr)")
		arrows     = flag.Bool("arrows", false, "overlay message arrows from the SLOG file")
		htmlOut    = flag.String("html", "", "write a self-contained interactive HTML viewer (needs -slog)")
	)
	flag.Parse()
	if *jobs < 0 {
		fmt.Fprintln(os.Stderr, "uteview: -j must be >= 0")
		os.Exit(2)
	}
	if *bins < 0 || *bins > stats.MaxBins {
		fmt.Fprintf(os.Stderr, "uteview: -bins must be 0 to %d\n", stats.MaxBins)
		os.Exit(2)
	}
	if t1 != 0 && t1 < t0 {
		fmt.Fprintln(os.Stderr, "uteview: -t1 is before -t0")
		os.Exit(2)
	}

	var sf *slog.File
	if *slogPath != "" {
		var err error
		if sf, err = slog.Open(*slogPath); err != nil {
			fatal(err)
		}
		defer sf.Close()
	}

	switch {
	case *htmlOut != "":
		if sf == nil {
			fatal(fmt.Errorf("-html needs -slog"))
		}
		page, err := render.ViewerHTML(sf)
		if err != nil {
			fatal(err)
		}
		emit(*htmlOut, page)
		return

	case frameAt >= 0:
		if sf == nil {
			fatal(fmt.Errorf("-frame-at needs -slog"))
		}
		i, ok := sf.FrameAt(clock.Time(frameAt))
		if !ok {
			fatal(fmt.Errorf("no frame contains %gs", clock.Time(frameAt).Seconds()))
		}
		fd, err := sf.ReadFrame(i)
		if err != nil {
			fatal(err)
		}
		fe := sf.Index[i]
		fmt.Printf("frame %d [%v .. %v]: %d intervals, %d pseudo, %d arrows, %d crossing\n",
			i, fe.Start, fe.End, len(fd.Intervals), len(fd.Pseudo), len(fd.Arrows), len(fd.Crossing))
		for _, r := range fd.Pseudo {
			fmt.Printf("  pseudo   %v\n", r)
		}
		for _, r := range fd.Intervals {
			fmt.Printf("  interval %v\n", r)
		}
		for _, a := range fd.Arrows {
			fmt.Printf("  arrow    n%d/t%d -> n%d/t%d  [%v -> %v] %dB seq %d\n",
				a.SrcNode, a.SrcThread, a.DstNode, a.DstThread, a.SendTime, a.RecvTime, a.Bytes, a.Seqno)
		}
		return

	case *preview && sf != nil:
		if *ascii {
			fmt.Print(render.PreviewASCII(sf.Preview, *width))
			return
		}
		emit(*out, render.PreviewSVG(sf.Preview))
		return

	case *preview && *mergedPath == "":
		fatal(fmt.Errorf("-preview needs -slog or -merged"))
	}

	if *mergedPath == "" {
		fatal(fmt.Errorf("need -merged (or -preview/-frame-at with -slog)"))
	}
	mf, err := interval.Open(*mergedPath)
	if err != nil {
		fatal(err)
	}
	defer mf.Close()

	if *preview {
		popts := render.PreviewOptions{Bins: *bins}
		popts.T0, popts.T1 = clock.Time(t0), clock.Time(t1)
		if *window != "" {
			popts.T0, popts.T1 = resolveWindow(mf, *window)
		}
		pr, err := render.BuildPreview(mf, popts)
		if err != nil {
			fatal(err)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "uteview: preview answered by %s engine (%d cells, %d frames decoded)\n",
				pr.Engine, pr.CellsUsed, pr.FramesDecoded)
		}
		if *ascii {
			fmt.Print(render.PreviewASCII(pr.Preview, *width))
			return
		}
		emit(*out, render.PreviewSVG(pr.Preview))
		return
	}

	kind, err := render.ParseView(*viewName)
	if err != nil {
		fatal(err)
	}
	opts := render.Options{
		T0:        clock.Time(t0),
		T1:        clock.Time(t1),
		Connected: *connected,
		Parallel:  *jobs,
	}
	if *window != "" {
		opts.T0, opts.T1 = resolveWindow(mf, *window)
	}
	if *arrows {
		if sf == nil {
			fatal(fmt.Errorf("-arrows needs -slog"))
		}
		for i := range sf.Index {
			fd, err := sf.ReadFrame(i)
			if err != nil {
				fatal(err)
			}
			opts.Arrows = append(opts.Arrows, fd.Arrows...)
		}
	}
	d, err := render.BuildDiagram(mf, kind, opts)
	if err != nil {
		fatal(err)
	}
	if *ascii {
		fmt.Print(d.ASCII(*width))
		return
	}
	emit(*out, d.SVG())
}

// resolveWindow parses a -window flag and fills its open-ended sides
// from the run bounds so the rendered axis stays meaningful. Explicit
// bounds are kept even when they fall outside the run: a window that
// overlaps no records must render the empty placeholder, not silently
// snap back to the full run (which the renderers would read an
// inverted window as).
func resolveWindow(mf *interval.File, window string) (clock.Time, clock.Time) {
	lo, hi, err := clock.ParseWindow(window)
	if err != nil {
		fatal(err)
	}
	fs, fe, _, err := mf.Stats()
	if err != nil {
		fatal(err)
	}
	if lo == math.MinInt64 {
		lo = fs
	}
	if hi == math.MaxInt64 {
		hi = fe
	}
	if hi <= lo {
		hi = lo + 1
	}
	return lo, hi
}

func emit(path, doc string) {
	if path == "" {
		fmt.Print(doc)
		return
	}
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "uteview: wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uteview:", err)
	os.Exit(1)
}

// seconds is a time flag given in seconds, read exactly by
// clock.ParseSeconds: a value the time range cannot hold is a usage
// error.
type seconds clock.Time

func (s *seconds) Set(v string) error {
	t, err := clock.ParseSeconds(v)
	*s = seconds(t)
	return err
}

func (s *seconds) String() string {
	return strconv.FormatFloat(clock.Time(*s).Seconds(), 'g', -1, 64)
}
