// Command utemerge merges per-node interval files into a single interval
// file (the paper's merge utility, §3.1): it aligns the files by their
// first global clock records, adjusts local timestamps for clock drift
// (RMS-of-adjacent-slopes ratio by default), merges by end time with a
// balanced tree, and plants zero-duration continuation pseudo-intervals
// at frame starts. With -slog it additionally writes the SLOG file for
// the viewer (the paper's slogmerge).
//
// The merge itself is one synchronous pass; -j (default: GOMAXPROCS)
// is the width of what runs beside it — clock-pair extraction across the
// inputs and the SLOG build. Output is byte-identical at every width.
//
// -pyramid builds the merged file's summary sidecar unless it would
// outweigh the trace, which is reported and is not an error.
//
// With -slog, whatever is built beside the merged file is built from one
// decode of it (slog.MergeFiles): the SLOG's first pass watches the
// merge's own frames as they are sealed, and its second pass feeds the
// pyramid. Without it, -pyramid is the one decode (BuildPyramidSidecar).
//
// Usage:
//
//	utemerge [-o merged.ute] [-slog trace.slog] [-pyramid]
//	         [-estimator rms|lastpair|piecewise|none]
//	         [-outlier-tol T] [-frame-bytes N] [-j N]
//	         trace.0.ute trace.1.ute ...
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/slog"
)

func main() {
	var (
		out        = flag.String("o", "merged.ute", "merged interval file")
		slogOut    = flag.String("slog", "", "also write an SLOG file here")
		estimator  = flag.String("estimator", "rms", "clock ratio estimator: rms, lastpair, piecewise, none")
		outlierTol = flag.Float64("outlier-tol", 1e-3, "clock-pair outlier tolerance (0 disables filtering)")
		frameBytes = flag.Int("frame-bytes", 0, "target frame payload size (0 = 64 KiB)")
		jobs       = flag.Int("j", 0, "clock-pair extraction and SLOG build workers (0 = GOMAXPROCS)")
		pyramid    = flag.Bool("pyramid", false, "also build the merged file's summary-pyramid sidecar (<out>.pyr), unless it would outweigh the trace")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "utemerge: no input files")
		os.Exit(2)
	}
	if *jobs < 0 {
		fmt.Fprintln(os.Stderr, "utemerge: -j must be >= 0")
		os.Exit(2)
	}
	est, err := merge.ParseEstimator(*estimator)
	if err != nil {
		fatal(err)
	}
	opts := merge.Options{
		Writer:     interval.WriterOptions{FrameBytes: *frameBytes},
		Estimator:  est,
		OutlierTol: *outlierTol,
		Parallel:   *jobs,
	}
	var pyr *interval.PyramidOptions
	if *pyramid {
		pyr = &interval.PyramidOptions{}
	}
	start := time.Now()
	var res *merge.Result
	var sidecar *interval.SidecarBuild
	var bres *slog.BuildResult
	if *slogOut != "" {
		mr, err := slog.MergeFiles(flag.Args(), *out, *slogOut, pyr, opts,
			slog.Options{FrameBytes: *frameBytes, Parallel: *jobs})
		if err != nil {
			fatal(err)
		}
		res, sidecar, bres = mr.Merge, mr.Sidecar, mr.Slog
	} else {
		if res, err = merge.MergeFiles(flag.Args(), *out, opts); err != nil {
			fatal(err)
		}
		if pyr != nil {
			if sidecar, err = interval.BuildPyramidSidecar(*out, *pyr); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Printf("utemerge: %d inputs -> %s (%d records, %d pseudo) in %v\n",
		res.Inputs, *out, res.Records, res.Pseudo, time.Since(start))
	for i, r := range res.Ratios {
		fmt.Printf("utemerge:   input %d: anchor (G=%v, L=%v), ratio %.9f\n",
			i, res.Anchors[i].Global, res.Anchors[i].Local, r)
	}
	if sb := sidecar; sb != nil {
		if sb.Declined() {
			fmt.Printf("utemerge: pyramid not written: the sidecar (%d bytes) would outweigh the trace (%d bytes); queries scan\n",
				sb.Bytes, sb.TraceBytes)
		} else {
			p, cells := sb.Pyramid, 0
			for _, lv := range p.Levels {
				cells += len(lv.Cells)
			}
			fmt.Printf("utemerge: pyramid %s (%d levels, %d cells, base width %v)\n",
				interval.PyramidPath(*out), len(p.Levels), cells, p.BaseWidth)
		}
	}
	if bres != nil {
		fmt.Printf("utemerge: slog %s (%d frames, %d arrows, %d pseudo records)\n",
			*slogOut, bres.Frames, bres.Arrows, bres.Pseudo)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "utemerge:", err)
	os.Exit(1)
}
