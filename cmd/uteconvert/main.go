// Command uteconvert converts raw event trace files into self-defining
// interval files (the paper's convert utility, §3.1). It matches begin
// and end events into intervals, splits them into begin / continuation /
// end pieces at thread dispatch and nesting boundaries, re-assigns
// globally unique user-marker identifiers across all input files, and
// writes the description profile the interval files refer to.
//
// Inputs are converted concurrently over a bounded worker pool (-j;
// 0 = GOMAXPROCS). Marker identifiers are canonicalized before the
// record pass, so the outputs are byte-identical to a sequential run
// whatever the worker count. Two inputs claiming the same node id are
// rejected, since both would target the same output file.
//
// Usage:
//
//	uteconvert [-out-dir DIR] [-frame-bytes N] [-j N] [-tolerant] raw.0 raw.1 ...
//
// raw.N becomes DIR/trace.N.ute; the profile goes to DIR/profile.ute.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tracefw/internal/convert"
	"tracefw/internal/interval"
	"tracefw/internal/profile"
	"tracefw/internal/trace"
)

func main() {
	var (
		outDir     = flag.String("out-dir", ".", "output directory")
		frameBytes = flag.Int("frame-bytes", 0, "target frame payload size (0 = 64 KiB)")
		tolerant   = flag.Bool("tolerant", false, "accept mid-stream traces (wrap mode): skip orphan events instead of failing")
		jobs       = flag.Int("j", 0, "worker pool size: convert up to N inputs concurrently (0 = GOMAXPROCS, 1 = sequential)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "uteconvert: no input files")
		os.Exit(2)
	}
	if *jobs < 0 {
		fmt.Fprintln(os.Stderr, "uteconvert: -j must be >= 0")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	opts := convert.Options{
		Writer:   interval.WriterOptions{FrameBytes: *frameBytes},
		Markers:  convert.NewMarkerRegistry(),
		Tolerant: *tolerant,
		Parallel: *jobs,
	}
	start := time.Now()
	inputs := flag.Args()
	outputs := make([]string, len(inputs))
	seen := map[int]string{}
	for i, in := range inputs {
		node, err := peekNode(in)
		if err != nil {
			fatal(err)
		}
		if prev, dup := seen[node]; dup {
			fatal(fmt.Errorf("inputs %s and %s both claim node %d; each node must be converted exactly once", prev, in, node))
		}
		seen[node] = in
		outputs[i] = filepath.Join(*outDir, fmt.Sprintf("trace.%d.ute", node))
	}
	results, err := convert.ConvertAll(inputs, outputs, opts)
	if err != nil {
		fatal(err)
	}
	var events, records int64
	for i, res := range results {
		events += res.Events
		records += res.Records
		skipNote := ""
		if res.Skipped > 0 {
			skipNote = fmt.Sprintf(", %d orphan events skipped", res.Skipped)
		}
		fmt.Printf("uteconvert: %s -> %s (%d events, %d interval records, %d clock pairs%s)\n",
			inputs[i], outputs[i], res.Events, res.Records, len(res.ClockPairs), skipNote)
	}
	if err := profile.Standard().WriteFile(filepath.Join(*outDir, "profile.ute")); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	perEvent := float64(elapsed.Seconds()) / float64(maxI64(events, 1))
	fmt.Printf("uteconvert: %d events -> %d records in %v (%.7f sec/event)\n",
		events, records, elapsed, perEvent)
}

// peekNode reads the raw header to learn the node id without consuming
// the file.
func peekNode(path string) (int, error) {
	rd, err := trace.OpenFile(path)
	if err != nil {
		return 0, err
	}
	defer rd.Close()
	return rd.Info.Node, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uteconvert:", err)
	os.Exit(1)
}
