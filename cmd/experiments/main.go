// Command experiments regenerates every table and figure of the paper's
// evaluation from the simulated system, writing TSV data and SVG
// renderings into an output directory:
//
//	fig1       accumulated timestamp discrepancies among 4 local clocks
//	table1     convert / slogmerge utility speed (sec/event) vs raw events
//	fig6       statistics viewer table: interesting time per node per bin
//	fig7       SLOG preview + frame fetch for the FLASH-like run
//	fig8       thread-activity view of the sPPM-like run
//	fig9       processor-activity view of the same run
//	clocksync  §2.2 ratio-estimator accuracy comparison
//	seekscale  §4 frame-fetch scalability vs file size
//
// Usage:
//
//	experiments [-out DIR] [-only fig1,table1,...] [-quick]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

type experiment struct {
	name string
	desc string
	run  func(*env) error
}

type env struct {
	out     string
	quick   bool
	summary *strings.Builder
}

func (e *env) logf(format string, args ...interface{}) {
	line := fmt.Sprintf(format, args...)
	fmt.Println(line)
	e.summary.WriteString(line)
	e.summary.WriteByte('\n')
}

func (e *env) write(name, content string) error {
	path := filepath.Join(e.out, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	e.logf("  wrote %s (%d bytes)", path, len(content))
	return nil
}

func main() {
	var (
		out   = flag.String("out", "out", "output directory")
		only  = flag.String("only", "", "comma-separated subset of experiments")
		quick = flag.Bool("quick", false, "smaller problem sizes (Table 1 sweep capped)")
	)
	flag.Parse()
	if err := regenerate(*out, *only, *quick); err != nil {
		fatal(err)
	}
}

// regenerate runs the experiments only names (every one when it is
// empty) into the directory out, with -quick's sizes when quick is set.
func regenerate(out, only string, quick bool) error {
	experiments := []experiment{
		{"fig1", "clock discrepancies among 4 local clocks (~140s)", runFig1},
		{"table1", "utility speed: sec/event of convert and slogmerge", runTable1},
		{"fig6", "statistics table: interesting time per node per 50 bins", runFig6},
		{"fig7", "SLOG preview and frame fetch (FLASH-like run)", runFig7},
		{"fig8", "thread-activity view (sPPM-like run)", runFig8},
		{"fig9", "processor-activity view (sPPM-like run)", runFig9},
		{"clocksync", "ratio estimator accuracy (§2.2)", runClockSync},
		{"seekscale", "frame fetch time vs file size (§4)", runSeekScale},
	}

	selected := map[string]bool{}
	if only != "" {
		for _, n := range strings.Split(only, ",") {
			selected[strings.TrimSpace(n)] = true
		}
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	e := &env{out: out, quick: quick, summary: &strings.Builder{}}
	for _, ex := range experiments {
		if len(selected) > 0 && !selected[ex.name] {
			continue
		}
		e.logf("== %s: %s", ex.name, ex.desc)
		if err := ex.run(e); err != nil {
			return fmt.Errorf("%s: %w", ex.name, err)
		}
	}
	return os.WriteFile(filepath.Join(out, "SUMMARY.txt"), []byte(e.summary.String()), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
