// Command utestats generates statistics tables from interval files (the
// paper's statistics utility, §3.2). Tables are specified in the
// declarative language:
//
//	table name=sample condition=(start < 2)
//	      x=("node", node) x=("processor", cpu)
//	      y=("avg(duration)", dura, avg)
//
// Without a program the pre-defined tables are generated, including the
// per-node × time-bin "interesting duration" table of Figure 6. Output
// is tab-separated values; -svg additionally writes the statistics
// viewer's rendering of each table.
//
// Usage:
//
//	utestats [-e PROGRAM | -f program.st | -timeresolved] [-bins N]
//	         [-out DIR] [-svg] [-j N] [-window lo:hi] [-v] [-check-profile]
//	         merged.ute [more.ute ...]
//
// All input files share one frame-decode worker pool (-j workers), and
// -window lo:hi (seconds; either side may be empty) restricts the tables
// to records overlapping the window, decoding only overlapping frames.
// The tables are byte-identical for every -j.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"tracefw/internal/clock"
	"tracefw/internal/interval"
	"tracefw/internal/render"
	"tracefw/internal/stats"
)

func main() {
	var (
		exprSrc  = flag.String("e", "", "inline statistics program")
		fileSrc  = flag.String("f", "", "statistics program file")
		bins     = flag.Int("bins", interval.DefaultBins, "time bins for the predefined tables")
		outDir   = flag.String("out", "", "write each table to DIR/<name>.tsv instead of stdout")
		svg      = flag.Bool("svg", false, "with -out, also write viewer SVGs")
		checkVer = flag.Bool("check-profile", false, "verify the inputs' profile version against profile.ute next to each input")
		jobs     = flag.Int("j", 0, "frame-decode workers across all inputs (0 = GOMAXPROCS)")
		window   = flag.String("window", "", "restrict tables to records overlapping lo:hi (seconds)")
		verbose  = flag.Bool("v", false, "report per-table summary engine, frames and lanes, and excluded-record counts on stderr")
		timeRes  = flag.Bool("timeresolved", false, "generate the time-resolved metric tables (-bins buckets) instead of a program")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "utestats: no input files")
		os.Exit(2)
	}
	if *jobs < 0 {
		fmt.Fprintln(os.Stderr, "utestats: -j must be >= 0")
		os.Exit(2)
	}
	if *bins < 1 || *bins > stats.MaxBins {
		fmt.Fprintf(os.Stderr, "utestats: -bins must be 1 to %d\n", stats.MaxBins)
		os.Exit(2)
	}
	if *svg && *outDir == "" {
		fmt.Fprintln(os.Stderr, "utestats: -svg needs -out")
		os.Exit(2)
	}
	program := *exprSrc
	if *fileSrc != "" {
		b, err := os.ReadFile(*fileSrc)
		if err != nil {
			fatal(err)
		}
		program = string(b)
	}
	if program == "" {
		program = stats.Predefined(*bins)
	}

	var files []*interval.File
	for _, p := range flag.Args() {
		f, err := interval.Open(p)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if *checkVer {
			if err := verifyProfile(p, f); err != nil {
				fatal(err)
			}
		}
		files = append(files, f)
	}
	var err error
	opts := interval.MapOptions{Parallel: *jobs}
	if *window != "" {
		lo, hi, err := clock.ParseWindow(*window)
		if err != nil {
			fatal(err)
		}
		opts.Window, opts.Lo, opts.Hi = true, lo, hi
	}
	var tables []*stats.Table
	if *timeRes {
		if *exprSrc != "" || *fileSrc != "" {
			fmt.Fprintln(os.Stderr, "utestats: -timeresolved does not take a program (-e/-f)")
			os.Exit(2)
		}
		tables, err = stats.TimeResolved(files, *bins, opts)
	} else {
		var run stats.Run
		run, err = stats.GenerateRun(program, files, opts)
		tables = run.Tables
		if err == nil && *verbose {
			fmt.Fprintf(os.Stderr, "utestats: shared kernels saved %d evaluations\n", run.SharedSaved)
		}
	}
	if err != nil {
		fatal(err)
	}
	for _, tb := range tables {
		if *verbose {
			how := ""
			switch {
			case tb.Engine != "":
				// Time-resolved tables report which summary engine
				// answered them — O(bins) pyramid cells or a frame scan —
				// how many frames it fetched, and how many lanes wide
				// the window is (each lane is a row of bins).
				how = fmt.Sprintf(" summary=%s frames=%d lanes=%d", tb.Engine, tb.FramesDecoded, tb.Lanes)
			default:
				// Spec-driven tables report which group-by folded their
				// rows — once per dictionary entry, a direct index, a
				// hash, or the last two each on some frames — and how
				// many rows their row kernels visited (0 folded per
				// entry).
				if tb.Group != "" {
					how = " group=" + tb.Group
				}
				how += fmt.Sprintf(" evaluated=%d", tb.Evaluated)
			}
			fmt.Fprintf(os.Stderr, "utestats: table %s:%s skipped=%d rows=%d\n",
				tb.Name, how, tb.Skipped, len(tb.Rows))
		}
		if *outDir == "" {
			fmt.Printf("# table %s\n%s\n", tb.Name, tb.TSV())
			continue
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(*outDir, tb.Name+".tsv")
		if err := os.WriteFile(path, []byte(tb.TSV()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("utestats: wrote %s (%d rows)\n", path, len(tb.Rows))
		if *svg {
			var doc string
			if len(tb.XLabels) >= 2 {
				doc = render.StatsHeatmapSVG(tb)
			} else {
				doc = render.StatsBarsSVG(tb)
			}
			spath := filepath.Join(*outDir, tb.Name+".svg")
			if err := os.WriteFile(spath, []byte(doc), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("utestats: wrote %s\n", spath)
		}
	}
}

// verifyProfile compares the interval file's profile version with the
// profile.ute in the same directory (paper §2.3: "Utilities and programs
// that read interval files check that they are using the correct
// profile").
func verifyProfile(path string, f *interval.File) error {
	pp := filepath.Join(filepath.Dir(path), "profile.ute")
	prof, err := profileRead(pp, f.Header.FieldMask)
	if err != nil {
		return fmt.Errorf("reading %s: %w", pp, err)
	}
	if prof.Version != f.Header.ProfileVersion {
		return fmt.Errorf("%s: profile version %#x does not match %s's %#x",
			path, f.Header.ProfileVersion, pp, prof.Version)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "utestats:", err)
	os.Exit(1)
}
