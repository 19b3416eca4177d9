package stats

import (
	"fmt"
	"sort"
	"strings"

	"tracefw/internal/clock"
	"tracefw/internal/interval"
)

// Table is one generated statistics table.
type Table struct {
	Name    string
	XLabels []string
	YLabels []string
	Rows    []Row
	// Skipped counts records that were selected but excluded because an
	// expression referenced a field their state type does not carry.
	Skipped int64
	// Engine reports which summary engine answered a time-resolved
	// table ("pyramid" or "scan", interval.SummarizeWindow's choice),
	// CellsUsed/FramesDecoded what it consulted and Lanes how many busy
	// (node, cpu) lanes the window holds — each costs the summary a row
	// of bins. Zero for spec-driven tables. Output is byte-identical
	// either way; the fields are observability only (they are not part
	// of TSV).
	Engine        string `json:",omitempty"`
	CellsUsed     int    `json:",omitempty"`
	FramesDecoded int    `json:",omitempty"`
	Lanes         int    `json:",omitempty"`
	// Group reports which group-by folded a spec-driven table's rows
	// over the run's frames, memoized partials included: "entry" (once
	// per dictionary entry), "dense" (direct index), "hash", or "mixed"
	// (dense in some frames, hash in others); empty when no frame had a
	// row for it. Observability only, like Engine.
	Group string `json:",omitempty"`
	// Evaluated is how many rows the table's row kernels visited over
	// the frames the run evaluated: the selected rows whose dictionary
	// entries pass the condition's key-only leading conjuncts; 0 for a
	// table folded per entry. It depends on which frames a request found
	// memoized, so unlike Group it is never part of an answer.
	Evaluated int64 `json:"-"`
}

// Run is one program run: its tables, how many frames it evaluated, how
// many it merged from partials the files' frame source
// (interval.File.SetFrameSource) had memoized, how many frames' records
// it fetched — a reused partial fetches none — and how many evaluations
// of a subexpression the tables share were answered by the frame's one
// result. The counts are observability only, like Table.Engine.
type Run struct {
	Tables          []*Table
	FramesEvaluated int
	PartialsReused  int
	FramesFetched   int
	SharedSaved     int64
}

// Row is one table row: the x tuple and the aggregated y values.
type Row struct {
	X []Value
	Y []float64
}

// Generate runs every table of the program over the interval files.
func Generate(program string, files []*interval.File) ([]*Table, error) {
	return GenerateOpts(program, files, interval.MapOptions{})
}

// GenerateOpts is Generate with explicit map-reduce options. Tables are
// byte-identical at every opts.Parallel: every sum is exact (exact.go),
// so per-frame partials merge in any order to the same bits.
// With opts.Window only records overlapping [Lo, Hi] count, and frames
// outside it are never decoded; bin() keeps full-run bounds, so bin
// numbers mean the same thing windowed or not.
func GenerateOpts(program string, files []*interval.File, opts interval.MapOptions) ([]*Table, error) {
	run, err := GenerateRun(program, files, opts)
	return run.Tables, err
}

// GenerateRun is GenerateOpts that also reports the run's frame counts.
// A whole frame's partials are looked up in, and stored to, the file's
// frame memo under the program text.
func GenerateRun(program string, files []*interval.File, opts interval.MapOptions) (Run, error) {
	specs, err := Parse(program)
	if err != nil {
		return Run{}, err
	}
	tStart, tEnd, err := runBounds(files)
	if err != nil {
		return Run{}, err
	}
	return compileProgram(specs).generate(program, files, opts, tStart, tEnd)
}

// runBounds computes overall run bounds over all inputs, for bin().
func runBounds(files []*interval.File) (tStart, tEnd clock.Time, err error) {
	firstStats := true
	for _, f := range files {
		fs, fe, n, err := f.Stats()
		if err != nil {
			return 0, 0, err
		}
		if n == 0 {
			continue
		}
		if firstStats || fs < tStart {
			tStart = fs
		}
		if firstStats || fe > tEnd {
			tEnd = fe
		}
		firstStats = false
	}
	return tStart, tEnd, nil
}

func groupKey(xs []Value) string {
	var b strings.Builder
	for _, v := range xs {
		if v.Str {
			b.WriteByte('s')
			b.WriteString(v.S)
		} else {
			fmt.Fprintf(&b, "n%g", v.F)
		}
		b.WriteByte('\x00')
	}
	return b.String()
}

// sortRows orders rows by x tuple: numbers numerically, strings
// lexically, numbers before strings per column.
func sortRows(t *Table) {
	sort.SliceStable(t.Rows, func(i, j int) bool {
		a, b := t.Rows[i].X, t.Rows[j].X
		for k := range a {
			if k >= len(b) {
				return false
			}
			av, bv := a[k], b[k]
			if av.Str != bv.Str {
				return !av.Str
			}
			if av.Str {
				if av.S != bv.S {
					return av.S < bv.S
				}
				continue
			}
			if av.F != bv.F {
				return av.F < bv.F
			}
		}
		return false
	})
}

// TSV renders the table as tab-separated values with a header row (the
// paper: "The generated tables is a tab-separated-value text file").
func (t *Table) TSV() string {
	var b strings.Builder
	for i, l := range append(append([]string{}, t.XLabels...), t.YLabels...) {
		if i > 0 {
			b.WriteByte('\t')
		}
		b.WriteString(l)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		for i, x := range r.X {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(x.Text())
		}
		for i, y := range r.Y {
			if i > 0 || len(r.X) > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(num(y).Text())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Cell looks up a row by x values (rendered text form) and returns the
// y column value; used by tests and the viewer.
func (t *Table) Cell(xs []string, ycol int) (float64, bool) {
	for _, r := range t.Rows {
		if len(r.X) != len(xs) {
			continue
		}
		match := true
		for i := range xs {
			if r.X[i].Text() != xs[i] {
				match = false
				break
			}
		}
		if match && ycol < len(r.Y) {
			return r.Y[ycol], true
		}
	}
	return 0, false
}
