package stats

import (
	"context"
	"errors"
	"fmt"
	"math"
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
	// expression referenced a field their state type does not carry
	// (the errSkip path) — previously these vanished silently.
	Skipped int64
	// Columnar reports which evaluator produced the table: true for the
	// vectorized kernels, false when the program was not lowerable and
	// the record-at-a-time evaluator ran instead. Output is byte-identical
	// either way.
	Columnar bool
	// Engine reports which summary engine answered a time-resolved
	// table ("pyramid" or "scan", interval.SummarizeWindow's choice) and
	// CellsUsed/FramesDecoded what it consulted. Zero for spec-driven
	// tables. Output is byte-identical either way; the fields are
	// observability only (they are not part of TSV).
	Engine        string `json:",omitempty"`
	CellsUsed     int    `json:",omitempty"`
	FramesDecoded int    `json:",omitempty"`
}

// Row is one table row: the x tuple and the aggregated y values.
type Row struct {
	X []Value
	Y []float64
}

type cell struct {
	sum, min, max float64
	n             int64
}

type group struct {
	x []Value
	y []cell
}

// Options tunes table generation.
type Options struct {
	// Parallel is the frame-decode worker count handed to the interval
	// map-reduce engine; <= 0 means GOMAXPROCS. Results are
	// byte-identical for every worker count: aggregation is per-frame
	// partials merged in frame order, so float summation order never
	// depends on scheduling.
	Parallel int
	// Window restricts aggregation to records overlapping [Lo, Hi]
	// (end >= Lo and start <= Hi). Frames — and on current-format files
	// whole directories — outside the window are never decoded. The
	// bin() builtin keeps using full-run bounds so bin numbers mean the
	// same thing windowed or not.
	Window bool
	Lo, Hi clock.Time
	// Context, when non-nil, aborts generation once it is cancelled
	// (checked per frame by the map-reduce engine). The trace query
	// service sets it to the request context; CLIs leave it nil.
	Context context.Context
}

// Generate runs every table of the program over the interval files.
func Generate(program string, files []*interval.File) ([]*Table, error) {
	return GenerateOpts(program, files, Options{})
}

// GenerateOpts is Generate with explicit Options.
func GenerateOpts(program string, files []*interval.File, opts Options) ([]*Table, error) {
	specs, err := Parse(program)
	if err != nil {
		return nil, err
	}
	return GenerateSpecsOpts(specs, files, opts)
}

// GenerateSpecsOpts runs parsed table specs over the interval files on
// the per-frame map-reduce engine: frames arrive as columnar batches and
// evaluate concurrently into partial groups, which merge into the
// global groups in frame order. Programs the kernel compiler accepts run
// as vectorized kernels over the batch columns; any other program
// (lazily raised type errors) runs on the record-at-a-time evaluator
// over the same batches' rows, which is also the differential tests'
// oracle. Both produce byte-identical tables on every program the
// compiler accepts.
func GenerateSpecsOpts(specs []*TableSpec, files []*interval.File, opts Options) ([]*Table, error) {
	prog, _ := compileProgram(specs)
	return generate(prog, specs, files, opts)
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

// generate evaluates specs frame by frame: with the compiled kernels
// when prog is non-nil, with the record-at-a-time evaluator otherwise.
// Each evaluator keeps its own group representation (fixed-width coded
// keys against per-record text keys); frame selection, the frame-order
// merge of per-frame partials, and table finalization from text-keyed
// groups are shared, so float summation order and therefore TSV bytes
// are identical.
func generate(prog *compiledProgram, specs []*TableSpec, files []*interval.File, opts Options) ([]*Table, error) {
	tStart, tEnd, err := runBounds(files)
	if err != nil {
		return nil, err
	}
	mopts := interval.MapOptions{Parallel: opts.Parallel, Window: opts.Window, Lo: opts.Lo, Hi: opts.Hi, Context: opts.Context}
	var groups []map[string]*group
	var skipped []int64
	if prog != nil {
		groups, skipped, err = prog.runColumnar(files, mopts, tStart, tEnd)
	} else {
		groups, skipped, err = runScalar(specs, files, mopts, tStart, tEnd)
	}
	if err != nil {
		return nil, err
	}
	return buildTables(specs, groups, skipped, prog != nil), nil
}

// specPartial is one frame's contribution on the scalar evaluator:
// partial groups per spec plus the per-spec count of records excluded by
// errSkip.
type specPartial struct {
	pg      []map[string]*group
	skipped []int64
}

// runScalar is the record-at-a-time evaluator: each batch row is
// materialized (aliasing the read-only batch) and walked through the
// expression trees.
func runScalar(specs []*TableSpec, files []*interval.File, mopts interval.MapOptions, tStart, tEnd clock.Time) ([]map[string]*group, []int64, error) {
	groups := make([]map[string]*group, len(specs))
	for i := range groups {
		groups[i] = make(map[string]*group)
	}
	skipped := make([]int64, len(specs))
	err := interval.MapFrames(files, mopts,
		func(file int, _ interval.FrameEntry, b *interval.Batch) (*specPartial, error) {
			sp := &specPartial{pg: make([]map[string]*group, len(specs)), skipped: make([]int64, len(specs))}
			for i := range sp.pg {
				sp.pg[i] = make(map[string]*group)
			}
			var rec interval.Record
			ctx := &evalCtx{rec: &rec, markers: files[file].Header.Markers, tStart: tStart, tEnd: tEnd}
			for ri := 0; ri < b.N; ri++ {
				if mopts.Window && (b.End(ri) < mopts.Lo || b.Start[ri] > mopts.Hi) {
					// Filter at the record level so the result does not
					// depend on how records happened to be framed.
					continue
				}
				rec = b.Row(ri)
				for si, spec := range specs {
					skip, err := accumulate(spec, ctx, sp.pg[si])
					if err != nil {
						return nil, err
					}
					if skip {
						sp.skipped[si]++
					}
				}
			}
			return sp, nil
		},
		func(_ int, _ interval.FrameEntry, sp *specPartial) error {
			for si := range specs {
				mergeGroups(groups[si], sp.pg[si])
				skipped[si] += sp.skipped[si]
			}
			return nil
		})
	return groups, skipped, err
}

// buildTables finalizes merged groups into sorted tables.
func buildTables(specs []*TableSpec, groups []map[string]*group, skipped []int64, columnar bool) []*Table {
	tables := make([]*Table, len(specs))
	for si, spec := range specs {
		t := &Table{Name: spec.Name, Skipped: skipped[si], Columnar: columnar}
		for _, x := range spec.X {
			t.XLabels = append(t.XLabels, x.Label)
		}
		for _, y := range spec.Y {
			t.YLabels = append(t.YLabels, y.Label)
		}
		keys := make([]string, 0, len(groups[si]))
		for k := range groups[si] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			g := groups[si][k]
			row := Row{X: g.x}
			for yi, y := range spec.Y {
				row.Y = append(row.Y, finalize(y.Agg, g.y[yi]))
			}
			t.Rows = append(t.Rows, row)
		}
		sortRows(t)
		tables[si] = t
	}
	return tables
}

// mergeGroups folds one frame's partial groups into the running global
// groups. Each key's cells combine commutatively except for the float
// sum, whose order is fixed by the reducer's frame ordering — the merge
// itself is per-key independent, so map iteration order is harmless.
func mergeGroups(dst, src map[string]*group) {
	for k, g := range src {
		d := dst[k]
		if d == nil {
			dst[k] = g
			continue
		}
		mergeCells(d.y, g.y)
	}
}

func mergeCells(dst, src []cell) {
	for i := range src {
		c, s := &dst[i], &src[i]
		c.sum += s.sum
		c.n += s.n
		if s.min < c.min {
			c.min = s.min
		}
		if s.max > c.max {
			c.max = s.max
		}
	}
}

// accumulate folds one record into the spec's partial groups. skipped
// reports that the record was excluded because an expression referenced
// a field its state type lacks (errSkip); condition-false records are
// not skips, they are simply unselected.
func accumulate(spec *TableSpec, ctx *evalCtx, groups map[string]*group) (skipped bool, err error) {
	if spec.Condition != nil {
		v, err := eval(spec.Condition, ctx)
		if errors.Is(err, errSkip) {
			return true, nil
		}
		if err != nil {
			return false, fmt.Errorf("table %q: %w", spec.Name, err)
		}
		if !v.Truth() {
			return false, nil
		}
	}
	xs := make([]Value, len(spec.X))
	for i, x := range spec.X {
		v, err := eval(x.Expr, ctx)
		if errors.Is(err, errSkip) {
			return true, nil
		}
		if err != nil {
			return false, fmt.Errorf("table %q: %w", spec.Name, err)
		}
		xs[i] = v
	}
	ys := make([]float64, len(spec.Y))
	for i, y := range spec.Y {
		v, err := eval(y.Expr, ctx)
		if errors.Is(err, errSkip) {
			return true, nil
		}
		if err != nil {
			return false, fmt.Errorf("table %q: %w", spec.Name, err)
		}
		if v.Str {
			return false, fmt.Errorf("table %q: y expression %q produced a string", spec.Name, y.Label)
		}
		ys[i] = v.F
	}
	key := groupKey(xs)
	g := groups[key]
	if g == nil {
		g = &group{x: xs, y: make([]cell, len(spec.Y))}
		for i := range g.y {
			g.y[i].min = math.Inf(1)
			g.y[i].max = math.Inf(-1)
		}
		groups[key] = g
	}
	for i, v := range ys {
		c := &g.y[i]
		c.sum += v
		c.n++
		if v < c.min {
			c.min = v
		}
		if v > c.max {
			c.max = v
		}
	}
	return false, nil
}

func finalize(a Agg, c cell) float64 {
	switch a {
	case AggSum:
		return c.sum
	case AggAvg:
		if c.n == 0 {
			return 0
		}
		return c.sum / float64(c.n)
	case AggMin:
		if c.n == 0 {
			return 0
		}
		return c.min
	case AggMax:
		if c.n == 0 {
			return 0
		}
		return c.max
	case AggCount:
		return float64(c.n)
	}
	return 0
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
