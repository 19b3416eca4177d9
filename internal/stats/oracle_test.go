package stats

// The record-at-a-time oracle: the tree-walking evaluator the kernel
// compiler replaced in production, kept as the reference the
// differential suite and FuzzCompile hold the kernels to. It walks the
// parse tree once per record over the same batches' rows, keys groups
// by per-record text and finalizes through its own map; with production
// it shares only the parser, the run bounds and the output helpers
// (Value, groupKey, sortRows). It states the aggregation rule on its own
// (ysum).

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"sort"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
)

type group struct {
	x []Value
	y []*ysum // per y column
}

// ysum is the oracle's statement of one y column's aggregate. Its sum is
// exact: a big.Float wide enough that no add of a finite float64 ever
// rounds, with the infinities and NaN added kept as flags, rounded to the
// nearest float64 once, at the end — NaN if a NaN or both infinities were
// added, else the infinity added, and +0 for a zero total. A bare time
// field (start, dura/duration, end) sums its integer nanoseconds and
// converts the rounded total to seconds. min and max skip NaN (every
// value NaN: NaN); between -0 and +0, min takes -0 and max +0.
type ysum struct {
	ns       func(r *interval.Record) int64 // a time field's nanoseconds, else nil
	sum      *big.Float
	inf      [2]bool // +Inf, -Inf added
	nan      bool    // a NaN added
	n        int64
	min, max float64
	some     bool // a value other than NaN was added
}

// ysumPrec holds any sum of float64s exactly: their bits span 2⁻¹⁰⁷⁴ to
// 2¹⁰²⁴, and a count below 2⁶⁴ adds 64 more.
const ysumPrec = 1074 + 1024 + 64 + 1

func newYsum(e expr) *ysum {
	s := &ysum{sum: new(big.Float).SetPrec(ysumPrec), min: math.Inf(1), max: math.Inf(-1)}
	if f, ok := e.(fieldRef); ok {
		switch f.name {
		case events.FieldStart:
			s.ns = func(r *interval.Record) int64 { return int64(r.Start) }
		case events.FieldDura, "duration":
			s.ns = func(r *interval.Record) int64 { return int64(r.Dura) }
		case "end":
			s.ns = func(r *interval.Record) int64 { return int64(r.End()) }
		}
	}
	return s
}

// add folds one record's value v.
func (s *ysum) add(r *interval.Record, v float64) {
	s.n++
	switch {
	case s.ns != nil:
		s.sum.Add(s.sum, new(big.Float).SetInt64(s.ns(r)))
	case math.IsNaN(v):
		s.nan = true
		return
	case math.IsInf(v, 1):
		s.inf[0] = true
	case math.IsInf(v, -1):
		s.inf[1] = true
	default:
		s.sum.Add(s.sum, big.NewFloat(v))
	}
	s.extremes(v, v)
}

func (s *ysum) extremes(lo, hi float64) {
	s.some = true
	if lo < s.min || lo == 0 && s.min == 0 && math.Signbit(lo) {
		s.min = lo
	}
	if hi > s.max || hi == 0 && s.max == 0 && !math.Signbit(hi) {
		s.max = hi
	}
}

// merge folds another partial's aggregate of the same column.
func (s *ysum) merge(o *ysum) {
	s.sum.Add(s.sum, o.sum)
	s.n += o.n
	s.inf[0], s.inf[1], s.nan = s.inf[0] || o.inf[0], s.inf[1] || o.inf[1], s.nan || o.nan
	if o.some {
		s.extremes(o.min, o.max)
	}
}

func (s *ysum) value(agg Agg) float64 {
	total := func() float64 {
		switch {
		case s.nan || s.inf[0] && s.inf[1]:
			return math.NaN()
		case s.inf[0]:
			return math.Inf(1)
		case s.inf[1]:
			return math.Inf(-1)
		}
		f, _ := s.sum.Float64()
		if f == 0 {
			return 0
		}
		if s.ns != nil {
			return f / 1e9
		}
		return f
	}
	switch {
	case agg == AggCount:
		return float64(s.n)
	case agg == AggSum:
		return total()
	case s.n == 0:
		return 0
	case agg == AggAvg:
		return total() / float64(s.n)
	case !s.some:
		return math.NaN()
	case agg == AggMin:
		return s.min
	case agg == AggMax:
		return s.max
	}
	return 0
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
		func(file int, fr *interval.Frame) (*specPartial, error) {
			b, err := fr.Batch()
			if err != nil {
				return nil, err
			}
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
func buildTables(specs []*TableSpec, groups []map[string]*group, skipped []int64) []*Table {
	tables := make([]*Table, len(specs))
	for si, spec := range specs {
		t := &Table{Name: spec.Name, Skipped: skipped[si]}
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
				row.Y = append(row.Y, g.y[yi].value(y.Agg))
			}
			t.Rows = append(t.Rows, row)
		}
		sortRows(t)
		tables[si] = t
	}
	return tables
}

// mergeGroups folds one frame's partial groups into the running global
// groups. Every aggregate combines exactly, so no order matters.
func mergeGroups(dst, src map[string]*group) {
	for k, g := range src {
		d := dst[k]
		if d == nil {
			dst[k] = g
			continue
		}
		for yi := range d.y {
			d.y[yi].merge(g.y[yi])
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
		g = &group{x: xs, y: make([]*ysum, len(spec.Y))}
		for i, y := range spec.Y {
			g.y[i] = newYsum(y.Expr)
		}
		groups[key] = g
	}
	for i, v := range ys {
		g.y[i].add(ctx.rec, v)
	}
	return false, nil
}

// evalCtx carries per-record and per-run context into expressions.
type evalCtx struct {
	rec     *interval.Record
	markers map[uint64]string
	tStart  clock.Time
	tEnd    clock.Time
}

// errSkip marks a record that cannot supply a referenced field; the
// record is silently excluded from the table row it would feed.
var errSkip = fmt.Errorf("stats: record lacks a referenced field")

// eval evaluates e for the context's record. Time-valued fields (start,
// dura, end) are exposed in SECONDS, matching the paper's example
// "condition=(start < 2)" selecting the first two seconds of the run.
func eval(e expr, ctx *evalCtx) (Value, error) {
	switch n := e.(type) {
	case numLit:
		return num(n.v), nil
	case strLit:
		return str(n.v), nil
	case fieldRef:
		return evalField(n.name, ctx)
	case unary:
		x, err := eval(n.x, ctx)
		if err != nil {
			return Value{}, err
		}
		switch n.op {
		case "-":
			if x.Str {
				return Value{}, fmt.Errorf("stats: unary - on string")
			}
			return num(-x.F), nil
		case "!":
			if x.Truth() {
				return num(0), nil
			}
			return num(1), nil
		}
		return Value{}, fmt.Errorf("stats: unknown unary %q", n.op)
	case binary:
		return evalBinary(n, ctx)
	case call:
		return evalCall(n, ctx)
	}
	return Value{}, fmt.Errorf("stats: unknown expression node %T", e)
}

func evalBinary(b binary, ctx *evalCtx) (Value, error) {
	// Short-circuit logical operators.
	if b.op == "&&" || b.op == "||" {
		l, err := eval(b.l, ctx)
		if err != nil {
			return Value{}, err
		}
		if b.op == "&&" && !l.Truth() {
			return num(0), nil
		}
		if b.op == "||" && l.Truth() {
			return num(1), nil
		}
		r, err := eval(b.r, ctx)
		if err != nil {
			return Value{}, err
		}
		if r.Truth() {
			return num(1), nil
		}
		return num(0), nil
	}
	l, err := eval(b.l, ctx)
	if err != nil {
		return Value{}, err
	}
	r, err := eval(b.r, ctx)
	if err != nil {
		return Value{}, err
	}
	if l.Str || r.Str {
		if !l.Str || !r.Str {
			return Value{}, fmt.Errorf("stats: cannot compare string with number (%s)", b.op)
		}
		switch b.op {
		case "==":
			return boolVal(l.S == r.S), nil
		case "!=":
			return boolVal(l.S != r.S), nil
		case "<":
			return boolVal(l.S < r.S), nil
		case "<=":
			return boolVal(l.S <= r.S), nil
		case ">":
			return boolVal(l.S > r.S), nil
		case ">=":
			return boolVal(l.S >= r.S), nil
		case "+":
			return str(l.S + r.S), nil
		}
		return Value{}, fmt.Errorf("stats: operator %q not defined on strings", b.op)
	}
	switch b.op {
	case "+":
		return num(l.F + r.F), nil
	case "-":
		return num(l.F - r.F), nil
	case "*":
		return num(l.F * r.F), nil
	case "/":
		if r.F == 0 {
			return Value{}, fmt.Errorf("stats: division by zero")
		}
		return num(l.F / r.F), nil
	case "%":
		if r.F == 0 {
			return Value{}, fmt.Errorf("stats: modulo by zero")
		}
		return num(math.Mod(l.F, r.F)), nil
	case "<":
		return boolVal(l.F < r.F), nil
	case "<=":
		return boolVal(l.F <= r.F), nil
	case ">":
		return boolVal(l.F > r.F), nil
	case ">=":
		return boolVal(l.F >= r.F), nil
	case "==":
		return boolVal(l.F == r.F), nil
	case "!=":
		return boolVal(l.F != r.F), nil
	}
	return Value{}, fmt.Errorf("stats: unknown operator %q", b.op)
}

func boolVal(b bool) Value {
	if b {
		return num(1)
	}
	return num(0)
}

// evalField resolves a field reference. The names match the profile's
// field names; time fields are in seconds; a few derived names (end,
// state, bebits, markername) are provided for convenience.
func evalField(name string, ctx *evalCtx) (Value, error) {
	r := ctx.rec
	switch name {
	case events.FieldStart:
		return num(r.Start.Seconds()), nil
	case events.FieldDura, "duration":
		return num(r.Dura.Seconds()), nil
	case "end":
		return num(r.End().Seconds()), nil
	case events.FieldNode:
		return num(float64(r.Node)), nil
	case events.FieldCPU, "processor":
		return num(float64(r.CPU)), nil
	case events.FieldThread:
		return num(float64(r.Thread)), nil
	case events.FieldType:
		return num(float64(r.Type)), nil
	case "state":
		return str(r.Type.Name()), nil
	case events.FieldBebits:
		return str(r.Bebits.String()), nil
	case "iscall":
		// 1 on the piece that begins a state (begin or complete): counting
		// these counts calls, not pieces.
		if r.Bebits == 2 || r.Bebits == 3 {
			return num(1), nil
		}
		return num(0), nil
	case "markername":
		id, ok := r.Field(events.FieldMarker)
		if !ok {
			return Value{}, errSkip
		}
		return str(ctx.markers[id]), nil
	}
	if v, ok := r.Field(name); ok {
		return num(float64(v)), nil
	}
	return Value{}, errSkip
}

func evalCall(c call, ctx *evalCtx) (Value, error) {
	switch c.fn {
	case "bin":
		// bin(texpr, n): which of n equal time bins of the run contains
		// texpr (in seconds)? Clamped to [0, n-1].
		if len(c.args) != 2 {
			return Value{}, fmt.Errorf("stats: bin() takes (time, nbins)")
		}
		tv, err := eval(c.args[0], ctx)
		if err != nil {
			return Value{}, err
		}
		nv, err := eval(c.args[1], ctx)
		if err != nil {
			return Value{}, err
		}
		if tv.Str || nv.Str || nv.F < 1 {
			return Value{}, fmt.Errorf("stats: bin() needs numeric arguments")
		}
		n := int(nv.F)
		span := (ctx.tEnd - ctx.tStart).Seconds()
		if span <= 0 {
			return num(0), nil
		}
		b := int((tv.F - ctx.tStart.Seconds()) / span * float64(n))
		if b < 0 {
			b = 0
		}
		if b >= n {
			b = n - 1
		}
		return num(float64(b)), nil
	case "floor":
		if len(c.args) != 1 {
			return Value{}, fmt.Errorf("stats: floor() takes one argument")
		}
		v, err := eval(c.args[0], ctx)
		if err != nil || v.Str {
			return Value{}, fmt.Errorf("stats: floor() needs a number")
		}
		return num(math.Floor(v.F)), nil
	case "abs":
		if len(c.args) != 1 {
			return Value{}, fmt.Errorf("stats: abs() takes one argument")
		}
		v, err := eval(c.args[0], ctx)
		if err != nil || v.Str {
			return Value{}, fmt.Errorf("stats: abs() needs a number")
		}
		return num(math.Abs(v.F)), nil
	}
	return Value{}, fmt.Errorf("stats: unknown function %q", c.fn)
}
