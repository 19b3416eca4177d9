package stats

import (
	"tracefw/internal/clock"
	"tracefw/internal/interval"
)

// GenerateSpecsScalar runs specs on the record-at-a-time oracle
// (oracle_test.go). It is what the differential suite and FuzzCompile
// compare the kernels against; production never reaches that evaluator.
func GenerateSpecsScalar(specs []*TableSpec, files []*interval.File, opts interval.MapOptions) ([]*Table, error) {
	tStart, tEnd, err := runBounds(files)
	if err != nil {
		return nil, err
	}
	groups, skipped, err := runScalar(specs, files, opts, tStart, tEnd)
	if err != nil {
		return nil, err
	}
	return buildTables(specs, groups, skipped), nil
}

// GenerateReordered runs program as GenerateOpts does at Parallel 1,
// then merges its whole-frame partials in the order perm gives (perm(n)
// is a permutation of the n frames' indices) and finishes the tables.
// Every other frame's partial is its clone — the form the frame memo
// stores — and the rest are their executors' own.
func GenerateReordered(program string, files []*interval.File, perm func(n int) []int) ([]*Table, error) {
	specs, err := Parse(program)
	if err != nil {
		return nil, err
	}
	tStart, tEnd, err := runBounds(files)
	if err != nil {
		return nil, err
	}
	prog := compileProgram(specs)
	var dict *strDict
	if prog.sl.markers || prog.sl.nc > 0 {
		dict = newStrDict(files, prog.sl.nc > 0)
	}
	var parts []*framePart
	err = interval.MapFrames(files, interval.MapOptions{Parallel: 1},
		func(file int, fr *interval.Frame) (*framePart, error) {
			b, err := fr.Batch()
			if err != nil {
				return nil, err
			}
			x := prog.newExec(tStart, tEnd, dict)
			if err := prog.evalFrame(x, clipWindow(interval.MapOptions{}, fr.Entry), file, b); err != nil {
				return nil, err
			}
			return &x.framePart, nil
		},
		func(i int, _ interval.FrameEntry, p *framePart) error {
			if len(parts)%2 == 0 {
				p = p.clone()
			}
			parts = append(parts, p)
			return nil
		})
	if err != nil {
		return nil, err
	}
	total := prog.newGroupTables()
	skipped := make([]int64, len(prog.tables))
	for _, i := range perm(len(parts)) {
		for ti := range total {
			total[ti].merge(&parts[i].groups[ti])
			skipped[ti] += parts[i].skipped[ti]
		}
	}
	tables := make([]*Table, len(prog.tables))
	for ti, ct := range prog.tables {
		tables[ti] = ct.finish(&total[ti], skipped[ti], dict)
	}
	return tables, nil
}

// FrameBin is frameBin for bin(start, n) over a batch whose start column
// is starts, in a run from tStart to tEnd.
func FrameBin(starts []clock.Time, n int, tStart, tEnd clock.Time) (int, bool) {
	return frameBin(binDim{field: fcStart, n: n}, starts, make([]clock.Time, len(starts)), tStart.Seconds(), (tEnd - tStart).Seconds())
}

// SumExact adds values[i] to the accumulator of part i%parts, each part
// a group of its own table, propagating a part's carries after every
// normEvery of its fractional adds (0: never); then it merges the parts
// into one more table's group, in order, and returns that group's sum.
func SumExact(values []float64, parts, normEvery int) float64 {
	ts := make([]groupTable, parts)
	for i := range ts {
		ts[i] = groupTable{ny: 1, accs: []acc{newAcc()}}
	}
	for i, v := range values {
		t := &ts[i%parts]
		t.add(&t.accs[0], v)
		if f := t.accs[0].f; f != 0 && normEvery > 0 && t.fracs[f-1].adds%int32(normEvery) == 0 {
			t.fracs[f-1].norm()
		}
	}
	total := groupTable{ny: 1, accs: []acc{newAcc()}}
	for i := range ts {
		total.mergeAcc(&total.accs[0], &ts[i].accs[0], ts[i].fracs)
	}
	return total.value(&total.accs[0], AggSum, &ysrc{field: fcKernel})
}
