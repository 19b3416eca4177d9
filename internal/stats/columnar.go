package stats

// The columnar evaluation path: compiled kernels evaluate a whole
// frame's batch columns at a time, never materializing records, and a
// dictionary-coded group-by folds the selected rows into groups keyed
// by fixed-width words — no text is formatted, hashed or compared per
// row. Group text keys and []Value row headers exist once per distinct
// group, built at finalization, where they still order the table.

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"
	"unsafe"

	"tracefw/internal/clock"
	"tracefw/internal/interval"
)

// framePart is one frame's evaluation: per table, its partial groups and
// the count of selected records a skip bitmap excluded.
type framePart struct {
	groups  []groupTable
	skipped []int64
}

// clone copies the partials into right-sized slabs — one holding every
// table's key words, one every table's cells — and no group index: a
// stored partial is only ever merged, which reads it through key and row.
func (p *framePart) clone() *framePart {
	nk, nc := 0, 0
	for i := range p.groups {
		nk += len(p.groups[i].keys)
		nc += len(p.groups[i].cells)
	}
	keys, cells := make([]uint64, 0, nk), make([]cell, 0, nc)
	c := &framePart{groups: make([]groupTable, len(p.groups)), skipped: slices.Clone(p.skipped)}
	for i, g := range p.groups {
		k0, c0 := len(keys), len(cells)
		keys = append(keys, g.keys...)
		cells = append(cells, g.cells...)
		c.groups[i] = groupTable{nx: g.nx, ny: g.ny, n: g.n, keys: keys[k0:len(keys):len(keys)], cells: cells[c0:len(cells):len(cells)]}
	}
	return c
}

// size is what a cloned partial holds, in bytes.
func (p *framePart) size() int64 {
	n := int64(len(p.groups))*int64(unsafe.Sizeof(groupTable{})) + 8*int64(len(p.skipped))
	for i := range p.groups {
		n += 8*int64(len(p.groups[i].keys)) + int64(unsafe.Sizeof(cell{}))*int64(len(p.groups[i].cells))
	}
	return n
}

// frameResult carries one frame's partials to the frame-order reduce:
// an executor's own (x, recycled after the merge) or a stored clone.
type frameResult struct {
	part    *framePart
	x       *kexec
	reused  bool // answered by the frame memo, not evaluated
	fetched bool // the frame's records were fetched
}

// generate evaluates the compiled program over every selected frame and
// returns the finished tables with the run's frame counts. A worker's
// executor carries its frame's partial groups to the frame-order reduce
// and is recycled after it, so a run allocates for its distinct groups,
// not per frame. program is the source text a frame memo keys partials
// by ("" consults none). A memoized frame is looked up before its
// records are fetched, so a reused partial costs no read and no decode.
func (prog *compiledProgram) generate(program string, files []*interval.File, mopts interval.MapOptions, tStart, tEnd clock.Time) (Run, error) {
	var dict *strDict
	if prog.sl.markers || prog.sl.nc > 0 {
		dict = newStrDict(files, prog.sl.nc > 0)
	}
	// One executor per worker, recycled: its kernel scratch buffers and
	// group tables grow to the largest frame once and are reused for
	// every frame after.
	pool := execPool{new: func() *kexec { return prog.newExec(tStart, tEnd, dict) }}
	eval := func(file int, b *interval.Batch, w window) (*kexec, error) {
		x := pool.get()
		if err := prog.evalFrame(x, w, file, b); err != nil {
			pool.put(x)
			return nil, err
		}
		return x, nil
	}
	keys := prog.memoKeys(program, files, tStart, tEnd, dict)
	ctx := mopts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	total := prog.newGroupTables()
	skipped := make([]int64, len(prog.tables))
	var run Run
	err := interval.MapFrames(files, mopts,
		func(file int, fr *interval.Frame) (frameResult, error) {
			w := clipWindow(mopts, fr.Entry)
			if keys == nil || keys[file] == "" {
				b, err := fr.Batch()
				if err != nil {
					return frameResult{}, err
				}
				x, err := eval(file, b, w)
				if err != nil {
					return frameResult{}, err
				}
				return frameResult{part: &x.framePart, x: x, fetched: true}, nil
			}
			// A whole frame's partial is memoized under the run's key; a
			// frame the window cuts is read under the empty key, which
			// memoizes nothing — another window rarely cuts it at the
			// same instants. On a miss the source hands compute the
			// frame; the partial is a function of its group keys and
			// cells, which alias nothing of the batch, so the executor
			// outlives it.
			key := keys[file]
			if !w.whole() {
				key = ""
			}
			fetched := false
			v, hit, err := files[file].FrameSource().Memo(ctx, files[file], fr.Entry, key, func(b *interval.Batch, store bool) (any, int64, error) {
				fetched = true
				x, err := eval(file, b, w)
				if err != nil {
					return nil, 0, err
				}
				if !store {
					return x, 0, nil
				}
				p := x.framePart.clone()
				pool.put(x)
				return p, p.size(), nil
			})
			if err != nil {
				return frameResult{}, err
			}
			if x, ok := v.(*kexec); ok {
				return frameResult{part: &x.framePart, x: x, fetched: fetched}, nil
			}
			return frameResult{part: v.(*framePart), reused: hit, fetched: fetched}, nil
		},
		func(_ int, _ interval.FrameEntry, r frameResult) error {
			for i := range total {
				total[i].merge(&r.part.groups[i])
				skipped[i] += r.part.skipped[i]
			}
			if r.x != nil {
				pool.put(r.x)
			}
			if r.reused {
				run.PartialsReused++
			} else {
				run.FramesEvaluated++
			}
			if r.fetched {
				run.FramesFetched++
			}
			return nil
		})
	if err != nil {
		return Run{}, err
	}
	run.Tables = make([]*Table, len(prog.tables))
	for i, ct := range prog.tables {
		run.Tables[i] = ct.finish(&total[i], skipped[i], dict)
		var dense, hashed int64
		for _, x := range pool.all {
			dense += x.paths[i][0]
			hashed += x.paths[i][1]
		}
		run.Tables[i].Group = groupPath(dense, hashed)
	}
	for _, x := range pool.all {
		run.SharedSaved += x.saved
	}
	return run, nil
}

// groupPath names which group-by answered a table over a run's frames.
func groupPath(dense, hashed int64) string {
	switch {
	case dense > 0 && hashed > 0:
		return "mixed"
	case dense > 0:
		return "dense"
	case hashed > 0:
		return "hash"
	}
	return ""
}

// execPool recycles one run's executors. It holds at most one per
// worker, and they become garbage when the run returns: a sync.Pool
// would stay registered with the runtime, its executors' frame-sized
// scratch buffers live, until a later collection — per request, in a
// server. all is every executor the run made, whose counters the run
// reports.
type execPool struct {
	mu   sync.Mutex
	free []*kexec
	all  []*kexec
	new  func() *kexec
}

func (p *execPool) get() *kexec {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free = p.free[:n-1]
		return x
	}
	x := p.new()
	p.all = append(p.all, x)
	return x
}

func (p *execPool) put(x *kexec) {
	p.mu.Lock()
	p.free = append(p.free, x)
	p.mu.Unlock()
}

// window is the query window as one frame sees it: a row is selected
// iff it ends at or after lo and starts at or before hi. A side the frame
// lies inside — lo at or before its first start, hi at or after its last
// end — selects none of its rows away, so it opens to the sentinel
// (math.MinInt64, math.MaxInt64), as both sides of an unwindowed run do.
// A frame inside the window is whole, so its partial is the unwindowed
// run's and is shared by every window holding it.
type window struct{ lo, hi clock.Time }

func clipWindow(mopts interval.MapOptions, fe interval.FrameEntry) window {
	w := window{math.MinInt64, math.MaxInt64}
	if mopts.Window {
		if mopts.Lo > fe.Start {
			w.lo = mopts.Lo
		}
		if mopts.Hi < fe.End {
			w.hi = mopts.Hi
		}
	}
	return w
}

// whole reports whether every row of the frame is selected.
func (w window) whole() bool { return w.lo == math.MinInt64 && w.hi == math.MaxInt64 }

// memoKeys returns, per input file, the key a frame memo stores its
// whole frames' partials under — "" for a file with no frame source — or
// nil when the run consults none. Those partials depend on a frame's
// bytes (the memo keys by frame) and on what the key names, each part
// length-prefixed or delimited so no two keys run together: the program
// text, the run bounds bin() reads (a live trace's move with every seal),
// and, when the program codes marker names, the dictionary codes the
// file's marker table gets.
func (prog *compiledProgram) memoKeys(program string, files []*interval.File, tStart, tEnd clock.Time, dict *strDict) []string {
	// A program with string + interns its concatenations in the order
	// the workers happen to meet them, so its codes mean something only
	// within the run that made them: it bypasses the memo.
	if program == "" || prog.sl.nc > 0 {
		return nil
	}
	keys := make([]string, len(files))
	for fi, f := range files {
		if f.FrameSource() == nil {
			continue
		}
		k := appendField(nil, program)
		k = strconv.AppendInt(k, int64(tStart), 10)
		k = append(k, ':')
		k = strconv.AppendInt(k, int64(tEnd), 10)
		if prog.sl.markers {
			for _, id := range markerIDs(f.Header.Markers) {
				k = append(k, ';')
				k = strconv.AppendUint(k, id, 10)
				k = append(k, '=')
				k = strconv.AppendUint(k, uint64(dict.markers[fi][id]), 10)
				k = appendField(append(k, '='), f.Header.Markers[id])
			}
		}
		keys[fi] = string(k)
	}
	return keys
}

// appendField appends s behind its length.
func appendField(k []byte, s string) []byte {
	k = strconv.AppendInt(k, int64(len(s)), 10)
	return append(append(k, ':'), s...)
}

// evalFrame folds the rows of one frame's batch that w selects into x's
// per-table partial groups.
func (prog *compiledProgram) evalFrame(x *kexec, w window, file int, b *interval.Batch) error {
	x.bind(file, b)
	// Batch-level pruning from directory aggregates: a whole frame
	// selects every row, so no per-row bitmap test is needed.
	sel := x.mbuf(prog.selSlot)
	if !w.whole() {
		maskZero(sel)
		for i := 0; i < b.N; i++ {
			if b.Start[i]+b.Dura[i] >= w.lo && b.Start[i] <= w.hi {
				sel[i>>6] |= 1 << uint(i&63)
			}
		}
	} else {
		maskOnes(sel, b.N)
	}
	for si, ct := range prog.tables {
		x.groups[si].reset()
		sk, err := ct.run(x, si, sel)
		if err != nil {
			return err
		}
		x.skipped[si] = sk
	}
	return nil
}

// strDict is the run's one string dictionary: every coded string that
// is not a state or bebits name — marker names and the concatenations
// kConcat builds — under a run-global code, so group keys from
// different input files and workers agree exactly when the strings do.
// Marker ids are per file, so each file's marker table is interned by
// name up front, files in order and each in ascending id order: the
// codes are a function of the marker tables, the same in every run, so
// memoized partials can carry them. Concatenations are interned as
// workers meet them, under mu; without string + the dictionary never
// grows and never locks. Codes never order output (finish sorts by
// text), so the order in which workers intern cannot change a byte.
type strDict struct {
	mu      sync.Mutex
	grows   bool
	names   []string // code → string; code 0 is "", what a marker id its table lacks names
	byName  map[string]uint32
	markers []map[uint64]uint32 // per input file: marker id → code
}

func newStrDict(files []*interval.File, grows bool) *strDict {
	d := &strDict{grows: grows, names: []string{""}, byName: map[string]uint32{"": 0}, markers: make([]map[uint64]uint32, len(files))}
	for fi, f := range files {
		codes := make(map[uint64]uint32, len(f.Header.Markers))
		for _, id := range markerIDs(f.Header.Markers) {
			codes[id] = d.intern(f.Header.Markers[id])
		}
		d.markers[fi] = codes
	}
	return d
}

// markerIDs returns a marker table's ids in ascending order.
func markerIDs(m map[uint64]string) []uint64 {
	ids := make([]uint64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// intern returns s's code, adding s if it is new.
func (d *strDict) intern(s string) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.byName[s]
	if !ok {
		c = uint32(len(d.names))
		d.byName[s] = c
		d.names = append(d.names, s)
	}
	return c
}

func (d *strDict) name(c uint32) string {
	if !d.grows {
		return d.names[c]
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.names[c]
}

// groupTable is a group-by over fixed-width keys: every group is nx key
// words and ny accumulator cells in two flat slabs, found through an
// open-addressing index with a last-key memo in front of it. Groups
// keep insertion order. The same type holds one frame's partial groups
// (reset per frame, capacity kept) and a run's merged groups.
type groupTable struct {
	nx, ny int
	n      int
	keys   []uint64 // n*nx
	cells  []cell   // n*ny
	idx    []int32  // group+1 per slot, 0 empty; len is a power of two
	last   int      // the group the previous find returned
}

func (t *groupTable) reset() {
	t.n = 0
	t.keys = t.keys[:0]
	t.cells = t.cells[:0]
	clear(t.idx)
}

func (t *groupTable) key(g int) []uint64 { return t.keys[g*t.nx : (g+1)*t.nx] }
func (t *groupTable) row(g int) []cell   { return t.cells[g*t.ny : (g+1)*t.ny] }

func hashWords(key []uint64) uint64 {
	h := uint64(len(key))
	for _, w := range key {
		h = (bits.RotateLeft64(h, 5) ^ w) * 0x9e3779b97f4a7c15
	}
	// Finalize (murmur3's fmix64): float keys keep their entropy in the
	// high bits, the index masks the low ones.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func wordsEqual(a, b []uint64) bool {
	for i, w := range a {
		if b[i] != w {
			return false
		}
	}
	return true
}

// find returns key's group, adding it with identity cells if absent.
func (t *groupTable) find(key []uint64) int {
	if t.n > 0 && wordsEqual(key, t.key(t.last)) {
		return t.last
	}
	if 2*(t.n+1) > len(t.idx) {
		t.grow()
	}
	mask := uint64(len(t.idx) - 1)
	for s := hashWords(key) & mask; ; s = (s + 1) & mask {
		e := t.idx[s]
		if e == 0 {
			t.idx[s] = int32(t.n + 1)
			t.keys = append(t.keys, key...)
			for i := 0; i < t.ny; i++ {
				t.cells = append(t.cells, cell{min: math.Inf(1), max: math.Inf(-1)})
			}
			t.last = t.n
			t.n++
			return t.last
		}
		if g := int(e - 1); wordsEqual(key, t.key(g)) {
			t.last = g
			return g
		}
	}
}

// grow doubles the index and re-inserts every group.
func (t *groupTable) grow() {
	t.idx = make([]int32, max(16, 2*len(t.idx)))
	mask := uint64(len(t.idx) - 1)
	for g := 0; g < t.n; g++ {
		s := hashWords(t.key(g)) & mask
		for t.idx[s] != 0 {
			s = (s + 1) & mask
		}
		t.idx[s] = int32(g + 1)
	}
}

// merge folds one frame's partial groups into the running totals. Each
// key's cells combine commutatively except for the float sum, whose
// order is fixed by the reducer's frame ordering.
func (t *groupTable) merge(src *groupTable) {
	for g := 0; g < src.n; g++ {
		n := t.n
		d := t.row(t.find(src.key(g)))
		if t.n > n {
			copy(d, src.row(g))
			continue
		}
		mergeCells(d, src.row(g))
	}
}

// Group-key words. A number's word is its float64 bits, with every NaN
// folded to one — a bijection with the %g text the oracle keys on, -0
// and +0 distinct included. A coded column's word is its code; a
// string constant contributes the same word to every group.
const nanWord = 0x7ff8000000000001

func (x *kexec) keyWord(r *kres, i int) uint64 {
	if r.str {
		if r.konst {
			return 0
		}
		return uint64(x.codeAt(r, i))
	}
	v := r.fAt(i)
	if v != v {
		return nanWord
	}
	return math.Float64bits(v)
}

// finish turns the run's merged groups into the table. The []Value row
// header and the text key are built here, once per distinct group: rows
// are ordered by text key before sortRows, which decides rows whose x
// values compare equal (-0 and +0) by that order. Two groups share a
// text key only when NULs inside strings make the text ambiguous; the
// scalar semantics cannot tell them apart either, so they become one
// row, merged in insertion order.
func (ct *compiledTable) finish(gt *groupTable, skipped int64, dict *strDict) *Table {
	t := &Table{Name: ct.spec.Name, Skipped: skipped}
	for _, x := range ct.spec.X {
		t.XLabels = append(t.XLabels, x.Label)
	}
	for _, y := range ct.spec.Y {
		t.YLabels = append(t.YLabels, y.Label)
	}
	type keyed struct {
		text string
		g    int
		xs   []Value
	}
	ks := make([]keyed, gt.n)
	for g := range ks {
		xs := make([]Value, gt.nx)
		for xi, w := range gt.key(g) {
			switch c := ct.xcol[xi]; {
			case !c.str:
				xs[xi] = num(math.Float64frombits(w))
			case c.konst:
				xs[xi] = str(c.cs)
			default:
				xs[xi] = str(codeName(c.kind, uint32(w), dict))
			}
		}
		ks[g] = keyed{groupKey(xs), g, xs}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].text < ks[j].text })
	for i := 0; i < len(ks); {
		cells := gt.row(ks[i].g)
		j := i + 1
		for ; j < len(ks) && ks[j].text == ks[i].text; j++ {
			mergeCells(cells, gt.row(ks[j].g))
		}
		row := Row{X: ks[i].xs}
		for yi, y := range ct.spec.Y {
			row.Y = append(row.Y, finalize(y.Agg, cells[yi]))
		}
		t.Rows = append(t.Rows, row)
		i = j
	}
	sortRows(t)
	return t
}

// run accumulates one frame's selected rows into table ti's partial
// groups, returning how many selected records were excluded by skip
// bitmaps. Row iteration is in record order, so float accumulation
// order matches a sequential scan exactly.
func (ct *compiledTable) run(x *kexec, ti int, sel []uint64) (int64, error) {
	gt := &x.groups[ti]
	mask := x.mbuf(ct.maskSlot)
	copy(mask, sel)
	var skipped int64
	if ct.cond != nil {
		res, err := ct.cond.eval(x, mask)
		if err != nil {
			return skipped, fmt.Errorf("table %q: %w", ct.spec.Name, err)
		}
		if res.skip != nil {
			skipped += popAnd(mask, res.skip)
			andNotIn(mask, res.skip)
		}
		if res.konst {
			if !(&res).truthAt(0) {
				return skipped, nil
			}
		} else {
			for w := 0; w < x.nw; w++ {
				mask[w] &= res.truthBits(w, x.n)
			}
		}
		if !maskAny(mask) {
			return skipped, nil
		}
	}
	for xi, k := range ct.x {
		res, err := k.eval(x, mask)
		if err != nil {
			return skipped, fmt.Errorf("table %q: %w", ct.spec.Name, err)
		}
		if res.skip != nil {
			skipped += popAnd(mask, res.skip)
			andNotIn(mask, res.skip)
			if !maskAny(mask) {
				return skipped, nil
			}
		}
		x.xres[xi] = res
	}
	for yi, k := range ct.y {
		res, err := k.eval(x, mask)
		if err != nil {
			return skipped, fmt.Errorf("table %q: %w", ct.spec.Name, err)
		}
		if res.skip != nil {
			skipped += popAnd(mask, res.skip)
			andNotIn(mask, res.skip)
			if !maskAny(mask) {
				return skipped, nil
			}
		}
		if k.isStr() && maskAny(mask) {
			return skipped, fmt.Errorf("table %q: y expression %q produced a string", ct.spec.Name, ct.spec.Y[yi].Label)
		}
		x.yres[yi] = res
	}
	if !maskAny(mask) {
		return skipped, nil
	}
	if ct.dense != nil && x.groupDense(ct, mask, gt) {
		x.paths[ti][0]++
		return skipped, nil
	}
	x.paths[ti][1]++
	key := x.key[:len(ct.x)]
	for w := 0; w < x.nw; w++ {
		m := mask[w]
		for m != 0 {
			i := w<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			for xi := range key {
				key[xi] = x.keyWord(&x.xres[xi], i)
			}
			x.fold(gt.row(gt.find(key)), i)
		}
	}
	return skipped, nil
}

// fold accumulates row i's y values into a group's cells.
func (x *kexec) fold(cells []cell, i int) {
	for yi := range cells {
		v := (&x.yres[yi]).fAt(i)
		c := &cells[yi]
		c.sum += v
		c.n++
		if v < c.min {
			c.min = v
		}
		if v > c.max {
			c.max = v
		}
	}
}

// denseSlots bounds the dense group-by: a frame in which a table's x
// columns' ranges over the selected rows multiply to at most this many
// slots finds each row's group by direct index. An executor's slot array
// grows to the most slots a frame has spanned (64 KiB at most), and only
// the slots a frame's groups land on are touched.
const denseSlots = 1 << 14

// dsrc is where a dense x column's integer comes from. Each is an
// integer by construction — a coded column, a small-integer field, or
// bin() by a constant — so no row's value is ever checked.
type dsrc uint8

const (
	dsConst  dsrc = iota // a constant: one value, no dimension
	dsType               // the Type column: state, type
	dsBebits             // the Bebits column: bebits, iscall
	dsNode
	dsCPU
	dsThread
	dsDict // the column's own ckDict codes: markername, concatenations
	dsBin  // bin(t, n), 1 <= n <= 2^31 constant: its value, in [0, n-1]
)

// denseSource reports where x column k's integer comes from; ok is
// false unless k is integer-valued by construction. Two rows on one
// slot always share their key words: the key is a function of the
// integer (bebits past Complete share a code, so one group may own
// several slots — find keeps it one group).
func denseSource(k kernel) (src dsrc, ok bool) {
	switch k := unshare(k).(type) {
	case kConstNum, kConstStr:
		return dsConst, true
	case kFieldStr:
		if k.kind == ckState {
			return dsType, true
		}
		return dsBebits, true
	case kField:
		switch k.code {
		case fcType:
			return dsType, true
		case fcIsCall:
			return dsBebits, true
		case fcNode:
			return dsNode, true
		case fcCPU:
			return dsCPU, true
		case fcThread:
			return dsThread, true
		}
	case kExtra:
		return dsDict, k.marker
	case kConcat:
		return dsDict, true
	case kBin:
		if n, ok := k.n.(kConstNum); ok && n.v >= 1 && n.v <= 1<<31 {
			return dsBin, true
		}
	}
	return 0, false
}

// denseScratch is an executor's dense group-by state.
type denseScratch struct {
	lo, stride []uint32 // per x column, this frame's; stride 0: no dimension
	idx        []uint32 // per row, its slot
	slot       []int32  // per slot, its group + 1; 0 untouched
	touched    []int32  // the slots to clear after the frame
}

// groupDense folds the rows mask selects into gt by direct index into
// the slot array, calling find once per slot a frame touches, and
// reports true — or reports false, having folded nothing, when the x
// columns' ranges over those rows multiply past denseSlots. A group
// still enters gt at its first row and every row folds in record order,
// so the partial is the hash path's.
func (x *kexec) groupDense(ct *compiledTable, mask []uint64, gt *groupTable) bool {
	// The ranges over all rows bound those over the selected rows and
	// take a straight loop, not a walk of the selection: try them first.
	slots := x.denseDims(ct, nil)
	if slots == 0 {
		if slots = x.denseDims(ct, mask); slots == 0 {
			return false
		}
	}
	d := &x.dense
	if cap(d.idx) < x.n {
		d.idx = make([]uint32, x.n)
	}
	idx := d.idx[:x.n]
	op := opIndexFirst
	for xi, src := range ct.dense {
		if d.stride[xi] != 0 {
			x.denseCol(op, src, xi, nil, idx, d.lo[xi], d.stride[xi])
			op = opIndex
		}
	}
	if op == opIndexFirst {
		clear(idx) // no dimension: every row is slot 0
	}
	if len(d.slot) < slots {
		d.slot = make([]int32, slots)
	}
	key := x.key[:len(ct.x)]
	for w, m := range mask {
		for m != 0 {
			i := w<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			s := idx[i]
			g := d.slot[s]
			if g == 0 {
				for xi := range key {
					key[xi] = x.keyWord(&x.xres[xi], i)
				}
				g = int32(gt.find(key)) + 1
				d.slot[s] = g
				d.touched = append(d.touched, int32(s))
			}
			x.fold(gt.row(int(g-1)), i)
		}
	}
	for _, s := range d.touched {
		d.slot[s] = 0
	}
	d.touched = d.touched[:0]
	return true
}

// denseDims sets each x column's lo and stride from its range over the
// rows mask selects (nil: all rows) and returns the ranges' product, the
// slots they span, or 0 when it passes denseSlots. Values at rows outside
// the selection are still integers in their column's domain, so any
// row's index computed from these dimensions is well defined; only
// selected rows read theirs.
func (x *kexec) denseDims(ct *compiledTable, mask []uint64) int {
	d := &x.dense
	span := uint64(1)
	for xi, src := range ct.dense {
		d.stride[xi] = 0
		// A batch column an earlier x column reads already fixes this
		// one's key (state beside type, iscall beside bebits).
		if src == dsConst || x.xres[xi].konst || src <= dsThread && slices.Contains(ct.dense[:xi], src) {
			continue
		}
		op := opRange
		if mask != nil {
			op = opRangeSel
		}
		lo, hi := x.denseCol(op, src, xi, mask, nil, 0, 0)
		d.lo[xi], d.stride[xi] = lo, uint32(span)
		if span *= uint64(hi-lo) + 1; span > denseSlots {
			return 0
		}
	}
	return int(span)
}

// denseCol operations.
const (
	opRange      = iota // the range of every row's integer
	opRangeSel          // the range over the rows mask selects
	opIndexFirst        // idx[i] = (v - lo) * stride, every row
	opIndex             // idx[i] += (v - lo) * stride, every row
)

// denseCol applies op to x column xi's integers.
func (x *kexec) denseCol(op int, src dsrc, xi int, mask []uint64, idx []uint32, lo, stride uint32) (uint32, uint32) {
	b, n := x.b, x.n
	switch src {
	case dsType:
		return colOp(op, b.Type[:n], mask, idx, lo, stride)
	case dsBebits:
		return colOp(op, b.Bebits[:n], mask, idx, lo, stride)
	case dsNode:
		return colOp(op, b.Node[:n], mask, idx, lo, stride)
	case dsCPU:
		return colOp(op, b.CPU[:n], mask, idx, lo, stride)
	case dsThread:
		return colOp(op, b.Thread[:n], mask, idx, lo, stride)
	case dsDict:
		return colOp(op, x.xres[xi].dc[:n], mask, idx, lo, stride)
	}
	return colOp(op, x.xres[xi].f[:n], mask, idx, lo, stride)
}

func colOp[C ~uint8 | ~uint16 | ~uint32 | ~float64](op int, col []C, mask []uint64, idx []uint32, lo, stride uint32) (uint32, uint32) {
	switch op {
	case opIndexFirst:
		idx = idx[:len(col)]
		for i, v := range col {
			idx[i] = (uint32(v) - lo) * stride
		}
	case opIndex:
		idx = idx[:len(col)]
		for i, v := range col {
			idx[i] += (uint32(v) - lo) * stride
		}
	case opRange:
		lo, hi := uint32(math.MaxUint32), uint32(0)
		for _, v := range col {
			lo, hi = min(lo, uint32(v)), max(hi, uint32(v))
		}
		return lo, hi
	case opRangeSel:
		lo, hi := uint32(math.MaxUint32), uint32(0)
		for w, m := range mask {
			for m != 0 {
				v := uint32(col[w<<6+bits.TrailingZeros64(m)])
				m &= m - 1
				lo, hi = min(lo, v), max(hi, v)
			}
		}
		return lo, hi
	}
	return 0, 0
}
