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

// framePart is one frame's evaluation: per table, its partial groups,
// the count of selected records a skip bitmap excluded, and the group-by
// path that folded them (a path bit, 0 when the frame had no row for it).
type framePart struct {
	groups  []groupTable
	skipped []int64
	paths   []uint8
}

// clone copies the partials into right-sized slabs — one holding every
// table's key words, one every table's accumulators, one every table's
// fraction accumulators, which each table's accumulators index within its
// own part — and no group index: a stored partial is only ever merged,
// which reads it through key and row.
func (p *framePart) clone() *framePart {
	nk, na, nf := 0, 0, 0
	for i := range p.groups {
		nk += len(p.groups[i].keys)
		na += len(p.groups[i].accs)
		nf += len(p.groups[i].fracs)
	}
	keys, accs, fracs := make([]uint64, 0, nk), make([]acc, 0, na), make([]frac, 0, nf)
	c := &framePart{groups: make([]groupTable, len(p.groups)), skipped: slices.Clone(p.skipped), paths: slices.Clone(p.paths)}
	for i, g := range p.groups {
		k0, a0, f0 := len(keys), len(accs), len(fracs)
		keys = append(keys, g.keys...)
		accs = append(accs, g.accs...)
		fracs = append(fracs, g.fracs...)
		c.groups[i] = groupTable{nx: g.nx, ny: g.ny, n: g.n,
			keys: keys[k0:len(keys):len(keys)], accs: accs[a0:len(accs):len(accs)], fracs: fracs[f0:len(fracs):len(fracs)]}
	}
	return c
}

// size is what a cloned partial holds, in bytes.
func (p *framePart) size() int64 {
	n := int64(len(p.groups))*int64(unsafe.Sizeof(groupTable{})) + 8*int64(len(p.skipped)) + int64(len(p.paths))
	for i := range p.groups {
		g := &p.groups[i]
		n += 8*int64(len(g.keys)) + int64(unsafe.Sizeof(acc{}))*int64(len(g.accs)) + int64(unsafe.Sizeof(frac{}))*int64(len(g.fracs))
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
	paths := make([]uint8, len(prog.tables))
	var run Run
	err := interval.MapFrames(files, mopts,
		func(file int, fr *interval.Frame) (frameResult, error) {
			// A whole frame's partial is memoized under the run's key; a
			// frame the window cuts is read and evaluated without the
			// memo — another window rarely cuts it at the same instants.
			w := clipWindow(mopts, fr.Entry)
			if keys == nil || files[file].FrameSource() == nil || !w.whole() {
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
			// On a miss the source hands compute the frame; the partial
			// is a function of its group keys and accumulators, which alias
			// nothing of the batch, so the executor outlives it.
			fetched := false
			v, hit, err := files[file].FrameSource().Memo(ctx, files[file], fr.Entry, keys[file], func(b *interval.Batch, store bool) (any, int64, error) {
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
				paths[i] |= r.part.paths[i]
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
		run.Tables[i].Group = groupPath(paths[i])
	}
	for _, x := range pool.all {
		run.SharedSaved += x.saved
		for i, n := range x.evaluated {
			run.Tables[i].Evaluated += n
		}
	}
	return run, nil
}

// Group-by paths, one bit each: what folded a table's rows in a frame.
const (
	pathDense uint8 = 1 << iota // direct index into a slot array
	pathHash                    // a hash of the key words
	pathEntry                   // once per dictionary entry
)

// groupPath names the group-by paths that folded a table over a run's
// frames — memoized partials included, which carry theirs, so the name
// does not depend on which frames a request evaluated.
func groupPath(paths uint8) string {
	switch paths {
	case 0:
		return ""
	case pathDense:
		return "dense"
	case pathHash:
		return "hash"
	case pathEntry:
		return "entry"
	}
	return "mixed"
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
// whole frames' partials under — none for a file with no frame source,
// which is never looked up — or nil when the run consults none. Those
// partials depend on a frame's bytes (the memo keys by frame) and on
// what the key digests, each part length-prefixed or delimited so no two
// descriptions run together: the program text, the run bounds bin()
// reads (a live trace's move with every seal), and, when the program
// codes marker names, the dictionary codes the file's marker table gets.
func (prog *compiledProgram) memoKeys(program string, files []*interval.File, tStart, tEnd clock.Time, dict *strDict) []interval.MemoKey {
	// A program with string + interns its concatenations in the order
	// the workers happen to meet them, so its codes mean something only
	// within the run that made them: it bypasses the memo.
	if program == "" || prog.sl.nc > 0 {
		return nil
	}
	keys := make([]interval.MemoKey, len(files))
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
		keys[fi] = interval.NewMemoKey(k)
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
	if prog.entry {
		x.accumulateEntries(prog.entryTimes, sel, w.whole())
	}
	for si, ct := range prog.tables {
		gt := &x.groups[si]
		gt.reset()
		var visited, sk int64
		var path uint8
		var err error
		if ct.entry {
			path, err = ct.runEntry(x, gt)
		} else {
			visited, sk, path, err = ct.run(x, gt, sel)
		}
		if err != nil {
			return fmt.Errorf("table %q: %w", ct.spec.Name, err)
		}
		x.skipped[si], x.paths[si] = sk, path
		x.evaluated[si] += visited
	}
	return nil
}

// entryAcc is one pass over a frame's selected rows, summed per
// dictionary entry, that every per-entry table reads: per entry its row
// count and, per time field such a table reads (indexed fcStart, fcDura,
// fcEnd), the exact sum and extremes of its rows' values.
type entryAcc struct {
	n []int64
	t [3][]acc
	// A cut frame's selected rows, gathered.
	code        []uint32
	start, dura []clock.Time
}

// accumulateEntries fills x.eacc from the rows sel marks (every row when
// whole), for the time fields whose bit (1<<fcStart, ...) times sets.
func (x *kexec) accumulateEntries(times uint8, sel []uint64, whole bool) {
	b, a := x.b, &x.eacc
	ne := len(b.Dict)
	a.n = slices.Grow(a.n[:0], ne)[:ne]
	clear(a.n)
	for f := range a.t {
		a.t[f] = a.t[f][:0]
		if times&(1<<f) != 0 {
			a.t[f] = slices.Grow(a.t[f], ne)[:ne]
			for e := range a.t[f] {
				a.t[f][e] = newAcc()
			}
		}
	}
	code, start, dura := b.Code[:x.n], b.Start[:x.n], b.Dura[:x.n]
	if !whole {
		// A window cuts the frame: gather the rows it selects.
		a.code, a.start, a.dura = a.code[:0], a.start[:0], a.dura[:0]
		for w, m := range sel {
			for ; m != 0; m &= m - 1 {
				i := w<<6 + bits.TrailingZeros64(m)
				a.code, a.start, a.dura = append(a.code, code[i]), append(a.start, start[i]), append(a.dura, dura[i])
			}
		}
		code, start, dura = a.code, a.start, a.dura
	}
	for _, c := range code {
		a.n[c]++
	}
	if t := a.t[fcStart]; len(t) != 0 {
		for i, c := range code {
			t[c].addInt(int64(start[i]))
		}
	}
	if t := a.t[fcDura]; len(t) != 0 {
		for i, c := range code {
			t[c].addInt(int64(dura[i]))
		}
	}
	if t := a.t[fcEnd]; len(t) != 0 {
		for i, c := range code {
			t[c].addInt(int64(start[i] + dura[i]))
		}
	}
}

// runEntry folds table ct, whose condition and x columns read only the
// key and whose y columns are all integer sources, once per dictionary
// entry: the condition and x columns run over the entries, never over the
// rows, each entry a selected row has and the condition keeps finds its
// group once, and the group takes the entry's sums from the frame's one
// pass (accumulateEntries). Sums do not depend on the order rows are
// added in, so the partial is the row paths' to the bit. It reports
// pathEntry, or 0 when no entry reached a group.
func (ct *compiledTable) runEntry(x *kexec, gt *groupTable) (uint8, error) {
	ev, none, err := x.entryVerdicts(ct)
	if err != nil || none {
		return 0, err
	}
	if err := x.entryKeys(ct); err != nil {
		return 0, err
	}
	a := &x.eacc
	key := x.key[:len(ct.x)]
	var path uint8
	for e, n := range a.n {
		if n == 0 || ev != nil && ev[e] == 0 {
			continue
		}
		for xi := range key {
			key[xi] = x.keyWord(&x.eres[xi], e)
		}
		accs := gt.row(gt.find(key))
		for j := range accs {
			switch ys := &ct.ys[j]; {
			case ys.seconds():
				accs[j].merge(&a.t[ys.field][e])
			case ys.field == fcConst:
				accs[j].addN(ys.c, n)
			default:
				accs[j].addN(keyValue(&x.b.Dict[e], ys.field), n)
			}
		}
		path = pathEntry
	}
	return path, nil
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
// words and ny accumulators, one per y column, in two flat slabs, found
// through an open-addressing index with a last-key memo in front of it.
// A third slab holds the fraction accumulators of those accumulators that
// took a value that is not an integer; no group owns a heap object.
// Groups keep insertion order. The same type holds one frame's partial
// groups (reset per frame, capacity kept) and a run's merged groups.
type groupTable struct {
	nx, ny int
	n      int
	keys   []uint64 // n*nx
	accs   []acc    // n*ny
	fracs  []frac   // indexed by acc.f-1
	idx    []int32  // group+1 per slot, 0 empty; len is a power of two
	last   int      // the group the previous find returned
}

func (t *groupTable) reset() {
	t.n = 0
	t.keys = t.keys[:0]
	t.accs = t.accs[:0]
	t.fracs = t.fracs[:0]
	clear(t.idx)
}

func (t *groupTable) key(g int) []uint64 { return t.keys[g*t.nx : (g+1)*t.nx] }
func (t *groupTable) row(g int) []acc    { return t.accs[g*t.ny : (g+1)*t.ny] }

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

// find returns key's group, adding it with identity accumulators if
// absent.
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
				t.accs = append(t.accs, newAcc())
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

// merge folds one frame's partial groups into the running totals. Every
// accumulator combines exactly, so partials merge in any order; src is
// only read, so a stored partial can be merged again and again.
func (t *groupTable) merge(src *groupTable) {
	for g := 0; g < src.n; g++ {
		d, s := t.row(t.find(src.key(g))), src.row(g)
		for j := range s {
			t.mergeAcc(&d[j], &s[j], src.fracs)
		}
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
		return uint64(r.dc[i])
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
// row.
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
		accs := gt.row(ks[i].g)
		j := i + 1
		for ; j < len(ks) && ks[j].text == ks[i].text; j++ {
			for k, a := range gt.row(ks[j].g) {
				gt.mergeAcc(&accs[k], &a, gt.fracs)
			}
		}
		row := Row{X: ks[i].xs, Y: make([]float64, len(accs))}
		for k := range accs {
			row.Y[k] = gt.value(&accs[k], ct.spec.Y[k].Agg, &ct.ys[k])
		}
		t.Rows = append(t.Rows, row)
		i = j
	}
	sortRows(t)
	return t
}

// run folds the rows sel selects that table ct's condition keeps into
// its partial groups gt. It returns how many rows its row stage visited
// — the selected rows whose entries pass the key-only conjuncts (econd)
// — how many of them skip bitmaps excluded, and the group-by path that
// folded the rest.
func (ct *compiledTable) run(x *kexec, gt *groupTable, sel []uint64) (visited, skipped int64, path uint8, err error) {
	ev, none, err := x.entryVerdicts(ct)
	if err != nil || none {
		return 0, 0, 0, err
	}
	if err := x.entryKeys(ct); err != nil {
		return 0, 0, 0, err
	}
	slots := 0
	if ct.onePass {
		slots = x.onePassSlots(ct, ev)
	}
	if slots > 0 && ct.cond == nil && ct.intY {
		// No row kernel: the fold walks the selection and gates it by
		// the entries' verdicts itself.
		if visited = x.foldOnePass(ct, gt, sel, ev, slots); visited > 0 {
			path = pathDense
		}
		return visited, 0, path, nil
	}
	mask := x.mbuf(ct.maskSlot)
	if visited = x.gate(mask, sel, ev); visited == 0 {
		return 0, 0, 0, nil
	}
	if ct.cond != nil {
		res, err := ct.cond.eval(x, mask)
		if err != nil {
			return visited, skipped, 0, err
		}
		if res.skip != nil {
			skipped += popAnd(mask, res.skip)
			andNotIn(mask, res.skip)
		}
		if res.konst {
			if !(&res).truthAt(0) {
				return visited, skipped, 0, nil
			}
		} else {
			for w, m := range mask {
				mask[w] = res.truthBits(w, x.n) & m
			}
		}
		if !maskAny(mask) {
			return visited, skipped, 0, nil
		}
	}
	for xi, k := range ct.x {
		if slots > 0 || ct.ex[xi] != nil {
			continue // folded from its entry's result or computed in the fold
		}
		res, err := k.eval(x, mask)
		if err != nil {
			return visited, skipped, 0, err
		}
		if res.skip != nil {
			skipped += popAnd(mask, res.skip)
			andNotIn(mask, res.skip)
			if !maskAny(mask) {
				return visited, skipped, 0, nil
			}
		}
		x.xres[xi] = res
	}
	// An integer-source y column reads its integers from the batch
	// (ysrc.at), and never skips or raises: only the kernel ones run.
	for yi, k := range ct.y {
		if ct.ys[yi].integer() {
			continue
		}
		res, err := k.eval(x, mask)
		if err != nil {
			return visited, skipped, 0, err
		}
		if res.skip != nil {
			skipped += popAnd(mask, res.skip)
			andNotIn(mask, res.skip)
			if !maskAny(mask) {
				return visited, skipped, 0, nil
			}
		}
		if k.isStr() && maskAny(mask) {
			return visited, skipped, 0, fmt.Errorf("y expression %q produced a string", ct.spec.Y[yi].Label)
		}
		x.yres[yi] = res
	}
	if !maskAny(mask) {
		return visited, skipped, 0, nil
	}
	if slots > 0 {
		x.foldOnePass(ct, gt, mask, nil, slots)
		return visited, skipped, pathDense, nil
	}
	key := x.key[:len(ct.x)]
	for w := 0; w < x.nw; w++ {
		m := mask[w]
		for m != 0 {
			i := w<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			x.rowKey(ct, key, i)
			x.fold(ct, gt, gt.find(key), i)
		}
	}
	return visited, skipped, pathHash, nil
}

// entryVerdicts runs table ct's key-only conjuncts over the bound
// frame's dictionary entries. ev holds each entry's verdict (1 kept, 0
// not), or is nil when the table has none; none reports that no entry
// is kept by a constant verdict. Conjuncts that read only the type are
// answered from the verdicts per type the executor has seen (evSlot),
// and run only on a frame with a type it has not.
func (x *kexec) entryVerdicts(ct *compiledTable) (ev []uint8, none bool, err error) {
	if ct.econd == nil {
		return nil, false, nil
	}
	dict := x.b.Dict
	if ct.evSlot >= 0 {
		tt := x.tt[ct.evSlot]
		ev = slices.Grow(x.ev[:0], len(dict))[:len(dict)]
		x.ev = ev
		for e := range dict {
			t := int(dict[e].Type)
			if t >= len(tt) || tt[t] == 0 {
				ev = nil
				break
			}
			ev[e] = tt[t] - 1
		}
		if ev != nil {
			return ev, false, nil
		}
	}
	r, err := x.perEntry(ct.econd)
	if err != nil {
		return nil, false, err
	}
	if r.konst {
		return nil, !(&r).truthAt(0), nil
	}
	x.ev = truthBytes(x.ev, &r, len(dict))
	if ct.evSlot >= 0 {
		tt := x.tt[ct.evSlot]
		for e := range dict {
			t := int(dict[e].Type)
			if t >= len(tt) {
				tt = append(tt, make([]uint8, t+1-len(tt))...)
			}
			tt[t] = x.ev[e] + 1
		}
		x.tt[ct.evSlot] = tt
	}
	return x.ev, false, nil
}

// entryKeys runs table ct's key-only x columns over the bound frame's
// dictionary entries, into x.eres.
func (x *kexec) entryKeys(ct *compiledTable) error {
	for xi, fn := range ct.ex {
		if fn == nil {
			continue
		}
		r, err := x.perEntry(fn)
		if err != nil {
			return err
		}
		x.eres[xi] = r
	}
	return nil
}

// gate marks in mask the rows sel marks whose entries ev keeps (every
// one when ev is nil) and returns how many it marked.
func (x *kexec) gate(mask, sel []uint64, ev []uint8) int64 {
	code := x.b.Code[:x.n]
	var n int64
	for w, m := range sel {
		if ev != nil && m != 0 {
			var kept uint64
			for j, c := range code[w<<6 : min(w<<6+64, len(code))] {
				kept |= uint64(ev[c]) << j
			}
			m &= kept
		}
		mask[w] = m
		n += int64(bits.OnesCount64(m))
	}
	return n
}

// rowKey fills key with row i's group-key words: a key-only column's
// from its entry's result, any other's from its row's.
func (x *kexec) rowKey(ct *compiledTable, key []uint64, i int) {
	for xi := range key {
		if ct.ex[xi] != nil {
			key[xi] = x.keyWord(&x.eres[xi], int(x.b.Code[i]))
		} else {
			key[xi] = x.keyWord(&x.xres[xi], i)
		}
	}
}

// fold accumulates row i's y values into group g: an integer source's
// integer, any other column's value as its kernel computed it.
func (x *kexec) fold(ct *compiledTable, gt *groupTable, g, i int) {
	accs := gt.row(g)
	for j := range accs {
		if ys := &ct.ys[j]; ys.integer() {
			accs[j].addInt(ys.at(x.b, i))
		} else {
			gt.add(&accs[j], (&x.yres[j]).fAt(i))
		}
	}
}

// denseSlots bounds the direct-index group-by: a frame in which a
// onePass table's key fields, over the entries its key-only conjuncts
// keep, and its bins, over the frame's rows, span at most this many
// slots finds each row's group by direct index (foldOnePass); a wider
// one folds by hash. An executor's slot array grows to the most slots a
// frame has spanned (64 KiB at most), and only the slots a frame's
// groups land on are touched.
const denseSlots = 1 << 14

// keyInts is a key's fields as integers, indexed by kField code minus
// fcNode: node, cpu, thread, type, and last the bebits (which iscall
// reads). State reads the type, bebits the bebits.
func keyInts(k *interval.Key) [5]uint32 {
	return [5]uint32{uint32(k.Node), uint32(k.CPU), uint32(k.Thread), uint32(k.Type), uint32(k.Bebits)}
}

// denseScratch is an executor's direct-index group-by state.
type denseScratch struct {
	eoff    []uint32  // per dictionary entry, its key fields' slot offset
	vary    []binSpan // a onePass table's bins that vary over the frame's rows
	slot    []int32   // per slot, its group + 1; 0 untouched
	touched []int32   // the slots to clear after the frame
}

// binSpan is a bin that varies over a frame's rows: its least bin there
// and its stride.
type binSpan struct {
	binDim
	lo     int
	stride uint32
}

// onePassSlots sets a onePass table's dimensions for the bound frame —
// the key fields' ranges over the dictionary entries ev keeps (every one
// when ev is nil), and each bin's range over the frame's rows (frameBins)
// — with each entry's offset, and returns the slots they span, or 0 when
// that passes denseSlots (the table then folds the frame by hash). Every
// x column reading a key field shares its dimension (state beside type,
// iscall beside bebits add none), and a bin every row falls in adds none.
func (x *kexec) onePassSlots(ct *compiledTable, ev []uint8) int {
	d, dict := &x.dense, x.b.Dict
	var klo, kstride [5]uint32 // per key field; stride 0: no dimension
	span := uint64(1)
	for f := range klo {
		if ct.keys&(1<<f) == 0 {
			continue
		}
		lo, hi := uint32(math.MaxUint32), uint32(0)
		for e := range dict {
			if ev == nil || ev[e] != 0 {
				v := keyInts(&dict[e])[f]
				lo, hi = min(lo, v), max(hi, v)
			}
		}
		lo = min(lo, hi) // no entry kept: one slot, never read
		klo[f], kstride[f] = lo, uint32(span)
		if span *= uint64(hi-lo) + 1; span > denseSlots {
			return 0
		}
	}
	ts, tspan := x.tStart.Seconds(), (x.tEnd - x.tStart).Seconds()
	d.vary = d.vary[:0]
	for _, bd := range ct.bins {
		lo, hi := frameBins(bd, x.b.Start[:x.n], x.b.Dura[:x.n], ts, tspan)
		if lo == hi {
			continue
		}
		d.vary = append(d.vary, binSpan{bd, lo, uint32(span)})
		if span *= uint64(hi-lo) + 1; span > denseSlots {
			return 0
		}
	}
	// Only a kept entry's offset is ever read.
	eoff := slices.Grow(d.eoff[:0], len(dict))[:len(dict)]
	clear(eoff)
	for f, stride := range kstride {
		if stride == 0 {
			continue
		}
		for e := range dict {
			eoff[e] += (keyInts(&dict[e])[f] - klo[f]) * stride
		}
	}
	d.eoff = eoff
	return int(span)
}

// foldOnePass folds the rows rows marks — those whose entries ev keeps,
// when it is set — into gt by direct index, each row's slot computed in
// the pass that folds it: its entry's offset plus, for each bin that
// varies over the frame, its value less the bin's least times the bin's
// stride, the value by binIndex from the batch's times as kBin computes
// it. A group still enters gt at its first row, so the partial is the
// hash path's. It returns how many rows it folded.
func (x *kexec) foldOnePass(ct *compiledTable, gt *groupTable, rows []uint64, ev []uint8, slots int) int64 {
	d := &x.dense
	if len(d.slot) < slots {
		d.slot = make([]int32, slots)
	}
	// Everything the row loop reads, hoisted: the stores into the accumulators
	// would otherwise reload each through its pointer per row.
	b := x.b
	code, start, dura := b.Code[:x.n], b.Start[:x.n], b.Dura[:x.n]
	eoff, slot, vary, accs := d.eoff, d.slot, d.vary, gt.accs
	// One time column, the predefined tables' shape, folds without fold's
	// loop over the y columns.
	time1 := len(ct.ys) == 1 && ct.ys[0].seconds()
	tf := fcStart
	if time1 {
		tf = ct.ys[0].field
	}
	ts, span := x.tStart.Seconds(), (x.tEnd - x.tStart).Seconds()
	key := x.key[:len(ct.x)]
	var n int64
	for w, m := range rows {
		for ; m != 0; m &= m - 1 {
			i := w<<6 + bits.TrailingZeros64(m)
			c := code[i]
			if ev != nil && ev[c] == 0 {
				continue
			}
			n++
			s := eoff[c]
			for _, bs := range vary {
				s += uint32(binIndex(timeSeconds(bs.field, start[i], dura[i]), bs.n, ts, span)-bs.lo) * bs.stride
			}
			g := slot[s]
			if g == 0 {
				for xi, fn := range ct.ex {
					if fn != nil {
						key[xi] = x.keyWord(&x.eres[xi], int(c))
					}
				}
				for _, bd := range ct.bins {
					key[bd.xi] = math.Float64bits(float64(binIndex(timeSeconds(bd.field, start[i], dura[i]), bd.n, ts, span)))
				}
				g = int32(gt.find(key)) + 1
				slot[s] = g
				d.touched = append(d.touched, int32(s))
				accs = gt.accs
			}
			if time1 {
				accs[g-1].addInt(timeNanos(tf, start[i], dura[i]))
				continue
			}
			x.fold(ct, gt, int(g-1), i)
		}
	}
	for _, s := range d.touched {
		slot[s] = 0
	}
	d.touched = d.touched[:0]
	return n
}

// frameBins reports the least and greatest bin of bd a batch's rows fall
// in: the bins of the field's least and greatest value, when binIndex's
// float value stays inside int's range between them. Every float
// operation binIndex makes is monotone in the time, and so is int
// conversion inside that range, so each row's bin lies between the two.
// Outside it, or over no rows, it reports every bin, 0 … n-1.
func frameBins(bd binDim, start, dura []clock.Time, ts, span float64) (lo, hi int) {
	if span <= 0 {
		return 0, 0
	}
	if len(start) == 0 {
		return 0, bd.n - 1
	}
	tlo, thi := int64(math.MaxInt64), int64(math.MinInt64)
	for i := range start {
		t := timeNanos(bd.field, start[i], dura[i])
		tlo, thi = min(tlo, t), max(thi, t)
	}
	for _, t := range [2]int64{tlo, thi} {
		if v := (clock.Time(t).Seconds() - ts) / span * float64(bd.n); !(v > -1<<62 && v < 1<<62) {
			return 0, bd.n - 1
		}
	}
	return binIndex(clock.Time(tlo).Seconds(), bd.n, ts, span), binIndex(clock.Time(thi).Seconds(), bd.n, ts, span)
}

// timeSeconds is a time field's value in seconds, as kField computes it.
func timeSeconds(field int, start, dura clock.Time) float64 {
	return clock.Time(timeNanos(field, start, dura)).Seconds()
}

// timeNanos is a time field's integer: start, dura or end.
func timeNanos(field int, start, dura clock.Time) int64 {
	switch field {
	case fcStart:
		return int64(start)
	case fcDura:
		return int64(dura)
	}
	return int64(start + dura)
}
