package stats

// The kernel compiler lowers stats expressions (the parse tree in
// parse.go) into vectorized kernels over columnar batches
// (interval.Batch). A kernel evaluates one expression node for a whole
// frame at a time: per-column loops writing into reusable scratch
// buffers, with selection bitmaps standing in for the scalar
// evaluator's lazy control flow.
//
// Every program that parses compiles. The contract is byte-identity
// with the record-at-a-time semantics, which the test-only oracle
// (oracle_test.go) implements by walking the parse tree per record:
//
//   - Values are computed with the same float64 operations in the same
//     per-record order, so sums, keys, and TSV text match bit for bit.
//     An exact y column (exact.go) sums integers, in both.
//   - Runtime errors (division by zero, bin() argument checks, floor()
//     on a skip, and every type error — kTypeErr) stay lazy: a kernel
//     raises them only for rows the scalar semantics would actually
//     reach, which the selection bitmap tracks through short-circuit
//     && / || exactly.
//   - A record lacking a referenced field becomes a per-row skip
//     bitmap. Skip bitmaps are row-static — determined by record
//     contents alone, never by the selection — so composing them
//     through nested operators is deterministic.
//
// String-valued expressions never materialize strings per row: the
// string leaves (state, bebits, markername) and concatenations are coded
// columns — a small integer per row plus a dictionary consulted once per
// distinct code — and the kernels that consume them (comparison,
// truthiness, the group-by in columnar.go) work on the codes.
//
// A program is compiled as a whole. A pure subtree — one that never
// raises, so neither its values nor its skip bitmap depend on the
// selection it is evaluated under — is hash-consed across every table
// (kShared) and runs at most once per frame per executor. One rule
// covers every pure subtree that reads nothing of a row but its key —
// state, bebits, type, iscall, node, cpu, thread, and constants: it is
// a kEntry, run through the same kernels once per entry of the frame's
// dictionary (interval.Batch.Dict, viewed as a batch) and gathered to
// the rows by code. Logical results carry their truth as a bitmap, and
// a float column only where a consumer reads values.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/profile"
)

// kslots hands out scratch-buffer indices during compilation. Every
// kernel node owns fixed slots into the executor's buffer tables, so
// evaluation never allocates once the buffers have grown to frame size.
type kslots struct {
	nf, nu, nm, nt, nc int
	ns                 int  // shared kernels
	markers            bool // some expression reads markername
}

func (s *kslots) f() int  { s.nf++; return s.nf - 1 }
func (s *kslots) u() int  { s.nu++; return s.nu - 1 }
func (s *kslots) m() int  { s.nm++; return s.nm - 1 }
func (s *kslots) tt() int { s.nt++; return s.nt - 1 }
func (s *kslots) c() int  { s.nc++; return s.nc - 1 }

// codeKind names the dictionary a coded column's codes index.
type codeKind uint8

const (
	ckState  codeKind = iota // codes are the key's type; names are Type.Name
	ckBebits                 // codes are the key's bebits; names are Bebits.String
	ckDict                   // codes are run-global ids in the run's string dictionary (strDict)
)

// kres is one kernel's result for a frame: a constant, a float column,
// or (str && !konst) a coded column of the given kind (dc, one code per
// row), plus an optional skip bitmap marking rows that lack a referenced
// field. Values at skipped rows are undefined (codes stay valid
// dictionary indices). Skip bitmaps cover all rows of the frame, not
// just selected ones; consumers intersect with their selection. A logical result carries its truth as
// the bitmap tm, and its float column only when the compiler marked a
// consumer that reads values (vals).
type kres struct {
	konst bool
	str   bool
	kind  codeKind
	cf    float64
	cs    string
	f     []float64
	tm    []uint64 // truth bits, when the kernel computes them; zero past the last row
	dc    []uint32 // codes, of the result's kind
	skip  []uint64
}

func (r *kres) fAt(i int) float64 {
	if r.konst {
		return r.cf
	}
	return r.f[i]
}

// truthAt is a constant numeric result's truthiness; string-valued
// operands reach the logical kernels through kTruth.
func (r *kres) truthAt(i int) bool { return r.fAt(i) != 0 }

// truthBits is word w of a numeric result's truthiness over all rows:
// its truth bitmap when it carries one, else computed from its values.
func (r *kres) truthBits(w, n int) uint64 {
	switch {
	case r.tm != nil:
		return r.tm[w]
	case r.konst:
		if r.cf == 0 {
			return 0
		}
		return wordMask(w, n)
	}
	return truthWord(r, w, n)
}

// kernel is one compiled expression node.
type kernel interface {
	isStr() bool
	// eval computes the node over the frame bound to x. sel marks the
	// rows the oracle would reach; it gates runtime error checks and
	// short-circuit laziness, but value columns may be computed for
	// all rows (junk at unreached rows is harmless — those
	// rows are never consumed).
	eval(x *kexec, sel []uint64) (kres, error)
}

// kexec is the per-worker execution state: the bound batch, the scratch
// buffer tables the compiled kernels index into, and the frame's partial
// groups. One kexec is reused across frames (execPool), so steady-state
// evaluation does not allocate.
type kexec struct {
	n, nw     int // rows, bitmap words
	b         *interval.Batch
	file      int
	dict      *strDict
	tStart    clock.Time
	tEnd      clock.Time
	f         [][]float64
	u         [][]uint32
	m         [][]uint64
	tt        [][]uint8           // per-code verdict tables; a code never changes its string, so they outlive frames
	memo      []map[uint64]uint32 // per kConcat: result code by (left code, right code), for the executor's lifetime
	gen       uint64              // the bound frame's number; shared results of an older one are stale
	sres      []kres              // per kShared: its result on frame sgen
	sgen      []uint64
	xres      []kres
	yres      []kres
	key       []uint64
	dense     denseScratch
	framePart // the bound frame's partials

	// The bound frame's dictionary viewed as a batch, for kEntry: eb's
	// rows are the entries, row i's code i (ecode is 0, 1, 2, ...).
	// While x.b is &eb, kernels run over it.
	eb       interval.Batch
	ecode    []uint32
	eselSlot int
	// etm is a kEntry's per-entry truth, one 0/1 byte per entry, reused
	// across kernels.
	etm []uint8
	// xpos is kExtra's per-entry field position, reused across kernels.
	xpos []uint8

	// eacc is the bound frame's rows summed per dictionary entry, for the
	// tables that fold per entry.
	eacc entryAcc

	// Observability, summed over a run's executors: kShared evaluations
	// answered by a result the frame already had.
	saved int64
}

func (p *compiledProgram) newExec(tStart, tEnd clock.Time, dict *strDict) *kexec {
	return &kexec{
		tStart: tStart, tEnd: tEnd, dict: dict,
		f:         make([][]float64, p.sl.nf),
		u:         make([][]uint32, p.sl.nu),
		m:         make([][]uint64, p.sl.nm),
		tt:        make([][]uint8, p.sl.nt),
		memo:      make([]map[uint64]uint32, p.sl.nc),
		sres:      make([]kres, p.sl.ns),
		sgen:      make([]uint64, p.sl.ns),
		xres:      make([]kres, p.maxX),
		yres:      make([]kres, p.maxY),
		key:       make([]uint64, p.maxX),
		dense:     denseScratch{lo: make([]uint32, p.maxX), stride: make([]uint32, p.maxX)},
		framePart: framePart{groups: p.newGroupTables(), skipped: make([]int64, len(p.tables)), paths: make([]uint8, len(p.tables))},
		eselSlot:  p.eselSlot,
	}
}

// newGroupTables returns one empty group table per spec.
func (p *compiledProgram) newGroupTables() []groupTable {
	gts := make([]groupTable, len(p.tables))
	for i, ct := range p.tables {
		gts[i] = groupTable{nx: len(ct.x), nf: len(ct.fys), ne: len(ct.xys)}
	}
	return gts
}

// bind points the executor at a frame's batch.
func (x *kexec) bind(file int, b *interval.Batch) {
	x.file = file
	x.b = b
	x.n = b.N
	x.nw = (b.N + 63) >> 6
	x.gen++
}

func (x *kexec) fbuf(slot int) []float64 {
	s := x.f[slot]
	if cap(s) < x.n {
		s = make([]float64, x.n)
		x.f[slot] = s
	}
	return s[:x.n]
}

func (x *kexec) ubuf(slot int) []uint32 {
	s := x.u[slot]
	if cap(s) < x.n {
		s = make([]uint32, x.n)
		x.u[slot] = s
	}
	return s[:x.n]
}

func (x *kexec) mbuf(slot int) []uint64 {
	s := x.m[slot]
	if cap(s) < x.nw {
		s = make([]uint64, x.nw)
		x.m[slot] = s
	}
	return s[:x.nw]
}

// Bitmap helpers. All bitmaps are x.nw words covering x.n rows; bits
// past n are always zero in selection masks.

func maskZero(m []uint64) {
	for i := range m {
		m[i] = 0
	}
}

func maskOnes(m []uint64, n int) {
	for i := range m {
		m[i] = ^uint64(0)
	}
	if n&63 != 0 && len(m) > 0 {
		m[len(m)-1] = (uint64(1) << uint(n&63)) - 1
	}
}

// wordMask is the bits of word w that stand for one of n rows.
func wordMask(w, n int) uint64 {
	if lim := n - w<<6; lim < 64 {
		return uint64(1)<<uint(lim) - 1
	}
	return ^uint64(0)
}

func maskAny(m []uint64) bool {
	for _, w := range m {
		if w != 0 {
			return true
		}
	}
	return false
}

// popAnd counts bits set in both a and b.
func popAnd(a, b []uint64) int64 {
	var n int64
	for i := range a {
		n += int64(bits.OnesCount64(a[i] & b[i]))
	}
	return n
}

// andNotIn clears a's bits that are set in b (a &^= b).
func andNotIn(a, b []uint64) {
	for i := range a {
		a[i] &^= b[i]
	}
}

// selMinus returns sel with skip removed, writing into the slot buffer
// when skip is non-nil, aliasing sel otherwise.
func (x *kexec) selMinus(slot int, sel, skip []uint64) []uint64 {
	if skip == nil {
		return sel
	}
	out := x.mbuf(slot)
	for i := range out {
		out[i] = sel[i] &^ skip[i]
	}
	return out
}

// unionSkip combines two row-static skip bitmaps: nil when both are
// nil, an alias when only one is set, their union in the slot buffer
// otherwise.
func (x *kexec) unionSkip(slot int, a, b []uint64) []uint64 {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := x.mbuf(slot)
	for i := range out {
		out[i] = a[i] | b[i]
	}
	return out
}

// truthWord computes the truthiness bits of rows [w*64, w*64+64) of a
// kernel result, over all rows regardless of selection (values at
// non-skipped rows are row-static, which keeps derived skip bitmaps
// row-static too).
func truthWord(r *kres, w, n int) uint64 {
	base := w << 6
	lim := n - base
	if lim > 64 {
		lim = 64
	}
	var tm uint64
	f := r.f[base:]
	for j := 0; j < lim; j++ {
		if f[j] != 0 {
			tm |= 1 << uint(j)
		}
	}
	return tm
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ---- leaf kernels ----

type kConstNum struct{ v float64 }

func (kConstNum) isStr() bool { return false }
func (k kConstNum) eval(*kexec, []uint64) (kres, error) {
	return kres{konst: true, cf: k.v}, nil
}

type kConstStr struct{ v string }

func (kConstStr) isStr() bool { return true }
func (k kConstStr) eval(*kexec, []uint64) (kres, error) {
	return kres{konst: true, str: true, cs: k.v}, nil
}

// Numeric built-in field codes. From fcNode on, a field reads the row's
// key.
const (
	fcStart = iota
	fcDura
	fcEnd
	fcNode
	fcCPU
	fcThread
	fcType
	fcIsCall
)

type kField struct{ code, slot int }

func (kField) isStr() bool { return false }
func (k kField) eval(x *kexec, _ []uint64) (kres, error) {
	out := x.fbuf(k.slot)
	b := x.b
	switch k.code {
	case fcStart:
		for i := range out {
			out[i] = b.Start[i].Seconds()
		}
	case fcDura:
		for i := range out {
			out[i] = b.Dura[i].Seconds()
		}
	case fcEnd:
		for i := range out {
			out[i] = (b.Start[i] + b.Dura[i]).Seconds()
		}
	case fcIsCall:
		for i := range out {
			be := b.Key(i).Bebits
			out[i] = b2f(be == 2 || be == 3)
		}
	default: // node, cpu, thread, type: a key field
		for i := range out {
			out[i] = float64(keyInts(b.Key(i))[k.code-fcNode])
		}
	}
	return kres{f: out}, nil
}

// kFieldStr is a string built-in as a coded column: state's codes are
// the key's type, bebits' the key's bebits. Bebits values past Complete
// all render "bebits?", so they share one code: within a kind, distinct
// codes always have distinct names. It reads only the key, so it runs
// per entry (kEntry) and reaches rows gathered.
type kFieldStr struct {
	kind codeKind
	slot int
}

func (kFieldStr) isStr() bool { return true }
func (k kFieldStr) eval(x *kexec, _ []uint64) (kres, error) {
	out := x.ubuf(k.slot)
	lim := uint32(math.MaxUint32)
	if k.kind == ckBebits {
		lim = uint32(profile.Complete) + 1
	}
	for i := range out {
		out[i] = min(keyInts(x.b.Key(i))[fcType-fcNode+int(k.kind)], lim)
	}
	return kres{str: true, kind: k.kind, dc: out}, nil
}

// codeName is the dictionary: the string a code of the given kind
// stands for. Only ckDict codes need d.
func codeName(kind codeKind, c uint32, d *strDict) string {
	switch kind {
	case ckState:
		return events.Type(c).Name()
	case ckBebits:
		return profile.Bebits(c).String()
	}
	return d.name(c)
}

// codePred is a predicate over a coded column's names: name op c, or
// name != "" (truthiness) when op is empty.
type codePred struct{ op, c string }

func (p codePred) of(name string) bool {
	if p.op == "" {
		return name != ""
	}
	return cmpStr(p.op, name, p.c) != 0
}

// codeVerdicts writes pred's 0/1 verdict on every row of a coded column
// into out. The predicate runs once per distinct code: the slot's table
// remembers verdicts (0 unknown, 1 false, 2 true) for the executor's
// lifetime, and rows are answered by lookup.
func (x *kexec) codeVerdicts(out []float64, r *kres, ttSlot int, pred codePred) {
	tt := x.tt[ttSlot]
	for i, c := range r.dc[:len(out)] {
		if int(c) >= len(tt) {
			tt = append(tt, make([]uint8, int(c)+1-len(tt))...)
		}
		v := tt[c]
		if v == 0 {
			v = 1
			if pred.of(codeName(r.kind, c, x.dict)) {
				v = 2
			}
			tt[c] = v
		}
		out[i] = float64(v - 1)
	}
	x.tt[ttSlot] = tt
}

// kTruth is a string operand's truthiness (non-empty) as a 0/1 column.
// Lowering wraps every string-valued condition and logical operand in
// it, so the logical kernels only ever see numbers.
type kTruth struct {
	x            kernel
	slot, ttSlot int
}

func (kTruth) isStr() bool { return false }
func (k kTruth) eval(x *kexec, sel []uint64) (kres, error) {
	r, err := k.x.eval(x, sel)
	if err != nil {
		return kres{}, err
	}
	if r.konst {
		return kres{konst: true, cf: b2f(r.cs != "")}, nil
	}
	out := x.fbuf(k.slot)
	x.codeVerdicts(out, &r, k.ttSlot, codePred{})
	return kres{f: out, skip: r.skip}, nil
}

// kExtra loads a per-type extra field, producing skip bits for rows
// whose type does not carry it. With marker set it is markername: the
// field is the marker id, and the result is the coded column of the
// names the file's marker table gives those ids (slot then indexes the
// uint32 buffers). Where a row keeps the field is a function of its key,
// found once per dictionary entry.
type kExtra struct {
	name           string
	marker         bool
	slot, skipSlot int
}

func (k kExtra) isStr() bool { return k.marker }
func (k kExtra) eval(x *kexec, _ []uint64) (kres, error) {
	var out []float64
	var mk []uint32
	var codes map[uint64]uint32
	if k.marker {
		mk = x.ubuf(k.slot)
		codes = x.dict.markers[x.file]
	} else {
		out = x.fbuf(k.slot)
	}
	b := x.b
	var skip []uint64
	// The field's index + 1 among an entry's extras, 0 where it has none.
	x.xpos = interval.PerEntry(x.xpos, b, func(e *interval.Key) uint8 {
		if i := extraIndex(e.Type, k.name); i >= 0 && i < int(e.NX) {
			return uint8(i + 1)
		}
		return 0
	})
	for i, c := range b.Code[:x.n] {
		if p := x.xpos[c]; p > 0 {
			v := b.Extras[b.ExtraOff[i]+uint32(p)-1]
			if k.marker {
				mk[i] = codes[v] // an id the table lacks names "", code 0
			} else {
				out[i] = float64(v)
			}
		} else {
			if k.marker {
				mk[i] = 0
			}
			if skip == nil {
				skip = x.mbuf(k.skipSlot)
				maskZero(skip)
			}
			skip[i>>6] |= 1 << uint(i&63)
		}
	}
	return kres{str: k.marker, kind: ckDict, f: out, dc: mk, skip: skip}, nil
}

func extraIndex(t events.Type, name string) int {
	for i, f := range events.ExtraFields(t) {
		if f == name {
			return i
		}
	}
	return -1
}

// ---- unary kernels ----

type kNeg struct {
	x    kernel
	slot int
}

func (kNeg) isStr() bool { return false }
func (k kNeg) eval(x *kexec, sel []uint64) (kres, error) {
	r, err := k.x.eval(x, sel)
	if err != nil {
		return kres{}, err
	}
	if r.konst {
		return kres{konst: true, cf: -r.cf}, nil
	}
	out := x.fbuf(k.slot)
	for i := range out {
		out[i] = -r.f[i]
	}
	return kres{f: out, skip: r.skip}, nil
}

// kNot is logical negation. Its truth is a bitmap; vals also spells it
// out as a 0/1 float column.
type kNot struct {
	x            kernel
	vals         bool
	slot, tmSlot int
}

func (*kNot) isStr() bool { return false }
func (k *kNot) eval(x *kexec, sel []uint64) (kres, error) {
	r, err := k.x.eval(x, sel)
	if err != nil {
		return kres{}, err
	}
	if r.konst {
		return kres{konst: true, cf: b2f(!(&r).truthAt(0))}, nil
	}
	tm := x.mbuf(k.tmSlot)
	for w := range tm {
		tm[w] = ^r.truthBits(w, x.n) & wordMask(w, x.n)
	}
	return x.boolRes(k.vals, k.slot, tm, r.skip), nil
}

// boolRes is a logical result: its truth bitmap, and with vals the same
// truth as a 0/1 float column in the slot buffer.
func (x *kexec) boolRes(vals bool, slot int, tm, skip []uint64) kres {
	r := kres{tm: tm, skip: skip}
	if vals {
		out := x.fbuf(slot)
		for i := range out {
			out[i] = float64(tm[i>>6] >> uint(i&63) & 1)
		}
		r.f = out
	}
	return r
}

// ---- binary kernels ----

// kArith is every strict numeric binary operator: arithmetic and
// comparisons. Division and modulo raise their by-zero errors only for
// selected, unskipped rows, matching the oracle's laziness.
type kArith struct {
	op                                    string
	l, r                                  kernel
	slot, lslot, rslot, skipSlot, selSlot int
}

func (kArith) isStr() bool { return false }
func (k kArith) eval(x *kexec, sel []uint64) (kres, error) {
	rl, err := k.l.eval(x, sel)
	if err != nil {
		return kres{}, err
	}
	selR := x.selMinus(k.selSlot, sel, rl.skip)
	rr, err := k.r.eval(x, selR)
	if err != nil {
		return kres{}, err
	}
	skip := x.unionSkip(k.skipSlot, rl.skip, rr.skip)
	if k.op == "/" || k.op == "%" {
		// The oracle checks the divisor before dividing, for exactly
		// the records it reaches: sel minus every skip.
		if rr.konst {
			if rr.cf == 0 {
				eff := x.selMinus(k.selSlot, selR, rr.skip)
				if maskAny(eff) {
					return kres{}, divErr(k.op)
				}
			}
		} else {
			for w := 0; w < x.nw; w++ {
				m := selR[w]
				if rr.skip != nil {
					m &^= rr.skip[w]
				}
				for m != 0 {
					i := w<<6 + bits.TrailingZeros64(m)
					m &= m - 1
					if rr.f[i] == 0 {
						return kres{}, divErr(k.op)
					}
				}
			}
		}
	}
	if rl.konst && rr.konst {
		return kres{konst: true, cf: arith(k.op, rl.cf, rr.cf)}, nil
	}
	lf := rl.f
	if rl.konst {
		lf = x.fbuf(k.lslot)
		for i := range lf {
			lf[i] = rl.cf
		}
	}
	rf := rr.f
	if rr.konst {
		rf = x.fbuf(k.rslot)
		for i := range rf {
			rf[i] = rr.cf
		}
	}
	out := x.fbuf(k.slot)
	switch k.op {
	case "+":
		for i := range out {
			out[i] = lf[i] + rf[i]
		}
	case "-":
		for i := range out {
			out[i] = lf[i] - rf[i]
		}
	case "*":
		for i := range out {
			out[i] = lf[i] * rf[i]
		}
	case "/":
		for i := range out {
			out[i] = lf[i] / rf[i]
		}
	case "%":
		for i := range out {
			out[i] = math.Mod(lf[i], rf[i])
		}
	case "<":
		for i := range out {
			out[i] = b2f(lf[i] < rf[i])
		}
	case "<=":
		for i := range out {
			out[i] = b2f(lf[i] <= rf[i])
		}
	case ">":
		for i := range out {
			out[i] = b2f(lf[i] > rf[i])
		}
	case ">=":
		for i := range out {
			out[i] = b2f(lf[i] >= rf[i])
		}
	case "==":
		for i := range out {
			out[i] = b2f(lf[i] == rf[i])
		}
	case "!=":
		for i := range out {
			out[i] = b2f(lf[i] != rf[i])
		}
	}
	return kres{f: out, skip: skip}, nil
}

func arith(op string, l, r float64) float64 {
	switch op {
	case "+":
		return l + r
	case "-":
		return l - r
	case "*":
		return l * r
	case "/":
		return l / r
	case "%":
		return math.Mod(l, r)
	case "<":
		return b2f(l < r)
	case "<=":
		return b2f(l <= r)
	case ">":
		return b2f(l > r)
	case ">=":
		return b2f(l >= r)
	case "==":
		return b2f(l == r)
	case "!=":
		return b2f(l != r)
	}
	return 0
}

func divErr(op string) error {
	if op == "/" {
		return fmt.Errorf("stats: division by zero")
	}
	return fmt.Errorf("stats: modulo by zero")
}

// kCmpStr compares two string-typed operands by their codes. Against a
// constant the comparison is a per-code verdict table; between two coded
// columns the verdict is recomputed only when the pair of codes changes
// from one row to the next.
type kCmpStr struct {
	op                              string
	l, r                            kernel
	slot, ttSlot, skipSlot, selSlot int
}

func (kCmpStr) isStr() bool { return false }
func (k kCmpStr) eval(x *kexec, sel []uint64) (kres, error) {
	rl, err := k.l.eval(x, sel)
	if err != nil {
		return kres{}, err
	}
	selR := x.selMinus(k.selSlot, sel, rl.skip)
	rr, err := k.r.eval(x, selR)
	if err != nil {
		return kres{}, err
	}
	skip := x.unionSkip(k.skipSlot, rl.skip, rr.skip)
	if rl.konst && rr.konst {
		return kres{konst: true, cf: cmpStr(k.op, rl.cs, rr.cs)}, nil
	}
	out := x.fbuf(k.slot)
	switch {
	case rr.konst:
		x.codeVerdicts(out, &rl, k.ttSlot, codePred{k.op, rr.cs})
	case rl.konst:
		x.codeVerdicts(out, &rr, k.ttSlot, codePred{flipCmp(k.op), rl.cs})
	default:
		var lastL, lastR uint32
		var last float64
		for i := range out {
			lc, rc := rl.dc[i], rr.dc[i]
			if i == 0 || lc != lastL || rc != lastR {
				lastL, lastR = lc, rc
				last = cmpStr(k.op, codeName(rl.kind, lc, x.dict), codeName(rr.kind, rc, x.dict))
			}
			out[i] = last
		}
	}
	return kres{f: out, skip: skip}, nil
}

// flipCmp mirrors a comparison operator: l op r == r flipCmp(op) l.
func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

func cmpStr(op string, l, r string) float64 {
	switch op {
	case "==":
		return b2f(l == r)
	case "!=":
		return b2f(l != r)
	case "<":
		return b2f(l < r)
	case "<=":
		return b2f(l <= r)
	case ">":
		return b2f(l > r)
	case ">=":
		return b2f(l >= r)
	}
	return 0
}

// kConcat is string +, a coded column over the run's dictionary. Each
// distinct pair of operand codes is spelled out and interned once per
// executor; rows are answered from the memo, and runs of one pair from
// the last lookup. String operands never raise errors or read the
// selection, so both see sel, and a row either operand skips is
// skipped. Two constant operands never get here: lowering folds them.
type kConcat struct {
	l, r                     kernel
	slot, memoSlot, skipSlot int
}

func (kConcat) isStr() bool { return true }
func (k kConcat) eval(x *kexec, sel []uint64) (kres, error) {
	rl, err := k.l.eval(x, sel)
	if err != nil {
		return kres{}, err
	}
	rr, err := k.r.eval(x, sel)
	if err != nil {
		return kres{}, err
	}
	memo := x.memo[k.memoSlot]
	if memo == nil {
		memo = make(map[uint64]uint32)
		x.memo[k.memoSlot] = memo
	}
	out := x.ubuf(k.slot)
	var lastKey uint64
	var last uint32
	for i := range out {
		var lc, rc uint32 // a constant operand's code is 0; its text is cs
		if !rl.konst {
			lc = rl.dc[i]
		}
		if !rr.konst {
			rc = rr.dc[i]
		}
		key := uint64(lc)<<32 | uint64(rc)
		if i == 0 || key != lastKey {
			c, ok := memo[key]
			if !ok {
				c = x.dict.intern(x.text(&rl, lc) + x.text(&rr, rc))
				memo[key] = c
			}
			lastKey, last = key, c
		}
		out[i] = last
	}
	return kres{str: true, kind: ckDict, dc: out, skip: x.unionSkip(k.skipSlot, rl.skip, rr.skip)}, nil
}

// text is the string a string result holds where its code is c.
func (x *kexec) text(r *kres, c uint32) string {
	if r.konst {
		return r.cs
	}
	return codeName(r.kind, c, x.dict)
}

// kTypeErr is an expression the language rejects with a type error:
// mixed string and number operands, arithmetic on strings, unary - on a
// string, bin() of a string, an unknown function or a wrong arity. Its
// operands are evaluated as the scalar semantics do — in order, each on
// sel minus the earlier operands' skips — so their own errors and skips
// come first; the error fires when a selected row survives every
// operand's skip, and the union of those skips is the result's. (floor()
// and abs() of a string wrap one in kFloorAbs, which turns any failure
// of its argument, skips included, into its own message.) The value
// column is zeros: no consumer reaches a row without the error firing.
type kTypeErr struct {
	err                     error
	args                    []kernel
	slot, skipSlot, selSlot int
}

func typeErr(sl *kslots, msg string, args ...kernel) kernel {
	return kTypeErr{errors.New(msg), args, sl.f(), sl.m(), sl.m()}
}

func (kTypeErr) isStr() bool { return false }
func (k kTypeErr) eval(x *kexec, sel []uint64) (kres, error) {
	var skip []uint64
	reach := sel
	for _, a := range k.args {
		r, err := a.eval(x, reach)
		if err != nil {
			return kres{}, err
		}
		skip = x.unionSkip(k.skipSlot, skip, r.skip)
		reach = x.selMinus(k.selSlot, sel, skip)
	}
	if maskAny(reach) {
		return kres{}, k.err
	}
	out := x.fbuf(k.slot)
	clear(out)
	return kres{f: out, skip: skip}, nil
}

// kLogic is short-circuit && / ||: the right operand is evaluated with
// a selection restricted to rows the oracle would evaluate it for, so
// errors and skips on the right surface for exactly those rows. Its
// truth is a bitmap (the left side's where it decides, the right side's
// elsewhere); vals also spells it out as a 0/1 float column.
type kLogic struct {
	and                             bool
	vals                            bool
	l, r                            kernel
	slot, selSlot, tmSlot, skipSlot int
}

func (*kLogic) isStr() bool { return false }
func (k *kLogic) eval(x *kexec, sel []uint64) (kres, error) {
	rl, err := k.l.eval(x, sel)
	if err != nil {
		return kres{}, err
	}
	tm := x.mbuf(k.tmSlot)
	if rl.konst {
		lt := (&rl).truthAt(0)
		// A constant deciding operand short-circuits for every record:
		// the oracle never touches the right side, so neither do we (it
		// may contain expressions that would error or skip).
		if k.and && !lt {
			return kres{konst: true, cf: 0}, nil
		}
		if !k.and && lt {
			return kres{konst: true, cf: 1}, nil
		}
		rr, err := k.r.eval(x, sel)
		if err != nil {
			return kres{}, err
		}
		if rr.konst {
			return kres{konst: true, cf: b2f((&rr).truthAt(0))}, nil
		}
		for w := range tm {
			tm[w] = rr.truthBits(w, x.n)
		}
		return x.boolRes(k.vals, k.slot, tm, rr.skip), nil
	}
	// Variable left operand: take its truthiness for every row
	// (row-static) and derive the right side's selection from it.
	selR := x.mbuf(k.selSlot)
	for w := 0; w < x.nw; w++ {
		t := rl.truthBits(w, x.n)
		tm[w] = t
		m := sel[w]
		if rl.skip != nil {
			m &^= rl.skip[w]
		}
		if k.and {
			selR[w] = m & t
		} else {
			selR[w] = m &^ t
		}
	}
	rr, err := k.r.eval(x, selR)
	if err != nil {
		return kres{}, err
	}
	// Rows where the left side decides keep its verdict; the rest take
	// the right side's truthiness. For &&, deciding means falsy (tm
	// clear); for ||, deciding means truthy (tm set). The right side's
	// skips count only where it was reached.
	var skip []uint64
	if rl.skip != nil || rr.skip != nil {
		skip = x.mbuf(k.skipSlot)
	}
	for w := 0; w < x.nw; w++ {
		lt, rt := tm[w], rr.truthBits(w, x.n)
		if skip != nil {
			var s uint64
			if rl.skip != nil {
				s = rl.skip[w]
			}
			if rr.skip != nil {
				rs := rr.skip[w]
				if k.and {
					rs &= lt
				} else {
					rs &^= lt
				}
				s |= rs
			}
			skip[w] = s
		}
		if k.and {
			tm[w] = lt & rt
		} else {
			tm[w] = lt | rt
		}
	}
	return x.boolRes(k.vals, k.slot, tm, skip), nil
}

// ---- call kernels ----

// kBin is the bin(t, n) builtin, mirroring the scalar arithmetic
// (divide by span, then scale by n) operation for operation.
type kBin struct {
	t, n                    kernel
	slot, skipSlot, selSlot int
}

func (kBin) isStr() bool { return false }
func (k kBin) eval(x *kexec, sel []uint64) (kres, error) {
	rt, err := k.t.eval(x, sel)
	if err != nil {
		return kres{}, err
	}
	selN := x.selMinus(k.selSlot, sel, rt.skip)
	rn, err := k.n.eval(x, selN)
	if err != nil {
		return kres{}, err
	}
	skip := x.unionSkip(k.skipSlot, rt.skip, rn.skip)
	if rn.konst {
		if rn.cf < 1 {
			eff := x.selMinus(k.selSlot, selN, rn.skip)
			if maskAny(eff) {
				return kres{}, fmt.Errorf("stats: bin() needs numeric arguments")
			}
		}
	} else {
		for w := 0; w < x.nw; w++ {
			m := selN[w]
			if rn.skip != nil {
				m &^= rn.skip[w]
			}
			for m != 0 {
				i := w<<6 + bits.TrailingZeros64(m)
				m &= m - 1
				if rn.f[i] < 1 {
					return kres{}, fmt.Errorf("stats: bin() needs numeric arguments")
				}
			}
		}
	}
	span := (x.tEnd - x.tStart).Seconds()
	ts := x.tStart.Seconds()
	if rt.konst && rn.konst {
		return kres{konst: true, cf: binValue(rt.cf, rn.cf, ts, span)}, nil
	}
	out := x.fbuf(k.slot)
	for i := range out {
		out[i] = binValue(rt.fAt(i), rn.fAt(i), ts, span)
	}
	return kres{f: out, skip: skip}, nil
}

// binValue replicates the oracle's bin() arithmetic exactly: int
// truncation of (t - tStart) / span * n, clamped to [0, n-1].
func binValue(tv, nv, ts, span float64) float64 {
	if span <= 0 {
		return 0
	}
	n := int(nv)
	b := int((tv - ts) / span * float64(n))
	if b < 0 {
		b = 0
	}
	if b >= n {
		b = n - 1
	}
	return float64(b)
}

// kFloorAbs is floor() / abs(). The scalar semantics turn any child
// failure — a skip included — into the function's own error, so a skip
// on a selected row is an error here, not a skip.
type kFloorAbs struct {
	floor bool
	x     kernel
	slot  int
}

func (kFloorAbs) isStr() bool { return false }
func (k kFloorAbs) eval(x *kexec, sel []uint64) (kres, error) {
	name := "abs"
	if k.floor {
		name = "floor"
	}
	r, err := k.x.eval(x, sel)
	if err != nil {
		return kres{}, fmt.Errorf("stats: %s() needs a number", name)
	}
	if r.skip != nil && popAnd(sel, r.skip) > 0 {
		return kres{}, fmt.Errorf("stats: %s() needs a number", name)
	}
	if r.konst {
		if k.floor {
			return kres{konst: true, cf: math.Floor(r.cf)}, nil
		}
		return kres{konst: true, cf: math.Abs(r.cf)}, nil
	}
	out := x.fbuf(k.slot)
	if k.floor {
		for i := range out {
			out[i] = math.Floor(r.f[i])
		}
	} else {
		for i := range out {
			out[i] = math.Abs(r.f[i])
		}
	}
	return kres{f: out}, nil
}

// ---- shared kernels ----

// kShared is a pure subtree, hash-consed across a program's tables: it
// runs at most once per frame per executor, and every later use in the
// frame reads that result. Pure means it never raises, and its values
// and skip bitmap are computed for all rows whatever the selection, so
// the first use's selection is as good as any.
type kShared struct {
	k  kernel
	id int
}

func (k kShared) isStr() bool { return k.k.isStr() }
func (k kShared) eval(x *kexec, sel []uint64) (kres, error) {
	if x.b == &x.eb {
		// Over the dictionary nothing is kept: the results cached are
		// the frame's rows'.
		return k.k.eval(x, sel)
	}
	if x.sgen[k.id] == x.gen {
		x.saved++
		return x.sres[k.id], nil
	}
	r, err := k.k.eval(x, sel)
	if err != nil {
		return kres{}, err
	}
	x.sres[k.id], x.sgen[k.id] = r, x.gen
	return r, nil
}

// kEntry is a pure subtree that reads nothing of a row but its key
// (state, bebits, type, iscall, node, cpu, thread, and constants). It
// runs through the same kernels once per entry of the frame's
// dictionary, viewed as a batch whose rows are the entries, and each
// row takes its entry's result by code: its values where the subtree
// computes them, its truth bits where it computes those, its codes for
// a string. Key fields are never missing, so no result skips. Inside a
// kEntry's run every nested one is just its subtree.
type kEntry struct {
	fn                  kernel
	slot, tmSlot, uSlot int
}

func (k *kEntry) isStr() bool { return k.fn.isStr() }
func (k *kEntry) eval(x *kexec, sel []uint64) (kres, error) {
	if x.b == &x.eb {
		return k.fn.eval(x, sel)
	}
	r, err := x.perEntry(k.fn)
	if err != nil || r.konst {
		return r, err
	}
	code := x.b.Code[:x.n]
	out := kres{str: r.str, kind: r.kind}
	if r.dc != nil {
		out.dc = x.ubuf(k.uSlot)
		for i, c := range code {
			out.dc[i] = r.dc[c]
		}
	}
	if r.f != nil {
		out.f = x.fbuf(k.slot)
		for i, c := range code {
			out.f[i] = r.f[c]
		}
	}
	if r.tm != nil {
		// The entries' truth bits, one 0/1 byte per entry, so each row's
		// bit is a byte load by its code.
		ne := len(x.b.Dict)
		if cap(x.etm) < ne {
			x.etm = make([]uint8, ne)
		}
		et := x.etm[:ne]
		for w, bits := range r.tm {
			e := et[w<<6 : min(w<<6+64, ne)]
			for j := range e {
				e[j] = uint8(bits >> j & 1)
			}
		}
		out.tm = x.mbuf(k.tmSlot)
		for w := range out.tm {
			var bm uint64
			for j, c := range code[w<<6 : min(w<<6+64, len(code))] {
				bm |= uint64(et[c]) << j
			}
			out.tm[w] = bm
		}
	}
	return out, nil
}

// perEntry runs fn over the bound frame's dictionary viewed as a batch.
func (x *kexec) perEntry(fn kernel) (kres, error) {
	b, n, nw := x.b, x.n, x.nw
	ne := len(b.Dict)
	for len(x.ecode) < ne {
		x.ecode = append(x.ecode, uint32(len(x.ecode)))
	}
	x.eb.N, x.eb.Code, x.eb.Dict = ne, x.ecode[:ne], b.Dict
	x.b, x.n, x.nw = &x.eb, ne, (ne+63)>>6
	sel := x.mbuf(x.eselSlot)
	maskOnes(sel, ne)
	r, err := fn.eval(x, sel)
	x.b, x.n, x.nw = b, n, nw
	return r, err
}

// ---- compilation ----

// compiledTable is one table spec lowered to kernels.
type compiledTable struct {
	spec     *TableSpec
	cond     kernel
	x, y     []kernel
	xcol     []xcol   // how each x column's group-key word decodes
	dense    []dsrc   // per x column, where its integer comes from; nil: the hash path only
	keys     uint8    // the key fields its dsKey columns read, bit 1<<field
	fys      []int    // the y columns folded in float64, in y order: a group's cells
	xys      []exactY // the exact y columns, in y order: a group's xcells
	maskSlot int      // working row mask during accumulation

	// entry: the condition and every x column read only the key and
	// every y column is exact, so the table folds once per dictionary
	// entry (runEntry) with econd and ex, the kernels those columns run
	// over the entries.
	entry bool
	econd kernel
	ex    []kernel
}

// xcol describes one x column's group-key words: the bits of a float64,
// or (str) a code of the given kind — or nothing at all for a string
// constant, whose one value is cs. A string-valued kernel's kind is
// fixed by its type, so this is known at compile time.
type xcol struct {
	str, konst bool
	kind       codeKind
	cs         string
}

// compiledProgram is a whole program lowered to kernels, plus the
// scratch-slot counts its executors need.
type compiledProgram struct {
	tables     []*compiledTable
	sl         kslots
	selSlot    int // frame-level (window) selection mask
	eselSlot   int // the all-entries selection a kEntry runs under
	maxX, maxY int
	// entry: some table folds per dictionary entry; entryTimes the time
	// fields those tables sum, bit 1<<fcStart, 1<<fcDura, 1<<fcEnd.
	entry      bool
	entryTimes uint8
}

// compileProgram lowers every spec, sharing pure subtrees across them.
func compileProgram(specs []*TableSpec) *compiledProgram {
	p := &compiledProgram{}
	p.selSlot, p.eselSlot = p.sl.m(), p.sl.m()
	c := &compiler{sl: &p.sl, pure: make(map[string]kernel)}
	for _, spec := range specs {
		ct := c.spec(spec)
		p.tables = append(p.tables, ct)
		p.maxX = max(p.maxX, len(ct.x))
		p.maxY = max(p.maxY, len(ct.y))
		if ct.entry {
			p.entry = true
			for _, ey := range ct.xys {
				if ey.seconds() {
					p.entryTimes |= 1 << ey.field
				}
			}
		}
	}
	return p
}

// compiler lowers one program's expressions. pure maps each pure
// subtree's canonical key — its node and its children's keys — to the
// program's one kernel for it.
type compiler struct {
	sl   *kslots
	pure map[string]kernel
}

func (c *compiler) spec(spec *TableSpec) *compiledTable {
	sl := c.sl
	ct := &compiledTable{spec: spec, maskSlot: sl.m()}
	if spec.Condition != nil {
		ct.cond = c.truthy(c.lower(spec.Condition))
	}
	ct.dense = make([]dsrc, 0, len(spec.X))
	dense := true
	for _, ax := range spec.X {
		k := vals(c.lower(ax.Expr))
		ct.x = append(ct.x, k)
		var xc xcol
		switch k := unshare(k).(type) {
		case kConstStr:
			xc = xcol{str: true, konst: true, cs: k.v}
		case kFieldStr:
			xc = xcol{str: true, kind: k.kind}
		case kExtra:
			xc = xcol{str: k.marker, kind: ckDict}
		case kConcat:
			xc = xcol{str: true, kind: ckDict}
		}
		ct.xcol = append(ct.xcol, xc)
		src, field, ok := denseSource(k)
		ct.dense = append(ct.dense, src)
		if src == dsKey {
			ct.keys |= 1 << field
		}
		dense = dense && ok
	}
	if !dense {
		ct.dense, ct.keys = nil, 0
	}
	for yi, ay := range spec.Y {
		k := vals(c.lower(ay.Expr))
		ct.y = append(ct.y, k)
		if ey, ok := exactOf(yi, k); ok {
			ct.xys = append(ct.xys, ey)
		} else {
			ct.fys = append(ct.fys, yi)
		}
	}
	ct.entry = len(ct.fys) == 0
	if ct.cond != nil {
		ct.econd = entryFn(ct.cond)
		ct.entry = ct.entry && ct.econd != nil
	}
	for _, k := range ct.x {
		fn := entryFn(k)
		ct.ex = append(ct.ex, fn)
		ct.entry = ct.entry && fn != nil
	}
	if !ct.entry {
		ct.econd, ct.ex = nil, nil
	}
	return ct
}

// entryFn is what kernel k runs over a frame's dictionary entries when
// it reads only the key — a kEntry's subtree, or a constant itself —
// and nil when it reads more of a row.
func entryFn(k kernel) kernel {
	switch k := k.(type) {
	case kConstNum, kConstStr:
		return k
	case kShared:
		if e, ok := k.k.(*kEntry); ok {
			return e.fn
		}
	}
	return nil
}

// share returns the program's kernel for the pure node named key,
// building it with mk the first time. A node that reads nothing of a
// row but its key (keyed) runs per dictionary entry.
func (c *compiler) share(key string, keyed bool, mk func() kernel) kernel {
	if k, ok := c.pure[key]; ok {
		return k
	}
	k := mk()
	if keyed {
		k = &kEntry{fn: k, slot: c.sl.f(), tmSlot: c.sl.m(), uSlot: c.sl.u()}
	}
	s := kShared{k, c.sl.ns}
	c.sl.ns++
	c.pure[key] = s
	return s
}

// node is share for a node op over children, which is pure when they all
// are: otherwise every use gets its own kernel from mk. It reads only the
// key when some child does (a kEntry) and the rest are constants.
func (c *compiler) node(op string, mk func() kernel, children ...kernel) kernel {
	key := op + "("
	keyed, other := false, false
	for i, ch := range children {
		ck, ok := pureKey(ch)
		if !ok {
			return mk()
		}
		if i > 0 {
			key += ","
		}
		key += ck
		if s, ok := ch.(kShared); ok {
			_, e := s.k.(*kEntry)
			keyed, other = keyed || e, other || !e
		}
	}
	return c.share(key+")", keyed && !other, mk)
}

// pureKey is a pure kernel's canonical key; ok is false for any other.
func pureKey(k kernel) (string, bool) {
	switch k := k.(type) {
	case kShared:
		return "#" + strconv.Itoa(k.id), true
	case kConstNum:
		return "n" + strconv.FormatUint(math.Float64bits(k.v), 16), true
	case kConstStr:
		return strconv.Quote(k.v), true
	}
	return "", false
}

// unshare is the kernel behind a shared one, and behind its per-entry
// run.
func unshare(k kernel) kernel {
	if s, ok := k.(kShared); ok {
		k = s.k
	}
	if e, ok := k.(*kEntry); ok {
		return e.fn
	}
	return k
}

// vals marks a logical kernel as read for its values, not only its
// truth, and returns it.
func vals(k kernel) kernel {
	switch k := unshare(k).(type) {
	case *kLogic:
		k.vals = true
	case *kNot:
		k.vals = true
	}
	return k
}

// truthy adapts a kernel for a consumer that wants its truthiness.
func (c *compiler) truthy(k kernel) kernel {
	if k.isStr() {
		return c.node("t", func() kernel { return kTruth{k, c.sl.f(), c.sl.tt()} }, k)
	}
	return k
}

// lower lowers one expression node. A node the language rejects by
// type lowers to kTypeErr with the message its evaluation raises, so
// the error stays as lazy as the scalar semantics make it.
func (c *compiler) lower(e expr) kernel {
	sl := c.sl
	switch n := e.(type) {
	case numLit:
		return kConstNum{n.v}
	case strLit:
		return kConstStr{n.v}
	case fieldRef:
		field := func(code int) kernel {
			return c.share("f"+strconv.Itoa(code), code >= fcNode, func() kernel { return kField{code, sl.f()} })
		}
		switch n.name {
		case events.FieldStart:
			return field(fcStart)
		case events.FieldDura, "duration":
			return field(fcDura)
		case "end":
			return field(fcEnd)
		case events.FieldNode:
			return field(fcNode)
		case events.FieldCPU, "processor":
			return field(fcCPU)
		case events.FieldThread:
			return field(fcThread)
		case events.FieldType:
			return field(fcType)
		case "iscall":
			return field(fcIsCall)
		case "state":
			return c.share("s0", true, func() kernel { return kFieldStr{ckState, sl.u()} })
		case events.FieldBebits:
			return c.share("s1", true, func() kernel { return kFieldStr{ckBebits, sl.u()} })
		case "markername":
			sl.markers = true
			return c.share("m", false, func() kernel { return kExtra{events.FieldMarker, true, sl.u(), sl.m()} })
		}
		return c.share("e"+n.name, false, func() kernel { return kExtra{n.name, false, sl.f(), sl.m()} })
	case unary:
		ch := c.lower(n.x)
		switch {
		case n.op == "!":
			t := c.truthy(ch)
			return c.node("!", func() kernel { return &kNot{x: t, slot: sl.f(), tmSlot: sl.m()} }, t)
		case ch.isStr():
			return typeErr(sl, "stats: unary - on string", ch)
		}
		ch = vals(ch)
		return c.node("-", func() kernel { return kNeg{ch, sl.f()} }, ch)
	case binary:
		l, r := c.lower(n.l), c.lower(n.r)
		switch {
		case n.op == "&&" || n.op == "||":
			l, r = c.truthy(l), c.truthy(r)
			return c.node(n.op, func() kernel {
				return &kLogic{and: n.op == "&&", l: l, r: r, slot: sl.f(), selSlot: sl.m(), tmSlot: sl.m(), skipSlot: sl.m()}
			}, l, r)
		case l.isStr() != r.isStr():
			return typeErr(sl, fmt.Sprintf("stats: cannot compare string with number (%s)", n.op), l, r)
		case !l.isStr():
			l, r = vals(l), vals(r)
			mk := func() kernel { return kArith{n.op, l, r, sl.f(), sl.f(), sl.f(), sl.m(), sl.m()} }
			if n.op == "/" || n.op == "%" {
				return mk() // raises, lazily in the selection
			}
			return c.node(n.op, mk, l, r)
		}
		switch n.op {
		case "==", "!=", "<", "<=", ">", ">=":
			return c.node("s"+n.op, func() kernel { return kCmpStr{n.op, l, r, sl.f(), sl.tt(), sl.m(), sl.m()} }, l, r)
		case "+":
			lc, lok := l.(kConstStr)
			rc, rok := r.(kConstStr)
			if lok && rok {
				return kConstStr{lc.v + rc.v}
			}
			return c.node("s+", func() kernel { return kConcat{l, r, sl.u(), sl.c(), sl.m()} }, l, r)
		}
		return typeErr(sl, fmt.Sprintf("stats: operator %q not defined on strings", n.op), l, r)
	case call:
		switch n.fn {
		case "bin":
			if len(n.args) != 2 {
				return typeErr(sl, "stats: bin() takes (time, nbins)")
			}
			t, nb := c.lower(n.args[0]), c.lower(n.args[1])
			if t.isStr() || nb.isStr() {
				return typeErr(sl, "stats: bin() needs numeric arguments", t, nb)
			}
			t, nb = vals(t), vals(nb)
			mk := func() kernel { return kBin{t, nb, sl.f(), sl.m(), sl.m()} }
			if nc, ok := nb.(kConstNum); ok && nc.v >= 1 {
				return c.node("bin", mk, t, nb) // a constant bin count raises nowhere
			}
			return mk()
		case "floor", "abs":
			if len(n.args) != 1 {
				return typeErr(sl, fmt.Sprintf("stats: %s() takes one argument", n.fn))
			}
			ch := c.lower(n.args[0])
			if ch.isStr() {
				// kFloorAbs replaces the message with its own.
				ch = typeErr(sl, fmt.Sprintf("stats: %s() needs a number", n.fn), ch)
			}
			return kFloorAbs{n.fn == "floor", vals(ch), sl.f()}
		}
		return typeErr(sl, fmt.Sprintf("stats: unknown function %q", n.fn))
	}
	return typeErr(sl, fmt.Sprintf("stats: unknown expression node %T", e))
}
