package stats_test

// Differential tests for the columnar kernels: every program that
// parses compiles, and must produce byte-identical TSV (and identical
// Skipped counts) to the record-at-a-time oracle, or fail where it
// fails, on fixture files at every header version the format has
// shipped. The oracle is test-only and reached through
// stats.GenerateSpecsScalar (export_test.go).

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/profile"
	"tracefw/internal/stats"
)

// reencode rewrites recs into a fresh in-memory interval file at the
// given header version, preserving the source header's thread table and
// marker dictionary. Small frames and directories force multi-frame,
// multi-directory files so frame-boundary behavior is exercised.
func reencode(t *testing.T, hdr interval.Header, recs []interval.Record, version uint32) *interval.File {
	t.Helper()
	hdr.HeaderVersion = version
	sb := interval.NewSeekBuffer()
	w, err := interval.NewWriter(sb, hdr, interval.WriterOptions{FrameBytes: 1024, FramesPerDir: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Add(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := interval.NewFile(interval.NewSeekBufferFrom(sb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// versionFixtures produces the merged pipeline trace re-encoded at every
// header version, keyed by version.
func versionFixtures(t *testing.T) map[uint32]*interval.File {
	t.Helper()
	mf := mergedFile(t)
	recs, err := mf.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint32]*interval.File)
	for v := uint32(1); v <= interval.CurrentHeaderVersion; v++ {
		out[v] = reencode(t, mf.Header, recs, v)
	}
	return out
}

// renderTables flattens generation output, including the per-table
// excluded-record count, so any divergence — values, row order, skip
// accounting — fails the comparison.
func renderTables(tables []*stats.Table) string {
	var b strings.Builder
	for _, tb := range tables {
		fmt.Fprintf(&b, "== %s skipped=%d\n%s", tb.Name, tb.Skipped, tb.TSV())
	}
	return b.String()
}

// renderBits is renderTables followed by the bits of every y value, which
// tell apart what TSV prints alike (-0 and 0, NaN payloads).
func renderBits(tables []*stats.Table) string {
	var b strings.Builder
	b.WriteString(renderTables(tables))
	for _, tb := range tables {
		for _, r := range tb.Rows {
			for _, y := range r.Y {
				fmt.Fprintf(&b, " %x", math.Float64bits(y))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// generateScalar runs program on the scalar oracle.
func generateScalar(program string, files []*interval.File, opts interval.MapOptions) ([]*stats.Table, error) {
	specs, err := stats.Parse(program)
	if err != nil {
		return nil, err
	}
	return stats.GenerateSpecsScalar(specs, files, opts)
}

// runBoth evaluates one program on the scalar oracle and through the
// production entry point, and reports the outputs and the errors.
func runBoth(program string, files []*interval.File, opts interval.MapOptions) (scalar, columnar string, serr, cerr error) {
	st, serr := generateScalar(program, files, opts)
	ct, cerr := stats.GenerateOpts(program, files, opts)
	return renderBits(st), renderBits(ct), serr, cerr
}

// diffProgram asserts the two evaluators agree on program: same
// error-or-not outcome, and byte-identical rendering on success.
func diffProgram(t *testing.T, program string, files []*interval.File, opts interval.MapOptions) {
	t.Helper()
	if _, err := stats.Parse(program); err != nil {
		t.Fatalf("program %q does not parse (vacuous comparison): %v", program, err)
	}
	s, c, serr, cerr := runBoth(program, files, opts)
	if (serr == nil) != (cerr == nil) {
		t.Fatalf("engines disagree on error for %q:\n  scalar:   %v\n  columnar: %v", program, serr, cerr)
	}
	if serr != nil {
		return
	}
	if s != c {
		t.Fatalf("engines diverge for %q:\n--- scalar ---\n%s--- columnar ---\n%s", program, s, c)
	}
}

func TestColumnarPredefinedAllVersions(t *testing.T) {
	fixtures := versionFixtures(t)
	program := stats.Predefined(16)
	for v := uint32(1); v <= interval.CurrentHeaderVersion; v++ {
		f := fixtures[v]
		diffProgram(t, program, []*interval.File{f}, interval.MapOptions{})
	}
}

// differentialPrograms exercises every kernel the compiler emits:
// field loads (numeric and string), extras with per-type skip bitmaps,
// all arithmetic and comparison ops, short-circuit logic over skipping
// operands, bin/floor/abs, string concatenation, grouping on mixed key
// kinds, type errors that the rows reaching them raise or skip, and the
// division/modulo and floor-needs-a-number runtime errors.
var differentialPrograms = []string{ // (big is 1e200, spelled out: the lexer has no exponents)
	`table name=count y=("n", dura, count)`,
	`table name=bynode x=("x", node) y=("t", dura, sum) y=("n", dura, count)`,
	`table name=bycpu x=("n", node) x=("c", cpu) y=("avg", dura, avg) y=("max", dura, max) y=("min", dura, min)`,
	`table name=bystate x=("x", state) y=("t", dura, sum)`,
	`table name=bebits x=("be", bebits) x=("st", state) y=("n", start, count)`,
	`table name=sent x=("x", node) y=("bytes", msgSizeSent, sum)`,
	`table name=peers x=("p", peer) x=("tg", tag) y=("n", msgSizeSent, count)`,
	`table name=binned x=("x", bin(start, 8)) y=("t", dura, sum)`,
	`table name=binone x=("x", bin(start, 1)) y=("n", dura, count)`,
	`table name=endfld y=("last", end, max) y=("first", start, min)`,
	`table name=iscalls condition=(iscall) y=("n", dura, count)`,
	`table name=notcall condition=(!iscall) x=("x", type) y=("n", dura, count)`,
	`table name=andskip condition=(msgSizeSent > 0 && dura > 0) y=("n", dura, count)`,
	`table name=orskip condition=(cpu == 0 || msgSizeSent > 100) y=("n", dura, count)`,
	`table name=andboth condition=(msgSizeSent >= 0 && msgSizeRecv >= 0) y=("n", dura, count)`,
	`table name=constleft condition=(1 && node == 0) y=("n", dura, count)`,
	`table name=constshort condition=(0 && msgSizeSent > 0) y=("n", dura, count)`,
	`table name=orshort condition=(1 || msgSizeSent > 0) y=("n", dura, count)`,
	`table name=arith y=("r", (dura + 1) * 2 - start / 4, sum)`,
	`table name=division y=("r", dura / (dura + 1), avg)`,
	`table name=modulo x=("x", node % 2) y=("n", dura, count)`,
	`table name=neg y=("n", -dura, min)`,
	`table name=negstart x=("x", -(node)) y=("n", dura, count)`,
	`table name=floorfn x=("x", floor(start * 1000)) y=("t", dura, sum)`,
	`table name=absfn y=("a", abs(-dura), sum)`,
	`table name=cmps condition=(start <= end && dura != 0 && node < 2) y=("n", dura, count)`,
	`table name=strcmp condition=(state != bebits) y=("n", dura, count)`,
	`table name=streq condition=(state == state) y=("n", dura, count)`,
	`table name=strgrp x=("st", state) x=("n", node) y=("t", dura, sum) y=("n", dura, count)`,
	`table name=threads x=("x", thread) y=("n", dura, count)`,
	`table name=typegrp x=("x", type) y=("n", dura, count)`,
	`table name=skipx x=("x", msgSizeSent) y=("n", dura, count)`,
	`table name=skipy y=("bytes", msgSizeRecv, sum) y=("n", msgSizeRecv, count)`,
	// Coded group keys: -0 against +0 (two groups that both print "0"),
	// values straddling Text's 1e15 and 1e21 boundaries, infinities and
	// NaNs (one group whatever the payload), constant x columns, wide
	// keys, coded columns compared with each other, and x columns that
	// skip.
	`table name=zeros x=("z", (cpu - 1) * 0) y=("n", dura, count) y=("t", dura, sum)`,
	`table name=e15 x=("x", (node + 1) * 500000000000000) x=("y", (cpu + 1) * 1000000000000000) y=("n", dura, count)`,
	`table name=e21 x=("x", (node + 1) * 500000000000000 * 1000000) x=("y", 0 - (cpu + 1) * 1000000000000000 * 1000000) y=("n", dura, count)`,
	`table name=infnan x=("inf", (node * 2 - 1) * ` + big + ` * ` + big + `) x=("nan", (node + 1) * ` + big + ` * ` + big + ` - (cpu + 1) * ` + big + ` * ` + big + `) y=("n", dura, count)`,
	// The same edges on the y side (yEdgePrograms).
	signedZeroY, infNaNY, cancelY, mixedY,
	`table name=constx x=("c", 7) y=("n", dura, count)`,
	`table name=constsx x=("c", "lit") x=("n", node) x=("d", "") y=("n", dura, count)`,
	`table name=wide x=("n", node) x=("c", cpu) x=("t", thread) x=("s", state) x=("b", bebits) x=("ty", type) x=("ic", iscall) y=("t", dura, sum) y=("n", dura, count)`,
	`table name=codedeq condition=(state == bebits) y=("n", dura, count)`,
	`table name=codedlt condition=(state < state) y=("n", dura, count)`,
	`table name=codedord x=("lt", state < bebits) x=("ge", bebits >= state) x=("le", state <= state) y=("n", dura, count)`,
	`table name=constleftcmp x=("a", "MPI_Recv" < state) x=("b", "begin" != bebits) x=("c", "x" == "x") y=("n", dura, count)`,
	`table name=strtruth condition=(state && !bebits || "") x=("t", !state) y=("n", dura, count)`,
	`table name=skipxs x=("s", state) x=("p", peer) x=("z", msgSizeRecv) y=("n", dura, count)`,
	`table name=marks x=("m", markername) y=("n", dura, count) y=("t", dura, sum)`,
	`table name=markcond condition=(markername == "Phase A" || markername < state) x=("m", markername) x=("s", state) y=("n", dura, count)`,
	`table name=marktruth condition=(!markername) y=("n", dura, count)`,
	`table name=multi1 y=("n", dura, count)
table name=multi2 x=("x", node) y=("t", dura, sum)
table name=multi3 condition=(msgSizeSent > 0) x=("x", peer) y=("b", msgSizeSent, avg)`,
	// String concatenation: a group key (nested, over every string
	// leaf, constant operands on either side, skipping through
	// markername), compared with constants and with coded columns,
	// a truth value, and constants folded.
	`table name=catkey x=("c", state + "/" + bebits) y=("n", dura, count) y=("t", dura, sum)`,
	`table name=catmark x=("m", markername + "/" + state) x=("b", bebits + markername) y=("n", dura, count)`,
	`table name=catnest x=("n", ("<" + (state + "-")) + (bebits + ("-" + markername))) y=("n", dura, count)`,
	`table name=catcmp condition=(state + bebits == "MPI_Sendbegin" || "x" + markername < state + "") x=("s", state) y=("n", dura, count)`,
	`table name=catcoded condition=(state + "" == state && bebits + markername != markername) x=("lt", state + "" < bebits + "") y=("n", dura, count)`,
	`table name=cattruth condition=(bebits + "" && !(markername + "")) y=("n", dura, count)`,
	`table name=catconst x=("c", "a" + "b") x=("d", "" + "") x=("e", ("a" + "b") + state) y=("n", dura, count)`,
	`table name=catmulti x=("a", state + "!") y=("n", dura, count)
table name=catmulti2 x=("b", markername + state) y=("t", dura, sum)`,
	// Subtrees over key fields alone run once per dictionary entry and
	// reach rows by code: a condition over node and cpu, an integer
	// built from two of them, a logical value, a sum mixing a per-row
	// remainder with a coded comparison, and a key field beside an extra,
	// which stays per row.
	`table name=keycond condition=(node > 0 && cpu < 1 || node == 0 && cpu == 1) x=("s", state) y=("t", dura, sum)`,
	`table name=keylane x=("l", node * 4 + cpu) y=("n", dura, count) y=("t", dura, sum)`,
	`table name=keylogic x=("v", iscall && thread == 0) y=("v", iscall && thread == 0, sum) y=("n", dura, count)`,
	`table name=keymix x=("b", bebits) y=("v", (type % 7) + (state == "MPI_Send"), sum) y=("m", (type % 7) + (state == "MPI_Send"), max)`,
	`table name=keyextra x=("k", node + msgSizeSent) y=("n", dura, count) y=("v", node + msgSizeSent, sum)`,
	// Type errors the rows reaching them never raise: a constant or
	// selective short circuit, or an operand's skip.
	`table name=shortconst condition=(0 && nosuchfn(1)) y=("n", dura, count)`,
	`table name=shortsel condition=(msgSizeSent > 1000000000 && -state) y=("n", dura, count)`,
	`table name=shortor condition=(cpu >= 0 || state == 1 || bin(start)) y=("n", dura, count)`,
	`table name=shortfloor condition=(msgSizeSent > 1000000000 && floor(state) + abs() + bin(state, 2)) y=("n", dura, count)`,
	`table name=typeskip condition=(msgSizeSent > 0 && markername - 1) y=("n", dura, count)`,
	`table name=typeskipx condition=(state == "MPI_Send") x=("x", markername * "s") y=("n", dura, count)`,
	// The right operand runs only where the left did not skip: without
	// marker records this divides by zero nowhere.
	`table name=mixskip y=("n", markername + dura / (cpu - cpu), sum)`,
	// Runtime errors: both engines must fail (single-table programs, so
	// the reported error is unambiguous).
	`table name=divzero y=("r", dura / (cpu - cpu), sum)`,
	`table name=modzero y=("r", node % 0, sum)`,
	`table name=floorskip y=("n", floor(msgSizeSent), sum)`,
	`table name=absskip y=("n", abs(msgSizeRecv), sum)`,
	`table name=stringy y=("s", state, sum)`,
	`table name=binzero x=("x", bin(start, 0)) y=("n", dura, count)`,
	`table name=caty y=("s", state + "!", sum)`,
	`table name=mixed condition=(markername + 1) y=("n", dura, count)`,
	`table name=negstr y=("n", -(state + ""), sum)`,
}

var big = "1" + strings.Repeat("0", 200)

// yEdgePrograms hold the one aggregation rule (exact.go) where it bites,
// and seed FuzzCompile. signedZeroY mixes -0 (cpu 0) and +0: min takes -0
// and max +0, in any order. infNaNY reaches +Inf, -Inf and NaN through
// big * big, alone and together, and sums integers past 2⁶³. cancelY adds
// ±1e308 in runs of two (iscall's pattern on the coded fixtures), whose
// exact sum per 20 ms bucket there is 0 but whose sum in record order
// overflows. mixedY puts an integral kernel value beside fractional ones.
var (
	signedZeroY = `table name=signedzero x=("n", node) y=("lo", (cpu - 1) * 0, min) y=("hi", (cpu - 1) * 0, max) y=("s", (cpu - 1) * 0, sum)`
	infNaNY     = `table name=infnany x=("c", cpu) y=("s", (cpu - 1) * ` + big + ` * ` + big + `, sum) y=("a", (node - cpu) * ` + big + ` * ` + big + `, avg) y=("lo", (node - cpu) * ` + big + ` * ` + big + `, min) y=("hi", (node - cpu) * ` + big + ` * ` + big + `, max) y=("nan", (cpu - cpu) * (` + big + ` * ` + big + `), sum) y=("nanlo", (cpu - cpu) * (` + big + ` * ` + big + `), min) y=("b", (node + 1) * ` + big + `, sum) y=("i", (thread + 1) * 4611686018427387904, sum)`
	cancelY     = `table name=cancel x=("b", floor(start * 50)) y=("s", (iscall * 2 - 1) * ` + big308 + `, sum) y=("a", (iscall * 2 - 1) * ` + big308 + `, avg)`
	mixedY      = `table name=mixedy condition=(msgSizeSent >= 0) x=("p", peer) y=("b", msgSizeSent * 3, sum) y=("t", dura / 3, sum) y=("a", dura / 3, avg) y=("m", dura / 3, max)`
	big308      = "1" + strings.Repeat("0", 308)
)

// codedFixtures builds two small files the pipeline cannot produce:
// different marker tables (one name under two ids, one id under two
// names, an id neither table holds), event types no profile names, and
// bebits values past Complete.
func codedFixtures(t *testing.T) []*interval.File {
	t.Helper()
	hdr := mergedFile(t).Header
	var files []*interval.File
	for fi, markers := range []map[uint64]string{
		{1: "alpha", 2: "beta", 3: "Phase A"},
		{1: "beta", 2: "gamma", 4: "alpha", 5: ""},
	} {
		hdr.Markers = markers
		var recs []interval.Record
		for i := 0; i < 400; i++ {
			r := interval.Record{
				Bebits: profile.Bebits(i % 4),
				Start:  clock.Time(5*i+fi) * clock.Millisecond,
				Dura:   clock.Time(1+i%5) * clock.Millisecond,
				CPU:    uint16(i % 2),
				Node:   uint16(fi),
				Thread: uint16(i % 3),
			}
			switch i % 5 {
			case 0:
				r.Type = events.EvRunning
			case 1:
				r.Type = events.EvMarkerState
				r.Extra = []uint64{uint64(1 + i%6), uint64(i), uint64(i + 1)}
			case 2:
				r.Type = events.Type(0x0700 + i%3) // unknown to every table
			case 3:
				r.Type = events.EvMPISend
				r.Extra = []uint64{uint64(i % 2), uint64(i), uint64(10 * i), uint64(i), 1, 0}
			default:
				r.Type = events.EvMarkerState
				r.Bebits = profile.Bebits(4 + i%3) // "bebits?"
				r.Extra = []uint64{2, 0, 0}
			}
			recs = append(recs, r)
		}
		files = append(files, reencode(t, hdr, recs, interval.CurrentHeaderVersion))
	}
	return files
}

func TestColumnarDifferentialExpressions(t *testing.T) {
	fixtures := versionFixtures(t)
	coded := codedFixtures(t)
	for _, files := range [][]*interval.File{
		{fixtures[1]},
		{fixtures[interval.CurrentHeaderVersion]},
		coded,
		{coded[1], fixtures[interval.CurrentHeaderVersion], coded[0]},
	} {
		for _, program := range differentialPrograms {
			diffProgram(t, program, files, interval.MapOptions{})
			diffProgram(t, program, files, interval.MapOptions{Parallel: 4})
		}
	}
	// The coded fixtures are not vacuous: marker names group across the
	// two files' tables, concatenations over them too (one file names
	// id 2 "beta", the other "gamma"), and the odd types and bebits
	// reach the output.
	tables, err := stats.GenerateOpts(`table name=m x=("m", markername) x=("b", bebits) y=("n", dura, count)
table name=s x=("s", state) y=("n", dura, count)
table name=c x=("c", markername + "|" + bebits) y=("n", dura, count)`, coded, interval.MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"beta\tbebits?", "gamma\t", "\tbegin\t", "Type(0x0701)", "\nbeta|bebits?\t", "\ngamma|bebits?\t", "\nalpha|begin\t"} {
		if !strings.Contains(renderTables(tables), want) {
			t.Fatalf("coded fixture output lacks %q:\n%s", want, renderTables(tables))
		}
	}
}

// TestColumnarRuntimeErrorMessages pins the wrapped error text on
// single-error programs, one per runtime error the language can raise,
// where both engines must report the same thing. The coded fixtures
// carry marker records, so markername reaches the mixed-type error too.
func TestColumnarRuntimeErrorMessages(t *testing.T) {
	files := codedFixtures(t)
	for _, tc := range []struct{ program, want string }{
		{`table name=dz y=("r", dura / (cpu - cpu), sum)`, "stats: division by zero"},
		{`table name=mz y=("r", node % 0, sum)`, "stats: modulo by zero"},
		{`table name=fs y=("n", floor(msgSizeSent), sum)`, "stats: floor() needs a number"},
		{`table name=as y=("n", abs(msgSizeRecv), sum)`, "stats: abs() needs a number"},
		{`table name=bz x=("x", bin(start, 0)) y=("n", dura, count)`, "stats: bin() needs numeric arguments"},
		{`table name=ns y=("n", -state, count)`, "stats: unary - on string"},
		{`table name=mc condition=(state == 1) y=("n", dura, count)`, "stats: cannot compare string with number (==)"},
		{`table name=ss x=("x", state - bebits) y=("n", dura, count)`, `stats: operator "-" not defined on strings`},
		{`table name=bs x=("x", bin(state, 4)) y=("n", dura, count)`, "stats: bin() needs numeric arguments"},
		{`table name=fst y=("n", floor(state), sum)`, "stats: floor() needs a number"},
		{`table name=ast y=("n", abs(bebits + ""), sum)`, "stats: abs() needs a number"},
		{`table name=uf y=("n", nosuchfn(dura), sum)`, `stats: unknown function "nosuchfn"`},
		{`table name=ba x=("x", bin(start)) y=("n", dura, count)`, "stats: bin() takes (time, nbins)"},
		{`table name=mp x=("x", markername + 1) y=("n", dura, count)`, "stats: cannot compare string with number (+)"},
		{`table name=fa y=("n", floor(), sum)`, "stats: floor() takes one argument"},
		{`table name=aa y=("n", abs(dura, 1), sum)`, "stats: abs() takes one argument"},
		// A wrong arity or an unknown function evaluates no argument.
		{`table name=bd x=("x", bin(dura / 0)) y=("n", dura, count)`, "stats: bin() takes (time, nbins)"},
		{`table name=fd y=("n", floor(dura / 0, 1), sum)`, "stats: floor() takes one argument"},
		{`table name=ud y=("n", nosuchfn(dura / 0), sum)`, `stats: unknown function "nosuchfn"`},
		{`table name=sy y=("s", state + "!", sum)`, `y expression "s" produced a string`},
	} {
		for _, par := range []int{1, 4} {
			_, _, serr, cerr := runBoth(tc.program, files, interval.MapOptions{Parallel: par})
			if serr == nil || cerr == nil {
				t.Fatalf("%q: expected both engines to fail, scalar=%v columnar=%v", tc.program, serr, cerr)
			}
			if serr.Error() != cerr.Error() {
				t.Fatalf("%q: error text differs:\n  scalar:   %v\n  columnar: %v", tc.program, serr, cerr)
			}
			if !strings.Contains(cerr.Error(), tc.want) {
				t.Fatalf("%q: error %v does not mention %q", tc.program, cerr, tc.want)
			}
		}
	}
}

func TestColumnarWindowedDifferential(t *testing.T) {
	fixtures := versionFixtures(t)
	f := fixtures[interval.CurrentHeaderVersion]
	fs, fe, _, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	program := stats.Predefined(8) + "\ntable name=w x=(\"x\", node) y=(\"t\", dura, sum) y=(\"n\", dura, count)"
	for _, win := range [][2]clock.Time{
		{fs, fe},                             // full run: every frame fully inside
		{fs + (fe-fs)/4, fs + (fe-fs)/2},     // interior: mix of pruned and edge frames
		{fs - 1000, fs + (fe-fs)/100},        // leading edge
		{fe + 1, fe + 1000},                  // empty
		{fs + (fe-fs)/3, fs + (fe-fs)/3 + 1}, // near-degenerate
	} {
		for _, par := range []int{1, 4} {
			opts := interval.MapOptions{Parallel: par, Window: true, Lo: win[0], Hi: win[1]}
			diffProgram(t, program, []*interval.File{f}, opts)
		}
	}
}

// TestColumnarAllocsPerGroup guards the group-by's allocation shape: a
// whole run over pooled decode batches allocates for its distinct groups
// — their text keys and row headers at finalization — plus the engine's
// per-frame bookkeeping, never per group per frame.
func TestColumnarAllocsPerGroup(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops executors at random under the race detector")
	}
	f := versionFixtures(t)[interval.CurrentHeaderVersion]
	recs, err := f.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	// The same records 200 times over, each copy shifted past the last:
	// the groups stay the same few dozen while the frames multiply.
	span := recs[len(recs)-1].End() + 1
	var long []interval.Record
	for rep := 0; rep < 200; rep++ {
		for _, r := range recs {
			r.Start += clock.Time(rep) * span
			long = append(long, r)
		}
	}
	f = reencode(t, f.Header, long, interval.CurrentHeaderVersion)
	fes, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	// frac's every group takes a fraction in every frame: a fraction
	// accumulator lives in its table's slab, never in a heap object of
	// its own.
	for _, program := range []string{stats.Predefined(50),
		`table name=frac x=("n", node) x=("s", state) y=("r", dura / 3, sum)`} {
		groups := 0
		allocs := testing.AllocsPerRun(5, func() {
			tables, err := stats.GenerateOpts(program, []*interval.File{f}, interval.MapOptions{Parallel: 1})
			if err != nil {
				t.Fatal(err)
			}
			groups = 0
			for _, tb := range tables {
				groups += len(tb.Rows)
			}
		})
		if len(fes) < 4*groups {
			t.Fatalf("%d frames against %d groups: the bound below would not tell per-frame growth apart", len(fes), groups)
		}
		if limit := float64(16*groups + 4*len(fes) + 512); allocs > limit {
			t.Fatalf("%q: %.0f allocs for %d groups over %d frames (limit %.0f): the group-by allocates per frame", program, allocs, groups, len(fes), limit)
		}
		t.Logf("%.0f allocs, %d groups, %d frames", allocs, groups, len(fes))
	}
}

func TestColumnarSkippedCountSurfaced(t *testing.T) {
	mf := mergedFile(t)
	files := []*interval.File{mf}
	// msgSizeSent exists only on send-like records, so every other
	// record is excluded via errSkip and must be counted.
	program := `table name=sent y=("bytes", msgSizeSent, sum)`
	recs, err := mf.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, r := range recs {
		if _, ok := r.Field("msgSizeSent"); !ok {
			want++
		}
	}
	if want == 0 {
		t.Fatal("fixture has no records lacking msgSizeSent; test is vacuous")
	}
	for name, gen := range map[string]func(string, []*interval.File, interval.MapOptions) ([]*stats.Table, error){
		"scalar": generateScalar, "columnar": stats.GenerateOpts,
	} {
		tables, err := gen(program, files, interval.MapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if tables[0].Skipped != want {
			t.Fatalf("%s: Skipped = %d, want %d", name, tables[0].Skipped, want)
		}
	}
}

// requireOracle fails unless production answers every program exactly
// as the oracle answers it — the same bytes, or the same error text — on
// merged and coded input, serial and parallel. Each program is alone in
// its table and raises at most one kind of error, so the text is
// unambiguous.
func requireOracle(t *testing.T, programs ...string) {
	t.Helper()
	coded := codedFixtures(t)
	merged := []*interval.File{mergedFile(t)}
	for _, program := range programs {
		for _, files := range [][]*interval.File{merged, coded} {
			for _, par := range []int{1, 4} {
				s, c, serr, cerr := runBoth(program, files, interval.MapOptions{Parallel: par})
				if fmt.Sprint(serr) != fmt.Sprint(cerr) || s != c {
					t.Fatalf("production differs from the oracle on %q:\n  scalar:   %v\n%s  columnar: %v\n%s", program, serr, s, cerr, c)
				}
			}
		}
	}
}

// TestColumnarFallback: the programs the compiler once refused and sent
// to a scalar fallback — string concatenation, alone or beside a spec it
// accepted — now compile like any other and match the oracle.
func TestColumnarFallback(t *testing.T) {
	requireOracle(t,
		`table name=a x=("x", state + "!") y=("n", dura, count)`,
		`table name=a x=("x", state + "!") y=("n", dura, count)
table name=b y=("n", dura, count)`,
	)
}

// TestLowerableCoverage: the programs the compiler's old acceptance
// predicate classified, accepted and refused alike, are all answered
// exactly as the oracle answers them.
func TestLowerableCoverage(t *testing.T) {
	requireOracle(t,
		`table name=a y=("n", dura, count)`,
		`table name=a condition=(state == "Running") x=("b", bin(start, 4)) x=("n", node) y=("n", floor(dura), sum)`,
		`table name=a x=("x", markername) y=("n", dura, count)`,
		`table name=a condition=(markername == "x") y=("n", dura, count)`,
		`table name=a condition=(state == 1) y=("n", dura, count)`,
		`table name=a condition=(markername == 1) y=("n", dura, count)`,
		`table name=a y=("n", -state, count)`,
		`table name=a x=("x", bin(state, 4)) y=("n", dura, count)`,
		`table name=a y=("n", floor(state), sum)`,
		`table name=a y=("n", nosuchfn(dura), sum)`,
	)
}

// TestEveryParsedProgramCompiles: there is no fallback to hide behind,
// so every program that parses — the language's whole surface, including
// type errors the rows reaching them raise or skip — must be answered by
// production exactly as the oracle answers it.
func TestEveryParsedProgramCompiles(t *testing.T) {
	requireOracle(t,
		`table name=a x=("x", bin(start, bebits)) y=("n", dura, count)`,
		`table name=a y=("n", abs(markername), sum)`,
		`table name=a y=("n", nosuchfn(), sum)`,
		`table name=a x=("x", bin(start)) y=("n", dura, count)`,
		`table name=a x=("x", bin(start, 1, 2)) y=("n", dura, count)`,
		`table name=a y=("n", floor(dura, 1), sum)`,
		`table name=a y=("n", abs(), sum)`,
		`table name=a x=("x", state * bebits) y=("n", dura, count)`,
		`table name=a x=("x", "a" / "b") y=("n", dura, count)`,
		`table name=a x=("x", "a" % state) y=("n", dura, count)`,
		`table name=a x=("x", 1 - "a") y=("n", dura, count)`,
		`table name=a condition=(bebits < 2) y=("n", dura, count)`,
		`table name=a condition=(0 && nosuchfn(1)) y=("n", dura, count)`,
		`table name=a condition=(msgSizeSent > 1000000000 && -state) y=("n", dura, count)`,
		`table name=a condition=(msgSizeSent > 0 && markername + 1) y=("n", dura, count)`,
		`table name=a x=("m", markername + "/" + state) y=("n", dura, count)`,
		`table name=a condition=(state + bebits == "MPI_Sendbegin") y=("n", dura, count)`,
		`table name=a condition=(bebits + "") x=("c", "a" + "b") y=("n", dura, count)`,
	)
}

// Grammar-directed expression sampler for the property test below. It
// covers the whole language: skipping extras, short-circuit logic, the
// partial functions, string leaves and (nested) concatenation, string
// comparison and truthiness, and — rarer, so most programs still run
// to completion — every type error, often under a guard that keeps
// some or all rows from reaching it.
type exprGen struct{ r *rand.Rand }

func (g *exprGen) pick(xs ...string) string { return xs[g.r.Intn(len(xs))] }

func (g *exprGen) numField() string {
	return g.pick("start", "dura", "end", "node", "cpu", "thread", "type", "iscall",
		"msgSizeSent", "msgSizeRecv", "peer", "tag", "comm", "seqno")
}

func (g *exprGen) num(depth int) string {
	if depth <= 0 {
		if g.r.Intn(3) == 0 {
			return fmt.Sprintf("%d", g.r.Intn(7))
		}
		return g.numField()
	}
	switch g.r.Intn(12) {
	case 0:
		return fmt.Sprintf("(%s %s %s)", g.num(depth-1), g.pick("+", "-", "*", "/", "%"), g.num(depth-1))
	case 1:
		return fmt.Sprintf("(-%s)", g.num(depth-1))
	case 2:
		return fmt.Sprintf("floor(%s)", g.num(depth-1))
	case 3:
		return fmt.Sprintf("abs(%s)", g.num(depth-1))
	case 4:
		return fmt.Sprintf("bin(%s, %d)", g.numField(), 1+g.r.Intn(16))
	case 5:
		return fmt.Sprintf("(%s %s %s)", g.num(depth-1), g.pick("<", "<=", ">", ">=", "==", "!="), g.num(depth-1))
	case 6:
		return fmt.Sprintf("(%s %s %s)", g.num(depth-1), g.pick("&&", "||"), g.num(depth-1))
	case 7:
		return fmt.Sprintf("(%s %s %s)", g.str(depth-1), g.pick("<", "<=", ">", ">=", "==", "!="), g.str(depth-1))
	case 8:
		return fmt.Sprintf("(%s %s %s)", g.pick("!", ""), g.str(depth-1), g.pick("&&", "||")+" "+g.num(depth-1))
	case 9:
		if g.r.Intn(3) == 0 {
			return g.typeErr(depth)
		}
		// A guard that lets few, some or no rows reach the type error.
		return fmt.Sprintf("(%s %s %s)", g.pick("msgSizeSent > 1000000000", "peer == 1", "cpu > 0", "0", "1"), g.pick("&&", "||"), g.typeErr(depth))
	default:
		return g.numField()
	}
}

// str samples a string-valued expression.
func (g *exprGen) str(depth int) string {
	if depth <= 0 || g.r.Intn(2) == 0 {
		return g.pick("state", "bebits", "markername", `"x"`, `""`, `"MPI_Send"`)
	}
	return fmt.Sprintf("(%s + %s)", g.str(depth-1), g.str(depth-1))
}

// typeErr samples an expression the language rejects by type.
func (g *exprGen) typeErr(depth int) string {
	switch g.r.Intn(7) {
	case 0:
		op := g.pick("+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=")
		if g.r.Intn(2) == 0 {
			return fmt.Sprintf("(%s %s %s)", g.str(depth-1), op, g.num(depth-1))
		}
		return fmt.Sprintf("(%s %s %s)", g.num(depth-1), op, g.str(depth-1))
	case 1:
		return fmt.Sprintf("(%s %s %s)", g.str(depth-1), g.pick("-", "*", "/", "%"), g.str(depth-1))
	case 2:
		return fmt.Sprintf("(-%s)", g.str(depth-1))
	case 3:
		if g.r.Intn(2) == 0 {
			return fmt.Sprintf("bin(%s, %d)", g.str(depth-1), 1+g.r.Intn(4))
		}
		return fmt.Sprintf("bin(%s, %s)", g.numField(), g.str(depth-1))
	case 4:
		return fmt.Sprintf("%s(%s)", g.pick("floor", "abs"), g.str(depth-1))
	case 5:
		return fmt.Sprintf("nosuchfn(%s)", g.num(depth-1))
	default:
		return g.pick("bin(start)", "bin(start, 2, 3)", "floor()", "abs(dura, 1)")
	}
}

func (g *exprGen) cond(depth int) string {
	if g.r.Intn(4) == 0 {
		return fmt.Sprintf("(%s %s %s)", g.str(depth), g.pick("==", "!="), g.str(depth))
	}
	return g.num(depth)
}

func TestColumnarGrammarSampledDifferential(t *testing.T) {
	fixtures := versionFixtures(t)
	merged := []*interval.File{fixtures[1], fixtures[interval.CurrentHeaderVersion]}
	coded := codedFixtures(t)
	g := &exprGen{r: rand.New(rand.NewSource(42))}
	aggs := []string{"sum", "count", "avg", "min", "max"}
	var failed, ran int
	for i := 0; i < 200; i++ {
		x := g.num(1)
		if g.r.Intn(3) == 0 {
			x = g.str(2)
		}
		y := g.num(2)
		if g.r.Intn(20) == 0 {
			y = g.str(1)
		}
		program := fmt.Sprintf("table name=t%d condition=(%s) x=(%q, %s) y=(%q, %s, %s)",
			i, g.cond(2), "x", x, "v", y, aggs[g.r.Intn(len(aggs))])
		if _, err := stats.Parse(program); err != nil {
			t.Fatalf("sampler produced unparsable program %q: %v", program, err)
		}
		for _, files := range [][]*interval.File{merged, coded} {
			diffProgram(t, program, files, interval.MapOptions{})
			if _, err := stats.GenerateOpts(program, files, interval.MapOptions{}); err != nil {
				failed++
			} else {
				ran++
			}
		}
	}
	// Both outcomes must be well represented, or the comparison is
	// mostly of errors (or never of one).
	if failed < 40 || ran < 200 {
		t.Fatalf("%d runs failed and %d succeeded: the sampler's mix is off", failed, ran)
	}
	t.Logf("%d runs failed, %d succeeded", failed, ran)
}

// sharedPrograms are multi-table programs whose tables share pure
// subtrees — fields, skipping extras, comparisons, subtrees over key
// fields alone run per dictionary entry, and the logic over them — under
// different conditions, so each table reads a result another table's
// selection computed.
var sharedPrograms = []string{
	stats.Predefined(7),
	`table name=a condition=(msgSizeSent > 0) x=("p", peer) y=("b", msgSizeSent, sum) y=("d", dura, max)
table name=b condition=(peer == 1 || msgSizeSent > 100) x=("n", node) y=("b", msgSizeSent, avg)
table name=c x=("p", peer) x=("s", state != "Running") y=("b", msgSizeSent, count)
table name=d condition=(!(msgSizeSent > 0)) y=("n", dura, count)`,
	`table name=a condition=(state != "Running" && state != "MPI_Send") x=("s", state) y=("t", dura * 2, sum)
table name=b condition=(state != "Running" && node > 0) x=("v", (state != "Running" && state != "MPI_Send") + 1) y=("t", dura * 2, sum)
table name=c condition=(bebits == "begin" || !(state != "Running")) x=("b", bebits) x=("ic", iscall) y=("n", -(state == "Running"), sum)
table name=d x=("v", state == "Running") x=("w", !(state == "Running")) y=("t", dura * 2, min)`,
	`table name=a condition=(markername < state || !markername) x=("m", markername) y=("n", dura, count)
table name=b condition=(markername == "Phase A" || !markername) x=("m", markername) x=("b", bin(start, 9)) y=("t", dura, sum)
table name=c x=("b", bin(start, 9)) x=("c", markername + "/" + state) y=("t", dura, sum)
table name=d condition=(markername + "/" + state != "") y=("t", dura, sum)`,
	`table name=a condition=(node > 0 && cpu < 1) x=("l", node * 4 + cpu) y=("t", dura, sum)
table name=b condition=(!(node > 0 && cpu < 1)) x=("v", iscall && thread == 0) y=("v", (type % 7) + (state == "MPI_Send"), sum)
table name=c condition=(iscall && thread == 0) x=("l", node * 4 + cpu) x=("k", node + msgSizeSent) y=("n", dura, count)
table name=d x=("n", node) x=("c", cpu) y=("v", node * 4 + cpu, max) y=("w", (type % 7) + (state == "MPI_Send"), sum)`,
}

// TestColumnarSharedKernels: tables that share subexpressions answer as
// the oracle does, table by table — rows and Skipped — serial, parallel
// and windowed, and the sharing is not vacuous.
func TestColumnarSharedKernels(t *testing.T) {
	fixtures := versionFixtures(t)
	f := fixtures[interval.CurrentHeaderVersion]
	fs, fe, _, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	coded := codedFixtures(t)
	for _, program := range sharedPrograms {
		for _, files := range [][]*interval.File{{fixtures[1]}, {f}, coded} {
			diffProgram(t, program, files, interval.MapOptions{})
			diffProgram(t, program, files, interval.MapOptions{Parallel: 4})
		}
		diffProgram(t, program, []*interval.File{f}, interval.MapOptions{Window: true, Lo: fs + (fe-fs)/5, Hi: fs + (fe-fs)/2})
		run, err := stats.GenerateRun(program, coded, interval.MapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if run.SharedSaved == 0 {
			t.Fatalf("no shared evaluation saved on %q", program)
		}
	}
}

// selectionPairs pair a sparse use of a shared subexpression — behind a
// key-only leading conjunct, so it runs over the rows of a few
// dictionary entries, or inside a logical operator over the entries,
// which narrows the entries its right side sees — with a wider use in
// another table. A kernel computes only the rows its selection marks,
// so whichever table runs first, the wider use must not read the
// sparse result.
var selectionPairs = [][2]string{
	{`table name=sparse condition=(state == "MPI_Send" && msgSizeSent > 0) x=("p", peer) y=("b", msgSizeSent, sum)`,
		`table name=wide x=("n", node) y=("b", msgSizeSent, sum) y=("c", msgSizeSent, count)`},
	{`table name=sparse condition=(state == "MPI_Recv" && bin(start, 7) < 3) y=("b", bin(start, 7), sum)`,
		`table name=wide x=("n", node) y=("b", bin(start, 7), sum) y=("m", bin(start, 7), max)`},
	{`table name=sparse condition=(state == "MPI_Send" && cpu < 1) y=("t", dura * 2, sum)`,
		`table name=wide x=("c", cpu) x=("l", cpu < 1) y=("t", dura * 2, sum)`},
}

// TestColumnarSharedSelections: each pair of selectionPairs, in both
// table orders, answers as the oracle does on every header version,
// serial and parallel, and its sparse table's row stage visits fewer
// rows than its wide one's.
func TestColumnarSharedSelections(t *testing.T) {
	fixtures := versionFixtures(t)
	for _, pair := range selectionPairs {
		for _, program := range []string{pair[0] + "\n" + pair[1], pair[1] + "\n" + pair[0]} {
			for v := uint32(1); v <= interval.CurrentHeaderVersion; v++ {
				for _, par := range []int{1, 4} {
					diffProgram(t, program, []*interval.File{fixtures[v]}, interval.MapOptions{Parallel: par})
				}
			}
		}
		run, err := stats.GenerateRun(pair[0]+"\n"+pair[1], []*interval.File{fixtures[interval.CurrentHeaderVersion]}, interval.MapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if sparse, wide := run.Tables[0].Evaluated, run.Tables[1].Evaluated; sparse == 0 || sparse >= wide {
			t.Fatalf("%q: the sparse table visited %d rows and the wide one %d", pair, sparse, wide)
		}
	}
}

// TestFrameBin: a frame's rows share one bin(start, n) only when its
// least and greatest start do, and not when bin()'s float value leaves
// int's range between them — there int conversion is not monotone, and
// a row between two that clamp to bin 0 may fall in another bin.
func TestFrameBin(t *testing.T) {
	for _, tc := range []struct {
		starts []clock.Time
		tEnd   clock.Time
		want   int
		one    bool
	}{
		{starts: []clock.Time{300e6, 310e6, 305e6}, tEnd: clock.Second, want: 15, one: true},
		{starts: []clock.Time{300e6, 330e6}, tEnd: clock.Second},
		{starts: []clock.Time{5, 5}, tEnd: 0, want: 0, one: true}, // an empty run: every bin is 0
		{starts: []clock.Time{-1 << 62, 1, 1 << 62}, tEnd: 1},
	} {
		got, one := stats.FrameBin(tc.starts, 50, 0, tc.tEnd)
		if one != tc.one || one && got != tc.want {
			t.Errorf("starts %v over (0, %v): bin %d, one %v; want %d, %v", tc.starts, tc.tEnd, got, one, tc.want, tc.one)
		}
	}
}

// TestColumnarSharedImpure: an expression that can raise is never shared.
// dura / (node - 1) under two tables' different guards divides by zero
// only where table b reaches node 1, and both engines say so in the same
// words; guarded away everywhere, both answer the same tables.
func TestColumnarSharedImpure(t *testing.T) {
	coded := codedFixtures(t)
	merged := []*interval.File{mergedFile(t)}
	for _, tc := range []struct{ program, want string }{
		{`table name=a condition=(node != 1) y=("r", dura / (node - 1), sum)
table name=b condition=(node == 1) x=("c", cpu) y=("r", dura / (node - 1), sum)`, `table "b": stats: division by zero`},
		{`table name=a condition=(node != 1) y=("r", dura / (node - 1), sum)
table name=b condition=(node == 1 && cpu > 1000000) y=("r", dura / (node - 1), sum)
table name=c condition=(node != 1 && msgSizeSent >= 0) x=("n", node) y=("r", dura / (node - 1), avg)`, ""},
	} {
		for _, files := range [][]*interval.File{merged, coded} {
			for _, par := range []int{1, 4} {
				s, c, serr, cerr := runBoth(tc.program, files, interval.MapOptions{Parallel: par})
				if fmt.Sprint(serr) != fmt.Sprint(cerr) || s != c {
					t.Fatalf("production differs from the oracle on %q:\n  scalar:   %v\n%s  columnar: %v\n%s", tc.program, serr, s, cerr, c)
				}
				if got := fmt.Sprint(cerr); (tc.want == "") != (cerr == nil) || !strings.Contains(got, tc.want) {
					t.Fatalf("%q: error %v, want %q", tc.program, cerr, tc.want)
				}
			}
		}
	}
}

// denseFixture is a file built to put the dense group-by's edges in
// reach: its first half is packed into 8 ms and its second spread over
// seconds (so bin(start, n) spans a few slots in one frame
// and many thousands in another), every fourth record has a type far
// from the others (so the type column's range over all rows passes the
// slot bound while a condition's selection does not), and markers,
// bebits past Complete and both iscall values all occur.
func denseFixture(t *testing.T) *interval.File {
	t.Helper()
	hdr := mergedFile(t).Header
	hdr.Markers = map[uint64]string{1: "alpha", 2: "beta", 3: ""}
	var recs []interval.Record
	start := clock.Time(0)
	for i := 0; i < 1600; i++ {
		if i < 800 {
			start += 10 * clock.Microsecond
		} else {
			start += 7 * clock.Millisecond
		}
		r := interval.Record{
			Bebits: profile.Bebits(i % 6),
			Start:  start,
			Dura:   clock.Time(1+i%9) * clock.Microsecond,
			CPU:    uint16(i % 3),
			Node:   uint16(i / 7 % 4),
			Thread: uint16(i % 5),
		}
		switch i % 4 {
		case 0:
			r.Type = events.Type(0x7000 + i%3)
		case 1:
			r.Type = events.EvMarkerState
			r.Extra = []uint64{uint64(i % 5), uint64(i), uint64(i + 1)}
		case 2:
			r.Type = events.EvRunning
		default:
			r.Type = events.EvMPISend
			r.Extra = []uint64{uint64(i % 3), uint64(i), uint64(10 * i), uint64(i), 1, 0}
		}
		recs = append(recs, r)
	}
	return reencode(t, hdr, recs, interval.CurrentHeaderVersion)
}

// TestColumnarDenseEdges holds the dense group-by to the oracle where its
// rules bite — -0 beside +0, negative and fractional keys, ranges past
// the slot bound in every frame or only in some, a selection narrower
// than the frame, marker and concatenation codes, constant columns — and
// checks each table took the group path its keys call for.
func TestColumnarDenseEdges(t *testing.T) {
	f := denseFixture(t)
	fs, fe, _, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if fes, err := f.Frames(); err != nil || len(fes) < 8 {
		t.Fatalf("%d frames, %v: the fixture needs many", len(fes), err)
	}
	for _, tc := range []struct{ program, group string }{
		{`table name=zero x=("n", node) x=("z", (iscall - 1) * 0) y=("n", dura, count) y=("t", dura, sum)`, "entry"},
		{`table name=neg x=("n", -(node)) y=("n", dura, count)`, "entry"},
		{`table name=frac x=("h", node / 2) x=("c", cpu) y=("t", dura, sum)`, "hash"},
		{`table name=bin x=("b", bin(start, 5000)) x=("n", node) y=("t", dura, sum) y=("n", dura, count)`, "dense"},
		{`table name=binwide x=("b", bin(start, 1000000)) y=("t", dura, sum) y=("m", dura, max)`, "mixed"},
		{`table name=binhuge x=("b", bin(start, 2147483648)) y=("n", dura, count)`, "hash"},
		{`table name=binpast x=("b", bin(start, 2147483649)) y=("n", dura, count)`, "hash"},
		{`table name=types x=("t", type) x=("th", thread) x=("s", state) y=("n", dura, count)`, "entry"},
		{`table name=typesel condition=(type < 4096) x=("t", type) x=("th", thread) x=("s", state) y=("n", dura, count)`, "entry"},
		{`table name=wide condition=(type < 4096) x=("th", thread) x=("s", state) x=("t", type) x=("b", bebits) x=("ic", iscall) y=("t", dura, sum)`, "entry"},
		{`table name=widest condition=(type < 4096) x=("n", node) x=("c", cpu) x=("th", thread) x=("s", state) x=("b", bebits) y=("t", dura, sum)`, "entry"},
		{`table name=marks x=("m", markername) x=("b", bebits) x=("ic", iscall) y=("n", dura, count) y=("t", dura, sum)`, "dense"},
		{`table name=cat x=("c", state + "/" + bebits) x=("n", node) y=("n", dura, count)`, "entry"},
		{`table name=consts condition=(state != "Type(0x7001)" && type < 4096) x=("c", "lit") x=("k", 7) x=("s", state) x=("e", "") y=("n", dura, count)`, "entry"},
		{`table name=nox condition=(msgSizeSent > 0) y=("b", msgSizeSent, sum) y=("n", dura, count)`, "dense"},
		{`table name=skipx x=("p", peer) x=("n", node) y=("b", msgSizeSent, sum)`, "hash"},
		// The key-only tables above again with a kernel y column, which
		// keeps them on the row paths.
		{`table name=zerof x=("n", node) x=("z", (iscall - 1) * 0) y=("t", dura * 2, sum)`, "hash"},
		{`table name=typesf x=("t", type) x=("th", thread) x=("s", state) y=("t", dura * 2, sum)`, "hash"},
		{`table name=typeself condition=(type < 4096) x=("t", type) x=("th", thread) x=("s", state) y=("t", dura * 2, sum)`, "dense"},
		{`table name=widef condition=(type < 4096) x=("th", thread) x=("s", state) x=("t", type) x=("b", bebits) x=("ic", iscall) y=("t", dura * 2, sum)`, "dense"},
		{`table name=widestf condition=(type < 4096) x=("n", node) x=("c", cpu) x=("th", thread) x=("s", state) x=("b", bebits) y=("t", dura * 2, sum)`, "hash"},
		{`table name=catf x=("c", state + "/" + bebits) x=("n", node) y=("n", dura, count) y=("t", dura * 2, max)`, "dense"},
		{`table name=constsf condition=(state != "Type(0x7001)" && type < 4096) x=("c", "lit") x=("k", 7) x=("s", state) x=("e", "") y=("t", dura * 2, sum)`, "dense"},
	} {
		run, err := stats.GenerateRun(tc.program, []*interval.File{f}, interval.MapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := run.Tables[0].Group; got != tc.group {
			t.Errorf("%q: group path %q, want %q", tc.program, got, tc.group)
		}
		for _, opts := range []interval.MapOptions{
			{},
			{Parallel: 4},
			{Window: true, Lo: fs + (fe-fs)/7, Hi: fs + (fe-fs)*3/5},
			{Window: true, Lo: fs + 300*clock.Microsecond, Hi: fs + 700*clock.Microsecond, Parallel: 3},
		} {
			diffProgram(t, tc.program, []*interval.File{f}, opts)
		}
	}
	// Both zeros group apart and print alike.
	tables, err := stats.GenerateOpts(`table name=zero x=("z", (iscall - 1) * 0) y=("n", dura, count)`, []*interval.File{f}, interval.MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rows := tables[0].Rows; len(rows) != 2 || rows[0].X[0].Text() != rows[1].X[0].Text() {
		t.Fatalf("-0 and +0 rows: %+v", rows)
	}
}
