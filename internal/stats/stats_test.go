package stats_test

import (
	"strings"
	"testing"
	"testing/quick"

	"tracefw/internal/clock"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/mpisim"
	"tracefw/internal/stats"
	"tracefw/internal/testutil"
)

var shape = testutil.Shape{Nodes: 2, TasksPerNode: 1, CPUs: 2, Seed: 13}

func work(p *mpisim.Proc) {
	peer := 1 - p.Rank()
	for i := 0; i < 10; i++ {
		p.Compute(2 * clock.Millisecond)
		if p.Rank() == 0 {
			p.Send(peer, int32(i), 1000)
			p.Recv(int32(peer), int32(i))
		} else {
			p.Recv(int32(peer), int32(i))
			p.Send(peer, int32(i), 500)
		}
	}
	p.Barrier()
}

func mergedFile(t *testing.T) *interval.File {
	t.Helper()
	mf, _ := testutil.Pipeline(t, shape, merge.Options{}, work)
	return mf
}

func TestParseBasics(t *testing.T) {
	specs, err := stats.Parse(`table name=sample condition=(start < 2)
		x=("node", node) x=("processor", cpu)
		y=("avg(duration)", dura, avg)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Fatalf("specs: %d", len(specs))
	}
	s := specs[0]
	if s.Name != "sample" || len(s.X) != 2 || len(s.Y) != 1 {
		t.Fatalf("spec: %+v", s)
	}
	if s.Y[0].Agg != stats.AggAvg {
		t.Fatalf("agg: %v", s.Y[0].Agg)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,                                     // no tables
		`table x=("a", node) y=("b",dura,sum)`, // no name
		`table name=t`,                         // no y
		`table name=t y=("b", dura, bogus)`,    // bad agg
		`table name=t y=("b", dura sum)`,       // missing comma
		`table name=t y=("b", dura, sum) condition=(start <)`, // bad expr
		`table name=t y=("b", @, sum)`,                        // bad char
		`table name=t y=("unterminated`,                       // unterminated string
	}
	for _, src := range bad {
		if _, err := stats.Parse(src); err == nil {
			t.Fatalf("accepted: %q", src)
		}
	}
}

func TestPaperExampleProgram(t *testing.T) {
	// The paper's example: average duration of intervals starting in the
	// first 2 seconds, per (node, cpu).
	mf := mergedFile(t)
	tables, err := stats.Generate(`table name=sample condition=(start < 2)
		x=("node", node) x=("processor", cpu)
		y=("avg(duration)", dura, avg)`, []*interval.File{mf})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if tb.Name != "sample" {
		t.Fatalf("table name %q", tb.Name)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	tsv := tb.TSV()
	if !strings.HasPrefix(tsv, "node\tprocessor\tavg(duration)\n") {
		t.Fatalf("tsv header: %q", strings.SplitN(tsv, "\n", 2)[0])
	}
}

func TestSumDurationMatchesScan(t *testing.T) {
	mf := mergedFile(t)
	tables, err := stats.Generate(`table name=total
		condition=(state != "GlobalClock")
		y=("total", dura, sum)`, []*interval.File{mf})
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := mf.Scan().All()
	var want float64
	for _, r := range recs {
		want += r.Dura.Seconds()
	}
	got := tables[0].Rows[0].Y[0]
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum(dura) = %v, scan says %v", got, want)
	}
}

func TestGroupingByNode(t *testing.T) {
	mf := mergedFile(t)
	tables, err := stats.Generate(`table name=bynode
		condition=(state == "MPI_Send")
		x=("node", node)
		y=("bytes", msgSizeSent, sum)
		y=("n", iscall, sum)`, []*interval.File{mf})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 2 {
		t.Fatalf("rows: %+v", tb.Rows)
	}
	// Node 0 sent 10×1000, node 1 sent 10×500.
	if v, ok := tb.Cell([]string{"0"}, 0); !ok || v != 10000 {
		t.Fatalf("node 0 bytes: %v %v", v, ok)
	}
	if v, ok := tb.Cell([]string{"1"}, 0); !ok || v != 5000 {
		t.Fatalf("node 1 bytes: %v %v", v, ok)
	}
	if v, _ := tb.Cell([]string{"0"}, 1); v != 10 {
		t.Fatalf("node 0 calls: %v", v)
	}
}

func TestConditionOperators(t *testing.T) {
	mf := mergedFile(t)
	progs := map[string]bool{
		`table name=t condition=(1 < 2 && 2 < 3) y=("n",1,count)`:         true,
		`table name=t condition=(1 > 2 || 0 != 0) y=("n",1,count)`:        false,
		`table name=t condition=(!(1 == 1)) y=("n",1,count)`:              false,
		`table name=t condition=(5 % 2 == 1) y=("n",1,count)`:             true,
		`table name=t condition=(-dura <= 0) y=("n",1,count)`:             true,
		`table name=t condition=(state != "NoSuchState") y=("n",1,count)`: true,
		`table name=t condition=(abs(0-2) == 2) y=("n",1,count)`:          true,
		`table name=t condition=(floor(1.7) == 1) y=("n",1,count)`:        true,
	}
	for src, wantRows := range progs {
		tables, err := stats.Generate(src, []*interval.File{mf})
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		got := len(tables[0].Rows) > 0
		if got != wantRows {
			t.Fatalf("%q: rows=%v want %v", src, got, wantRows)
		}
	}
}

func TestBinFunction(t *testing.T) {
	mf := mergedFile(t)
	tables, err := stats.Generate(`table name=bins
		condition=(state != "GlobalClock")
		x=("bin", bin(start, 10))
		y=("time", dura, sum)`, []*interval.File{mf})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tables[0].Rows {
		b := r.X[0].F
		if b < 0 || b > 9 {
			t.Fatalf("bin out of range: %v", b)
		}
	}
}

func TestAggregators(t *testing.T) {
	mf := mergedFile(t)
	tables, err := stats.Generate(`table name=aggs
		condition=(state == "MPI_Send")
		y=("min", msgSizeSent, min)
		y=("max", msgSizeSent, max)
		y=("avg", dura, avg)
		y=("count", 1, count)`, []*interval.File{mf})
	if err != nil {
		t.Fatal(err)
	}
	r := tables[0].Rows[0]
	// Pieces may carry 0 msgSizeSent; min is 0 or 500 depending on
	// splitting, max must be 1000.
	if r.Y[1] != 1000 {
		t.Fatalf("max: %v", r.Y[1])
	}
	if r.Y[2] <= 0 {
		t.Fatalf("avg duration: %v", r.Y[2])
	}
	if r.Y[3] < 20 {
		t.Fatalf("count: %v", r.Y[3])
	}
}

func TestMultipleTablesOnePass(t *testing.T) {
	mf := mergedFile(t)
	tables, err := stats.Generate(`
		table name=a y=("n", 1, count)
		table name=b condition=(state == "Running") y=("t", dura, sum)
	`, []*interval.File{mf})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].Name != "a" || tables[1].Name != "b" {
		t.Fatalf("tables: %+v", tables)
	}
}

func TestPredefinedTablesRun(t *testing.T) {
	mf := mergedFile(t)
	tables, err := stats.Generate(stats.Predefined(50), []*interval.File{mf})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*stats.Table{}
	for _, tb := range tables {
		byName[tb.Name] = tb
	}
	fig6 := byName["interesting_by_node_bin"]
	if fig6 == nil {
		t.Fatal("no Figure 6 table")
	}
	if len(fig6.Rows) == 0 {
		t.Fatal("Figure 6 table empty")
	}
	// Bins in range, both nodes present.
	nodes := map[string]bool{}
	for _, r := range fig6.Rows {
		nodes[r.X[0].Text()] = true
		if b := r.X[1].F; b < 0 || b > 49 {
			t.Fatalf("bin %v", b)
		}
	}
	if !nodes["0"] || !nodes["1"] {
		t.Fatalf("nodes in fig6: %v", nodes)
	}
	if byName["duration_by_state"] == nil || byName["bytes_by_pair"] == nil ||
		byName["busy_by_cpu"] == nil || byName["thread_state_time"] == nil {
		t.Fatalf("missing predefined tables: %v", byName)
	}
	// Sanity: duration_by_state counts MPI_Send calls as calls (10+10).
	if v, ok := byName["duration_by_state"].Cell([]string{"MPI_Send"}, 0); !ok || v != 20 {
		t.Fatalf("MPI_Send calls: %v %v", v, ok)
	}
}

func TestFigure6QuietPhaseVisible(t *testing.T) {
	// A run with a long quiet (compute-only) middle phase: the Figure 6
	// table must show near-zero interesting time in the middle bins and
	// nonzero at both ends — the structure the paper's viewer displays.
	quiet := func(p *mpisim.Proc) {
		p.Alltoall(32 << 10)
		p.Compute(400 * clock.Millisecond) // quiet middle
		p.Alltoall(32 << 10)
	}
	mf, _ := testutil.Pipeline(t, shape, merge.Options{}, quiet)
	tables, err := stats.Generate(stats.Predefined(10), []*interval.File{mf})
	if err != nil {
		t.Fatal(err)
	}
	fig6 := tables[0]
	perBin := map[int]float64{}
	for _, r := range fig6.Rows {
		perBin[int(r.X[1].F)] += r.Y[0]
	}
	if perBin[0] <= 0 {
		t.Fatalf("no interesting time at the start: %v", perBin)
	}
	mid := perBin[4] + perBin[5]
	if mid > perBin[0]/10 {
		t.Fatalf("quiet middle not quiet: start=%v mid=%v", perBin[0], mid)
	}
}

func TestStringYRejected(t *testing.T) {
	mf := mergedFile(t)
	_, err := stats.Generate(`table name=t y=("s", state, sum)`, []*interval.File{mf})
	if err == nil {
		t.Fatal("string y expression accepted")
	}
}

func TestMissingFieldSkipsRecord(t *testing.T) {
	mf := mergedFile(t)
	// msgSizeSent only exists on send-type records; others are skipped,
	// not errors.
	tables, err := stats.Generate(`table name=t x=("b", msgSizeSent) y=("n", 1, count)`,
		[]*interval.File{mf})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) == 0 {
		t.Fatal("all records skipped")
	}
}

func TestMultipleInputFiles(t *testing.T) {
	raws := testutil.RunWorkload(t, shape, work)
	files := testutil.ConvertRun(t, raws, interval.WriterOptions{})
	tables, err := stats.Generate(`table name=t
		condition=(state == "MPI_Send")
		x=("node", node) y=("bytes", msgSizeSent, sum)`, files)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 2 {
		t.Fatalf("rows: %+v", tables[0].Rows)
	}
}

func TestTSVShape(t *testing.T) {
	mf := mergedFile(t)
	tables, err := stats.Generate(`table name=t
		condition=(state == "MPI_Send")
		x=("node", node) y=("n", 1, count)`, []*interval.File{mf})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(tables[0].TSV(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("tsv lines: %v", lines)
	}
	for _, ln := range lines {
		if strings.Count(ln, "\t") != 1 {
			t.Fatalf("bad tsv row: %q", ln)
		}
	}
}

func TestExpressionPrecedence(t *testing.T) {
	mf := mergedFile(t)
	// Each condition must evaluate true under conventional precedence.
	cases := []string{
		`1 + 2 * 3 == 7`,
		`(1 + 2) * 3 == 9`,
		`2 * 3 + 4 * 5 == 26`,
		`10 - 4 - 3 == 3`,    // left associative
		`20 / 5 / 2 == 2`,    // left associative
		`1 < 2 == 1`,         // comparison yields 1
		`1 + 1 < 3 && 5 > 4`, // additive binds tighter than comparison
		`0 && 1 || 1`,        // && binds tighter than ||
		`!(1 == 2) && 1 != 2`,
		`-3 + 5 == 2`,
		`2 < 3 && 3 < 4 || 9 < 1`,
		`"abc" < "abd" && "x" + "y" == "xy"`,
	}
	for _, cond := range cases {
		src := `table name=t condition=(` + cond + `) y=("n",1,count)`
		tables, err := stats.Generate(src, []*interval.File{mf})
		if err != nil {
			t.Fatalf("%s: %v", cond, err)
		}
		if len(tables[0].Rows) == 0 {
			t.Fatalf("condition %q evaluated false", cond)
		}
	}
}

func TestRuntimeEvalErrors(t *testing.T) {
	mf := mergedFile(t)
	bad := []string{
		`table name=t condition=(1 / 0 == 1) y=("n",1,count)`,
		`table name=t condition=(1 % 0 == 1) y=("n",1,count)`,
		`table name=t condition=(state + 1 > 0) y=("n",1,count)`,   // string + number
		`table name=t condition=(-state == 0) y=("n",1,count)`,     // unary - on string
		`table name=t condition=(bogus(1) == 1) y=("n",1,count)`,   // unknown function
		`table name=t condition=(bin(start) == 0) y=("n",1,count)`, // wrong arity
	}
	for _, src := range bad {
		if _, err := stats.Generate(src, []*interval.File{mf}); err == nil {
			t.Fatalf("accepted at runtime: %q", src)
		}
	}
}

func TestMarkernameField(t *testing.T) {
	sh := testutil.Shape{Nodes: 2, TasksPerNode: 1, CPUs: 2, Seed: 41}
	mf, _ := testutil.Pipeline(t, sh, merge.Options{}, func(p *mpisim.Proc) {
		m := p.DefineMarker("Phase A")
		p.InMarker(m, func() { p.Compute(clock.Millisecond) })
		p.Barrier()
	})
	tables, err := stats.Generate(`table name=m
		condition=(state == "Marker")
		x=("name", markername)
		y=("time", dura, sum)`, []*interval.File{mf})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tables[0].Cell([]string{"Phase A"}, 0); !ok || v <= 0 {
		t.Fatalf("marker name grouping: %v %v (rows %+v)", v, ok, tables[0].Rows)
	}
}

func TestParseNeverPanics(t *testing.T) {
	// The parser must reject arbitrary garbage with an error, never a
	// panic.
	f := func(src string) bool {
		_, _ = stats.Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// And a few adversarial shapes.
	for _, src := range []string{
		"table", "table name=", "table name=a y=(", "(((((", ")", "= = =",
		`table name=a y=("x", ((((1)))), sum)`, "\x00\xff", "table name=a y=(\"x\", 1, sum) table",
	} {
		_, _ = stats.Parse(src)
	}
}

// TestParallelIdenticalTSV is the engine's determinism guarantee: the
// predefined tables must render to byte-identical TSV at every worker
// count, because aggregation is per-frame partials merged in frame
// order. Do not weaken this comparison.
func TestParallelIdenticalTSV(t *testing.T) {
	mf := mergedFile(t)
	mf2 := mergedFile(t)
	files := []*interval.File{mf, mf2}
	program := stats.Predefined(16)
	render := func(parallel int) string {
		tables, err := stats.GenerateOpts(program, files, interval.MapOptions{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tb := range tables {
			b.WriteString(tb.Name)
			b.WriteByte('\n')
			b.WriteString(tb.TSV())
		}
		return b.String()
	}
	want := render(1)
	for _, j := range []int{2, 3, 8} {
		if got := render(j); got != want {
			t.Fatalf("-j %d TSV differs from sequential", j)
		}
	}
}

// TestWindowedCountMatchesScanOracle checks -window semantics against a
// brute-force record filter over a full scan: a record contributes iff
// it overlaps [lo, hi], independent of how records fell into frames.
func TestWindowedCountMatchesScanOracle(t *testing.T) {
	mf := mergedFile(t)
	recs, err := mf.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	fs, fe, _, err := mf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, win := range [][2]clock.Time{
		{fs, fe},
		{fs + (fe-fs)/4, fs + (fe-fs)/2},
		{fe + 1, fe + 1000}, // empty
	} {
		lo, hi := win[0], win[1]
		tables, err := stats.GenerateOpts(`table name=c y=("n", dura, count)`,
			[]*interval.File{mf},
			interval.MapOptions{Parallel: 4, Window: true, Lo: lo, Hi: hi})
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		for _, r := range recs {
			if r.End() < lo || r.Start > hi {
				continue
			}
			want++
		}
		got := 0.0
		if len(tables[0].Rows) > 0 {
			got = tables[0].Rows[0].Y[0]
		}
		if got != want {
			t.Fatalf("window [%v %v]: count %v, scan oracle %v", lo, hi, got, want)
		}
	}
}
