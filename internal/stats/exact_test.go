package stats_test

import (
	"fmt"
	"math"
	mathbig "math/big"
	"math/rand"
	"slices"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/profile"
	"tracefw/internal/stats"
)

// bigTimesFile is a file whose records start and end near 2⁶² ns, so a
// handful of them sum past 2⁶³; its records alternate between nodes 0
// and 1.
func bigTimesFile(t *testing.T, version uint32) (*interval.File, []interval.Record) {
	t.Helper()
	var recs []interval.Record
	for i := 0; i < 48; i++ {
		recs = append(recs, interval.Record{
			Type:   events.EvRunning,
			Bebits: profile.Bebits(i % 4),
			Start:  clock.Time(1)<<62 + clock.Time(i)*clock.Second + clock.Time(7*i),
			Dura:   clock.Time(1+i%5)*clock.Millisecond + 3,
			Node:   uint16(i % 2),
			CPU:    uint16(i % 3),
		})
	}
	return reencode(t, mergedFile(t).Header, recs, version), recs
}

// TestExactSumsDoNotWrap: sum(start) and avg(end) over records near 2⁶²
// ns pass 2⁶³, and both engines answer what math/big does under the
// documented rule — the exact total rounded once to float64, then
// divided by 10⁹ — on the per-entry path and on the row paths alike. An
// int64 accumulator would wrap here; a float64 one would round each add.
func TestExactSumsDoNotWrap(t *testing.T) {
	programs := map[string]string{
		// Key-only x, every y exact: folded per dictionary entry.
		"entry": `table name=big x=("n", node) y=("s", start, sum) y=("e", end, avg) y=("d", dura, sum) y=("lo", start, min)`,
		// A float y keeps the same exact columns on the row paths.
		"row": `table name=big x=("n", node) y=("s", start, sum) y=("e", end, avg) y=("d", dura, sum) y=("lo", start, min) y=("f", dura * 1, max)`,
	}
	for v := uint32(1); v <= interval.CurrentHeaderVersion; v++ {
		f, recs := bigTimesFile(t, v)
		for node := 0; node < 2; node++ {
			var sumStart, sumEnd, sumDura, n mathbig.Int
			lo := int64(math.MaxInt64)
			for _, r := range recs {
				if int(r.Node) != node {
					continue
				}
				sumStart.Add(&sumStart, mathbig.NewInt(int64(r.Start)))
				sumEnd.Add(&sumEnd, mathbig.NewInt(int64(r.End())))
				sumDura.Add(&sumDura, mathbig.NewInt(int64(r.Dura)))
				n.Add(&n, mathbig.NewInt(1))
				lo = min(lo, int64(r.Start))
			}
			if sumStart.Cmp(mathbig.NewInt(math.MaxInt64)) <= 0 || sumEnd.Cmp(mathbig.NewInt(math.MaxInt64)) <= 0 {
				t.Fatalf("node %d: sums %v, %v do not pass 2^63: the test is vacuous", node, &sumStart, &sumEnd)
			}
			seconds := func(s *mathbig.Int) float64 {
				f, _ := new(mathbig.Float).SetInt(s).Float64()
				return f / 1e9
			}
			want := []float64{
				seconds(&sumStart),
				seconds(&sumEnd) / float64(n.Int64()),
				seconds(&sumDura),
				clock.Time(lo).Seconds(),
			}
			for path, program := range programs {
				for engine, gen := range map[string]func(string, []*interval.File, interval.MapOptions) ([]*stats.Table, error){
					"oracle": generateScalar, "columnar": stats.GenerateOpts,
				} {
					for _, par := range []int{1, 4} {
						tables, err := gen(program, []*interval.File{f}, interval.MapOptions{Parallel: par})
						if err != nil {
							t.Fatal(err)
						}
						for yi, w := range want {
							if got, ok := tables[0].Cell([]string{fmt.Sprint(node)}, yi); !ok || got != w {
								t.Errorf("v%d %s %s -j %d node %d: %s = %v (found %v), want %v",
									v, path, engine, par, node, tables[0].YLabels[yi], got, ok, w)
							}
						}
					}
				}
			}
		}
		run, err := stats.GenerateRun(programs["entry"], []*interval.File{f}, interval.MapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if g := run.Tables[0].Group; g != "entry" {
			t.Fatalf("v%d: the entry program folded by %q", v, g)
		}
	}
}

// exactPrograms are programs whose every y column is exact, over every
// group path: per entry, dense and hash.
var exactPrograms = []string{
	`table name=calls condition=(state != "Running") x=("s", state) y=("c", iscall, sum) y=("t", dura, sum) y=("e", end, avg) y=("m", start, max) y=("k", 3, sum)
table name=threads x=("n", node) x=("th", thread) x=("s", state) y=("t", dura, sum) y=("p", 1, count)`,
	`table name=nb x=("n", node) x=("b", bin(start, 7)) y=("t", dura, sum) y=("c", 1, count) y=("s", start, avg) y=("th", thread, sum)
table name=peer x=("p", peer) y=("t", dura, sum) y=("n", node, sum) y=("e", end, min)
table name=dur x=("d", dura) y=("t", dura, sum) y=("ty", type, avg)`,
}

// TestExactPartialsOrderFree: partials do not depend on the order they
// are merged in. Every program of exactPrograms, differentialPrograms and
// sharedPrograms that runs without error has its whole-frame partials,
// every other one the clone a frame memo stores, merged in frame order,
// in reverse and in seeded shuffled orders, and each answers byte for
// byte what the production run does — fractional, infinite and NaN sums
// included.
func TestExactPartialsOrderFree(t *testing.T) {
	fixtures := versionFixtures(t)
	big1, _ := bigTimesFile(t, interval.CurrentHeaderVersion)
	programs := append(append(slices.Clone(exactPrograms), differentialPrograms...), sharedPrograms...)
	orders := map[string]func(n int) []int{
		"forward": identity,
		"reverse": func(n int) []int { s := identity(n); slices.Reverse(s); return s },
	}
	for seed := int64(1); seed <= 3; seed++ {
		orders[fmt.Sprint("shuffle-", seed)] = func(n int) []int {
			s := identity(n)
			rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { s[i], s[j] = s[j], s[i] })
			return s
		}
	}
	ran := 0
	for _, files := range [][]*interval.File{
		{fixtures[interval.CurrentHeaderVersion]},
		codedFixtures(t),
		{denseFixture(t)},
		{big1},
	} {
		for _, program := range programs {
			run, err := stats.GenerateRun(program, files, interval.MapOptions{})
			if err != nil {
				continue // a runtime error: no partials to merge
			}
			want := run.Tables
			ran++
			for name, perm := range orders {
				got, err := stats.GenerateReordered(program, files, perm)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := renderBits(got), renderBits(want); g != w {
					t.Fatalf("%s merge of %q differs from the production run:\n--- production ---\n%s--- %s ---\n%s", name, program, w, name, g)
				}
			}
		}
	}
	if runs := 4 * len(programs); ran < runs*3/4 {
		t.Fatalf("only %d of %d program runs succeeded: the test is mostly vacuous", ran, runs)
	}
}

func identity(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestExactSumAnyOrder holds the accumulator to math/big: sums of
// float64s over the whole exponent range — subnormals, values that cancel
// to a few ulps, integers past 2⁶³ and near ±MaxFloat64 — equal the exact
// total rounded once, whatever the order of the values, however many
// partials they are split into and however often carries are propagated.
func TestExactSumAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	kinds := map[string]func() float64{
		"anybits": func() float64 {
			for {
				if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
					return v
				}
			}
		},
		"subnormal": func() float64 { return math.Float64frombits(rng.Uint64()>>12) * float64(1-2*rng.Intn(2)) },
		"cancel": func() float64 {
			return float64(1-2*rng.Intn(2)) * (1e300 + float64(rng.Intn(4))*1e284) * float64(1+rng.Intn(2))
		},
		"mixed": func() float64 {
			switch rng.Intn(4) {
			case 0:
				return float64(rng.Int63()) * float64(1-2*rng.Intn(2))
			case 1:
				return rng.Float64() * 1e-3
			case 2:
				return math.Ldexp(float64(rng.Int63()), 10+rng.Intn(900))
			}
			return math.MaxFloat64 * float64(1-2*rng.Intn(2))
		},
	}
	for name, gen := range kinds {
		for trial := 0; trial < 20; trial++ {
			values := make([]float64, 1+rng.Intn(300))
			exact := new(mathbig.Float).SetPrec(3000)
			for i := range values {
				values[i] = gen()
				exact.Add(exact, mathbig.NewFloat(values[i]))
			}
			want, _ := exact.Float64()
			if want == 0 {
				want = 0 // a zero total is +0
			}
			for _, c := range []struct{ parts, normEvery int }{{1, 0}, {1, 1}, {3, 0}, {7, 5}} {
				rng.Shuffle(len(values), func(i, j int) { values[i], values[j] = values[j], values[i] })
				if got := stats.SumExact(values, c.parts, c.normEvery); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s trial %d, %d parts, carries every %d adds: sum %v, want %v", name, trial, c.parts, c.normEvery, got, want)
				}
			}
		}
	}
}
