package stats_test

// Oracle tests for the time-resolved tables: an independent
// brute-force over a full record scan must reproduce every cell the
// batch-fed implementation emits.

import (
	"math"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/stats"
)

// trBound replicates the exact integer bucket boundary rule.
func trBound(lo clock.Time, span int64, bins, i int) clock.Time {
	return lo + clock.Time((span/int64(bins))*int64(i)+(span%int64(bins))*int64(i)/int64(bins))
}

func busyRecord(r interval.Record) bool {
	return r.Type != events.EvRunning && r.Type != events.EvGlobalClock
}

func TestTimeResolvedOracle(t *testing.T) {
	mf := mergedFile(t)
	recs, err := mf.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	t0, t1, _, err := mf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		bins int
		opts interval.MapOptions
		lo   clock.Time
		hi   clock.Time
	}{
		{"full-7", 7, interval.MapOptions{}, t0, t1},
		{"full-1", 1, interval.MapOptions{}, t0, t1},
		{"full-64-par", 64, interval.MapOptions{Parallel: 4}, t0, t1},
		{"windowed", 9, interval.MapOptions{Window: true, Lo: t0 + (t1-t0)/4, Hi: t0 + (t1-t0)/2},
			t0 + (t1-t0)/4, t0 + (t1-t0)/2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tables, err := stats.TimeResolved([]*interval.File{mf}, tc.bins, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) != 3 {
				t.Fatalf("got %d tables, want 3", len(tables))
			}
			busyT, laneT, concT := tables[0], tables[1], tables[2]
			lo, hi := tc.lo, tc.hi
			span := int64(hi - lo)
			bins := tc.bins
			bound := func(i int) clock.Time { return trBound(lo, span, bins, i) }

			// Busy time per (bucket, type) and per (bucket, lane), brute force.
			type lane struct{ node, cpu uint16 }
			busy := map[[2]interface{}]clock.Time{}
			laneBusy := map[int]map[lane]clock.Time{}
			lanes := map[lane]bool{}
			for bi := 0; bi < bins; bi++ {
				laneBusy[bi] = map[lane]clock.Time{}
			}
			for _, r := range recs {
				if !busyRecord(r) {
					continue
				}
				s, e := max(r.Start, lo), min(r.End(), hi)
				if s >= e {
					continue
				}
				lanes[lane{r.Node, r.CPU}] = true
				for bi := 0; bi < bins; bi++ {
					ov := min(e, bound(bi+1)) - max(s, bound(bi))
					if ov > 0 {
						busy[[2]interface{}{bi, r.Type.Name()}] += ov
						laneBusy[bi][lane{r.Node, r.CPU}] += ov
					}
				}
			}

			// tr_busy_by_type: cell-by-cell against the oracle, and no
			// spurious rows.
			if got, want := len(busyT.Rows), len(busy); got != want {
				t.Fatalf("tr_busy_by_type has %d rows, oracle %d", got, want)
			}
			for _, row := range busyT.Rows {
				bi := int(row.X[0].F)
				name := row.X[1+1].S
				want := busy[[2]interface{}{bi, name}].Seconds()
				if row.Y[0] != want {
					t.Fatalf("busy[%d, %s] = %v, oracle %v", bi, name, row.Y[0], want)
				}
				if row.X[1].F != bound(bi).Seconds() {
					t.Fatalf("busy bucket %d: t0 %v, want %v", bi, row.X[1].F, bound(bi).Seconds())
				}
			}

			// tr_load_balance.
			if len(laneT.Rows) != bins {
				t.Fatalf("tr_load_balance has %d rows, want %d", len(laneT.Rows), bins)
			}
			for bi, row := range laneT.Rows {
				var total, maxB clock.Time
				for l := range lanes {
					v := laneBusy[bi][l]
					total += v
					maxB = max(maxB, v)
				}
				var mean, imb float64
				if len(lanes) > 0 {
					mean = total.Seconds() / float64(len(lanes))
				}
				if mean > 0 {
					imb = maxB.Seconds() / mean
				}
				if row.Y[0] != mean || row.Y[1] != maxB.Seconds() || math.Abs(row.Y[2]-imb) > 1e-12 {
					t.Fatalf("load_balance[%d] = %v, oracle [%v %v %v]", bi, row.Y, mean, maxB.Seconds(), imb)
				}
			}

			// tr_concurrency: peak per bucket by brute-force evaluation of
			// c(t) = #{intervals: s <= t < e} at every candidate instant.
			type iv struct{ s, e clock.Time }
			var ivs []iv
			for _, r := range recs {
				if !busyRecord(r) {
					continue
				}
				s, e := max(r.Start, lo), min(r.End(), hi)
				if s < e {
					ivs = append(ivs, iv{s, e})
				}
			}
			concAt := func(at clock.Time) int {
				n := 0
				for _, v := range ivs {
					if v.s <= at && at < v.e {
						n++
					}
				}
				return n
			}
			if len(concT.Rows) != bins {
				t.Fatalf("tr_concurrency has %d rows, want %d", len(concT.Rows), bins)
			}
			for bi, row := range concT.Rows {
				blo, bhi := bound(bi), bound(bi+1)
				peak := 0
				cands := []clock.Time{blo}
				for _, v := range ivs {
					for _, c := range []clock.Time{v.s, v.e} {
						if c >= blo && (c < bhi || (bi == bins-1 && c <= bhi)) {
							cands = append(cands, c)
						}
					}
				}
				for _, c := range cands {
					if n := concAt(c); n > peak {
						peak = n
					}
				}
				if int(row.Y[0]) != peak {
					t.Fatalf("concurrency[%d] = %v, oracle %d", bi, row.Y[0], peak)
				}
			}
		})
	}
}

// TestTimeResolvedDeterministic pins byte-identity across worker counts.
func TestTimeResolvedDeterministic(t *testing.T) {
	mf := mergedFile(t)
	render := func(par int) string {
		tables, err := stats.TimeResolved([]*interval.File{mf}, 32, interval.MapOptions{Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		return renderTables(tables)
	}
	want := render(1)
	for _, par := range []int{2, 8} {
		if got := render(par); got != want {
			t.Fatalf("-j%d time-resolved output differs from sequential", par)
		}
	}
}

func TestTimeResolvedValidation(t *testing.T) {
	mf := mergedFile(t)
	if _, err := stats.TimeResolved([]*interval.File{mf}, 0, interval.MapOptions{}); err == nil {
		t.Fatal("bins=0 accepted")
	}
	if _, err := stats.TimeResolved([]*interval.File{mf}, stats.MaxBins+1, interval.MapOptions{}); err == nil {
		t.Fatal("bins past MaxBins accepted")
	}
}
