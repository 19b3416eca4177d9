package interval

import (
	"reflect"
	"slices"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/xrand"
)

// topKOf is the reference top-k, with no floor and no incremental state:
// sort every candidate by topCmp, drop duplicate tuples, truncate to k.
func topKOf(cands []TopInterval, k int) []TopInterval {
	all := slices.Clone(cands)
	slices.SortFunc(all, topCmp)
	all = slices.Compact(all)
	return all[:min(len(all), k)]
}

// TestTopListMatchesSortedReference: a topList fed one candidate at a
// time — most of them turned away at the floor without being stored —
// holds exactly what sorting everything would, for duplicates of the
// k-th entry, far more than 4k candidates in one cell, ties on every
// topCmp field in turn, and lists merged from sublists.
func TestTopListMatchesSortedReference(t *testing.T) {
	base := TopInterval{Start: 1000, Dura: 500, Type: events.EvMPISend, Node: 3, CPU: 2, Thread: 5}
	with := func(f func(*TopInterval)) TopInterval {
		ti := base
		f(&ti)
		return ti
	}
	// Every entry differs from base in exactly one field, so each pair
	// decides on a different branch of topCmp.
	tieLadder := []TopInterval{
		base,
		with(func(ti *TopInterval) { ti.Dura++ }),
		with(func(ti *TopInterval) { ti.Dura-- }),
		with(func(ti *TopInterval) { ti.Start++ }),
		with(func(ti *TopInterval) { ti.Start-- }),
		with(func(ti *TopInterval) { ti.Type = events.EvMPIRecv }),
		with(func(ti *TopInterval) { ti.Type = events.EvMarkerState }),
		with(func(ti *TopInterval) { ti.Node++ }),
		with(func(ti *TopInterval) { ti.Node-- }),
		with(func(ti *TopInterval) { ti.CPU++ }),
		with(func(ti *TopInterval) { ti.CPU-- }),
		with(func(ti *TopInterval) { ti.Thread++ }),
		with(func(ti *TopInterval) { ti.Thread-- }),
	}
	random := func(seed uint64, n int, duraRange int64) []TopInterval {
		rng := xrand.New(seed)
		out := make([]TopInterval, n)
		for i := range out {
			out[i] = TopInterval{
				Start:  clock.Time(rng.Int63n(50)),
				Dura:   clock.Time(1 + rng.Int63n(duraRange)),
				Type:   events.Type(rng.Intn(3)),
				Node:   uint16(rng.Intn(2)),
				CPU:    uint16(rng.Intn(2)),
				Thread: uint16(rng.Intn(2)),
			}
		}
		return out
	}
	repeat := func(tis []TopInterval, times int) []TopInterval {
		var out []TopInterval
		for i := 0; i < times; i++ {
			out = append(out, tis...)
		}
		return out
	}
	ascending := random(11, 300, 1<<40)
	slices.SortFunc(ascending, func(a, b TopInterval) int { return topCmp(b, a) })

	for _, tc := range []struct {
		name  string
		cands []TopInterval
	}{
		{"empty", nil},
		{"fewer than k", tieLadder[:3]},
		{"tie on every field", tieLadder},
		{"tie ladder offered backwards", func() []TopInterval {
			r := slices.Clone(tieLadder)
			slices.Reverse(r)
			return r
		}()},
		{"duplicates of every entry, the k-th included", repeat(tieLadder, 5)},
		{"one tuple many times", repeat(tieLadder[:1], 100)},
		{"many more than 4k candidates, heavy ties", random(7, 5000, 4)},
		{"many more than 4k candidates, few ties", random(8, 5000, 1<<40)},
		{"every candidate beats the floor", ascending},
	} {
		for _, k := range []int{1, 2, 8, 13, pyrMaxTopK} {
			want := topKOf(tc.cands, k)
			var got topList
			for _, ti := range tc.cands {
				got.add(ti, k)
			}
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual([]TopInterval(got), want) {
				t.Errorf("%s, k=%d: one at a time\n got %v\nwant %v", tc.name, k, got, want)
			}
			// The same candidates as the tops of three sublists, merged
			// (what a level fold and the scan's accumulator merge do).
			var parts [3]topList
			for i, ti := range tc.cands {
				parts[i%3].add(ti, k)
			}
			var merged topList
			for _, p := range parts {
				merged.addAll(p, k)
			}
			if !reflect.DeepEqual([]TopInterval(merged), want) {
				t.Errorf("%s, k=%d: merged from sublists\n got %v\nwant %v", tc.name, k, merged, want)
			}
		}
	}
}
