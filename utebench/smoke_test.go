package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// checkResult asserts a run reported exactly the named metrics, each
// with its unit and a finite value, and no failed operation.
func checkResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.name, m.Value)
		}
	}
}

// TestSmoke runs every workload once at toy size through the real
// commands and daemons: it catches flag, output-format and endpoint
// bit-rot in seconds. The traced serve run exercises every layer probe.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the repo's commands")
	}
	for _, w := range workloads {
		res, err := runOne("..", w.name, 12, 0, false, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkResult(t, res, endToEnd)
		for _, d := range endToEnd {
			if res.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.name, res.Metrics[d.name].Value)
			}
		}
	}
	res, err := runOne("..", "serve_zoom_warm", 12, 0, true, true)
	if err != nil {
		t.Fatalf("traced serve_zoom_warm: %v", err)
	}
	checkResult(t, res, perLayer)
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables the harness
// reports from, so the two cannot drift apart.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Why string }
	var f struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, harness has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, harness %q / %q", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics listed, harness reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], harness %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
}

// TestQuartiles pins the spread estimator to Python's
// statistics.quantiles(v, n=4), which the acceptance driver uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{10, 2, 7})
	if q1 != 2 || q3 != 10 {
		t.Errorf("quartiles(10,2,7) = %v .. %v, want 2 .. 10", q1, q3)
	}
}

// TestCutBatches checks the preamble cut on a hand-built raw stream:
// header, thread info, a plain record, a marker definition with its
// string, then two more plain records.
func TestCutBatches(t *testing.T) {
	rec := func(typ uint32, nargs int, str string) []byte {
		hook := typ<<16 | uint32(nargs)
		if str != "" {
			hook |= rawStrBit
		}
		b := make([]byte, rawRecHeader+8*nargs)
		b[0], b[1], b[2], b[3] = byte(hook), byte(hook>>8), byte(hook>>16), byte(hook>>24)
		if str != "" {
			b = append(b, byte(len(str)), 0)
			b = append(b, str...)
		}
		return b
	}
	raw := append([]byte("UTRAW1\x00\x00"), make([]byte, rawHeaderSize-8)...)
	raw = append(raw, rec(evThreadInfo, 4, "")...)
	raw = append(raw, rec(0x0201, 0, "")...)
	raw = append(raw, rec(evMarkerDefine, 1, "phase")...)
	cut := len(raw)
	raw = append(raw, rec(0x0201, 2, "")...)
	raw = append(raw, rec(0x0202, 0, "")...)
	batches, err := cutBatches(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 || len(batches[0]) != cut || len(batches[1]) != len(raw)-cut {
		t.Errorf("cut %d batches, preamble %d bytes; want 2 batches, preamble %d", len(batches), len(batches[0]), cut)
	}
	if _, err := cutBatches(raw[:len(raw)-3]); err == nil {
		t.Error("truncated stream accepted")
	}
}
