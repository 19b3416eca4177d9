package tracesvc_test

import (
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/profile"
	"tracefw/internal/stats"
	"tracefw/internal/tracesvc"
)

// writeWideTrace writes a trace busy on nodes × cpus lanes: perLane
// MPI_Send intervals on every lane, staggered so each lane's are spread
// over the run.
func writeWideTrace(t *testing.T, nodes, cpus, perLane int) string {
	t.Helper()
	lanes := nodes * cpus
	recs := make([]interval.Record, 0, lanes*perLane)
	for k := 0; k < perLane; k++ {
		for l := 0; l < lanes; l++ {
			start := clock.Time(k*lanes+l) * clock.Microsecond
			recs = append(recs, interval.Record{
				Type: events.EvMPISend, Bebits: profile.Complete,
				Start: start, Dura: clock.Time(1+l%7) * clock.Microsecond,
				Node: uint16(l / cpus), CPU: uint16(l % cpus),
				Extra: []uint64{uint64(l), 7, 64, uint64(k), 0, 0},
			})
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].End() < recs[j].End() })
	path := filepath.Join(t.TempDir(), "wide.ute")
	fl, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr := interval.Header{
		ProfileVersion: profile.StdVersion,
		HeaderVersion:  interval.CurrentHeaderVersion,
		FieldMask:      profile.MaskIndividual,
	}
	w, err := interval.NewWriter(fl, hdr, interval.WriterOptions{FrameBytes: 4096})
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
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStatsCellBudget: a time-resolved request whose bins times the
// trace's types and lanes pass interval.MaxSummaryCells answers 400 —
// not a 200 holding gigabytes, not a 5xx — and fails before it has
// allocated a fraction of what the full summary would take (a row of
// bins per lane). A request within budget still answers, and so does
// the preview at the same bins: it draws no lane, so it keeps no lane
// rows (with them it would pass the budget too).
func TestStatsCellBudget(t *testing.T) {
	const nodes, cpus = 128, 4
	const lanes = nodes * cpus
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	id := openTrace(t, s, writeWideTrace(t, nodes, cpus, 4))
	base := "/v1/traces/" + id

	w := do(t, s, "GET", base+"/stats?timeresolved=1&bins=64", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "# table tr_load_balance") {
		t.Fatalf("within budget: %d %s", w.Code, w.Body)
	}

	bins := stats.MaxBins
	full := int64(bins) * lanes * 8 // the lane rows alone, in bytes
	for _, c := range []struct {
		url  string
		code int
		body string
	}{
		{base + "/stats?timeresolved=1&bins=65536", http.StatusBadRequest, "cell budget"},
		{base + "/stats?timeresolved=1&bins=65536", http.StatusBadRequest, "cell budget"}, // never memoized as an answer
		{base + "/preview.svg?view=preview&bins=65536", http.StatusOK, "<svg"},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		w := do(t, s, "GET", c.url, "")
		runtime.ReadMemStats(&after)
		if w.Code != c.code || !strings.Contains(w.Body.String(), c.body) {
			t.Fatalf("GET %s: %d %.200s, want %d and %q", c.url, w.Code, w.Body, c.code, c.body)
		}
		got := int64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("GET %s: %d bytes allocated", c.url, got)
		if c.code != http.StatusOK && got > full/4 {
			t.Fatalf("GET %s allocated %d bytes before failing; a full summary's lane rows are %d", c.url, got, full)
		}
	}
}
