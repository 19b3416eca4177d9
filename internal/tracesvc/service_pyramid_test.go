package tracesvc_test

// Service-level tests for the summary query paths: the view=preview
// histogram mode and the time-resolved stats, each answered by whichever
// engine the opened trace's sidecar allows (nobody picks: engine= and
// summary= are ignored), the empty-window placeholder, and the /metrics
// counters that prove which engine answered and what it consulted.

import (
	"encoding/json"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tracefw/internal/interval"
	"tracefw/internal/tracesvc"
)

// writePyramidTrace writes a trace plus its .pyr sidecar; the registry
// auto-loads the sidecar on open. writeTrace(t, otherDir, n) is the
// same trace, byte for byte, without one.
func writePyramidTrace(t *testing.T, n int) string {
	t.Helper()
	path := writeTrace(t, t.TempDir(), n)
	b, err := interval.BuildPyramidSidecar(path, interval.PyramidOptions{BaseCells: 128})
	if err != nil {
		t.Fatal(err)
	}
	if b.Declined() {
		t.Fatalf("fixture sidecar (%d bytes) outweighs its trace (%d bytes)", b.Bytes, b.TraceBytes)
	}
	return path
}

// summaryCounters reads the four summary series off /metrics: queries
// answered by the pyramid and by the scan, cells consulted, frames
// decoded.
func summaryCounters(t *testing.T, s *tracesvc.Service) (c [4]int64) {
	t.Helper()
	m := do(t, s, "GET", "/metrics", "").Body.String()
	for i, series := range []string{
		`tracesvc_summary_queries_total{engine="pyramid"}`,
		`tracesvc_summary_queries_total{engine="scan"}`,
		`tracesvc_summary_pyramid_cells_total`,
		`tracesvc_summary_frames_decoded_total`,
	} {
		sm := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\d+)$`).FindStringSubmatch(m)
		if sm == nil {
			t.Fatalf("metrics missing %s:\n%s", series, m)
		}
		c[i], _ = strconv.ParseInt(sm[1], 10, 64)
	}
	return c
}

func TestServicePreviewHistogram(t *testing.T) {
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	with := openTrace(t, s, writePyramidTrace(t, 1200))
	bare := openTrace(t, s, writeTrace(t, t.TempDir(), 1200))

	get := func(id, q string) string {
		t.Helper()
		w := do(t, s, "GET", "/v1/traces/"+id+"/preview.svg?view=preview"+q, "")
		if w.Code != http.StatusOK {
			t.Fatalf("preview%s: %d %s", q, w.Code, w.Body)
		}
		if ct := w.Header().Get("Content-Type"); ct != "image/svg+xml" {
			t.Fatalf("content type %q", ct)
		}
		return w.Body.String()
	}

	before := summaryCounters(t, s)
	pyr := get(with, "")
	if !strings.Contains(pyr, "preview") || strings.Count(pyr, "<rect") < 5 {
		t.Fatalf("histogram too empty:\n%s", pyr)
	}
	// The pyramid and the scan must render byte-identical documents;
	// windowed + explicit bins exercise the planner's remainder path.
	if pyr != get(bare, "") {
		t.Fatal("engines render different documents")
	}
	if get(with, "&window=0.01:0.09&bins=20") != get(bare, "&window=0.01:0.09&bins=20") {
		t.Fatal("windowed engines render different documents")
	}
	// Nobody picks the engine: the parameter that used to is ignored,
	// whatever it says.
	for _, q := range []string{"&engine=scan", "&engine=nope"} {
		if get(with, fresh(s, q)) != pyr {
			t.Fatalf("preview%s is not the default document", q)
		}
	}
	// The counters prove who answered: every request to the trace with a
	// sidecar was the pyramid's, cells and all, the other trace's the scan's.
	after := summaryCounters(t, s)
	if d := [4]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2], after[3] - before[3]}; d[0] != 4 || d[1] != 2 || d[2] == 0 || d[3] == 0 {
		t.Fatalf("summary counters moved by %v, want 4 pyramid and 2 scan queries, cells and frames", d)
	}

	// Asked again and again, the windowed preview still matches the scan
	// (each asking under a fresh answer key, so no stored answer stands in
	// for it).
	for ask := 2; ask <= 4; ask++ {
		for _, q := range []string{"&window=0.01:0.09&bins=20", "&window=0.0123457:0.0876543&bins=7"} {
			if get(with, fresh(s, q)) != get(bare, fresh(s, q)) {
				t.Fatalf("asking %d of preview%s: engines render different documents", ask, q)
			}
		}
	}

	for _, q := range []string{"&bins=0", "&bins=x"} {
		if w := do(t, s, "GET", "/v1/traces/"+with+"/preview.svg?view=preview"+q, ""); w.Code != http.StatusBadRequest {
			t.Fatalf("preview%s: %d, want 400", q, w.Code)
		}
	}
}

// TestServicePreviewEmptyWindow: a window beyond the run must render
// the placeholder note — not the full run through an inverted clamp
// (the old bug) and not a bare axis.
func TestServicePreviewEmptyWindow(t *testing.T) {
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	id := openTrace(t, s, writePyramidTrace(t, 1200))

	for _, url := range []string{
		"/v1/traces/" + id + "/preview.svg?view=preview&window=100:200",
		"/v1/traces/" + id + "/preview.svg?view=processor-activity&window=100:200",
	} {
		w := do(t, s, "GET", url, "")
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", url, w.Code, w.Body)
		}
		body := w.Body.String()
		if !strings.Contains(body, "no data in window") {
			t.Fatalf("%s: placeholder missing:\n%s", url, body)
		}
		if strings.Contains(body, "<rect") {
			t.Fatalf("%s: beyond-run window rendered data", url)
		}
	}
}

func TestStatsTimeResolvedSummaryEngine(t *testing.T) {
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	with := openTrace(t, s, writePyramidTrace(t, 1200))
	bare := openTrace(t, s, writeTrace(t, t.TempDir(), 1200))

	type tableJSON struct {
		Name   string `json:"name"`
		Engine string `json:"engine"`
		TSV    string `json:"tsv"`
	}
	get := func(id, q, engine string) []tableJSON {
		t.Helper()
		w := do(t, s, "GET", "/v1/traces/"+id+"/stats?timeresolved=1&bins=8&format=json"+q, "")
		if w.Code != http.StatusOK {
			t.Fatalf("stats%s: %d %s", q, w.Code, w.Body)
		}
		var out struct {
			Tables []tableJSON `json:"tables"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Tables) != 3 {
			t.Fatalf("stats%s: %d tables", q, len(out.Tables))
		}
		for _, tb := range out.Tables {
			if tb.Engine != engine {
				t.Fatalf("stats%s: table %s answered by %q, want %q", q, tb.Name, tb.Engine, engine)
			}
		}
		return out.Tables
	}

	// Three askings, the last two under a whole answer's once-seen marker
	// and then its stored copy, each matching the scan.
	for ask := 1; ask <= 3; ask++ {
		for _, q := range []string{"", "&window=0.01:0.09", "&window=0.0123457:0.0876543"} {
			pyr, scan := get(with, q, "pyramid"), get(bare, q, "scan")
			for i := range pyr {
				if pyr[i].TSV != scan[i].TSV {
					t.Fatalf("asking %d: table %s differs between engines:\npyramid:\n%s\nscan:\n%s", ask, pyr[i].Name, pyr[i].TSV, scan[i].TSV)
				}
			}
		}
	}

	// summary= is ignored, not parsed: any value answers 200 with the
	// default body.
	def := do(t, s, "GET", "/v1/traces/"+with+"/stats?timeresolved=1&bins=8", "")
	for _, q := range []string{"&summary=scan", "&summary=nope"} {
		w := do(t, s, "GET", "/v1/traces/"+with+"/stats?timeresolved=1&bins=8"+q, "")
		if w.Code != http.StatusOK || w.Body.String() != def.Body.String() {
			t.Fatalf("stats%s: %d, body equal to the default's: %v", q, w.Code, w.Body.String() == def.Body.String())
		}
	}
}

// TestStatsTimeResolvedReportsPlan: a time-resolved answer is a summary
// query like a preview is, and moves the summary counters — queries by
// engine, cells consulted, frames decoded — by exactly what the
// equivalent preview request moves them, whichever engine answers.
func TestStatsTimeResolvedReportsPlan(t *testing.T) {
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	traces := map[string]string{
		"pyramid": openTrace(t, s, writePyramidTrace(t, 1200)),
		"scan":    openTrace(t, s, writeTrace(t, t.TempDir(), 1200)),
	}
	moved := func(url string) (d [4]int64) {
		t.Helper()
		before := summaryCounters(t, s)
		if w := do(t, s, "GET", url, ""); w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", url, w.Code, w.Body)
		}
		for i, v := range summaryCounters(t, s) {
			d[i] = v - before[i]
		}
		return d
	}
	for engine, id := range traces {
		for _, q := range []string{"bins=8", "bins=20&window=0.01:0.09"} {
			tr := moved("/v1/traces/" + id + "/stats?timeresolved=1&" + q)
			pv := moved("/v1/traces/" + id + "/preview.svg?view=preview&" + q)
			if tr != pv {
				t.Fatalf("%s %s: time-resolved moved the summary counters by %v, the preview by %v", engine, q, tr, pv)
			}
			want := [4]int64{1, 0, tr[2], tr[3]}
			if engine == "scan" {
				want = [4]int64{0, 1, 0, tr[3]}
			}
			if tr != want || tr[2]+tr[3] == 0 {
				t.Fatalf("%s %s: summary counters moved by %v", engine, q, tr)
			}
		}
	}
}
