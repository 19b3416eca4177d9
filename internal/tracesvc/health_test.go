package tracesvc_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"tracefw/internal/interval"
	"tracefw/internal/tracesvc"
)

// TestNewServer: the server both daemons build bounds how long a client
// may take over its request headers and how long a keep-alive connection
// may sit idle, so neither a slow nor an idle client holds a connection
// for ever.
func TestNewServer(t *testing.T) {
	h := http.NotFoundHandler()
	srv := tracesvc.NewServer(h)
	if srv.Handler == nil || srv.ReadHeaderTimeout != tracesvc.ReadHeaderTimeout || srv.IdleTimeout != tracesvc.IdleTimeout {
		t.Fatalf("server: handler set %v, header timeout %v, idle timeout %v", srv.Handler != nil, srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if tracesvc.ReadHeaderTimeout <= 0 || tracesvc.IdleTimeout <= 0 {
		t.Fatalf("header timeout %v, idle timeout %v: both must be set", tracesvc.ReadHeaderTimeout, tracesvc.IdleTimeout)
	}
}

// TestHealthReadyLifecycle pins the liveness/readiness contract:
// /healthz is always 200, /readyz is 503 until SetReady, 200 after,
// and 503 again once Close begins draining.
func TestHealthReadyLifecycle(t *testing.T) {
	s := tracesvc.New(tracesvc.Config{})

	if w := do(t, s, "GET", "/healthz", ""); w.Code != http.StatusOK || w.Body.String() != "ok\n" {
		t.Fatalf("healthz before ready: %d %q", w.Code, w.Body)
	}
	if w := do(t, s, "GET", "/readyz", ""); w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "starting") {
		t.Fatalf("readyz before SetReady: %d %q", w.Code, w.Body)
	}
	s.SetReady()
	if w := do(t, s, "GET", "/readyz", ""); w.Code != http.StatusOK || w.Body.String() != "ready\n" {
		t.Fatalf("readyz after SetReady: %d %q", w.Code, w.Body)
	}
	s.Close()
	if w := do(t, s, "GET", "/readyz", ""); w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "draining") {
		t.Fatalf("readyz after Close: %d %q", w.Code, w.Body)
	}
	if w := do(t, s, "GET", "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz after Close: %d %q", w.Code, w.Body)
	}
}

// TestLiveRetryAfter asserts the 503 before a live trace's first sealed
// frame group carries a Retry-After header, so pollers back off instead
// of spinning.
func TestLiveRetryAfter(t *testing.T) {
	s := ingestService(t, t.TempDir(), interval.WriterOptions{})
	defer s.Close()
	w := doBytes(t, s, "POST", "/v1/ingest/pending?op=begin&nodes=1", nil)
	if w.Code != http.StatusCreated {
		t.Fatalf("begin: %d %s", w.Code, w.Body)
	}
	var began struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &began); err != nil || began.ID == "" {
		t.Fatalf("begin response %q: %v", w.Body, err)
	}

	w = do(t, s, "GET", "/v1/traces/"+began.ID, "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("get before first seal: %d %s", w.Code, w.Body)
	}
	if ra := w.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
}

// TestRecordsFrameRange exercises ?frames=lo:hi: the dir boundaries
// published by /frames partition the frame list, per-range pages
// concatenate to the whole-trace page, per-range counts sum to the
// total, and malformed ranges answer 400.
func TestRecordsFrameRange(t *testing.T) {
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	path := writeTrace(t, t.TempDir(), 400)
	id := openTrace(t, s, path)

	w := do(t, s, "GET", "/v1/traces/"+id+"/frames", "")
	if w.Code != http.StatusOK {
		t.Fatalf("frames: %d %s", w.Code, w.Body)
	}
	var fl tracesvc.FrameList
	if err := json.Unmarshal(w.Body.Bytes(), &fl); err != nil {
		t.Fatal(err)
	}
	if len(fl.Dirs) < 2 {
		t.Fatalf("want >=2 dirs, got %d", len(fl.Dirs))
	}
	// Dirs must tile the frame list: contiguous, complete, gapless.
	next := 0
	var dirRecs int64
	for i, d := range fl.Dirs {
		if d.FirstFrame != next {
			t.Fatalf("dir %d: firstFrame %d, want %d", i, d.FirstFrame, next)
		}
		next += d.Frames
		dirRecs += d.Records
	}
	if next != len(fl.Frames) {
		t.Fatalf("dirs cover %d frames, list has %d", next, len(fl.Frames))
	}

	full := recordsPage(t, s, "/v1/traces/"+id+"/records?limit=100000")
	if int64(full.Total) != dirRecs {
		t.Fatalf("total %d, dir aggregate %d", full.Total, dirRecs)
	}

	// Concatenating the per-dir ranges must reproduce the full page, and
	// their counts must sum to the total.
	var cat []tracesvc.RecordJSON
	sum := 0
	for _, d := range fl.Dirs {
		url := fmt.Sprintf("/v1/traces/%s/records?limit=100000&frames=%d:%d", id, d.FirstFrame, d.FirstFrame+d.Frames)
		page := recordsPage(t, s, url)
		sum += page.Total
		cat = append(cat, page.Records...)
	}
	if sum != full.Total {
		t.Fatalf("per-range totals sum to %d, want %d", sum, full.Total)
	}
	a, _ := json.Marshal(cat)
	b, _ := json.Marshal(full.Records)
	if string(a) != string(b) {
		t.Fatal("concatenated per-range records differ from the whole-trace page")
	}

	// A windowed range query only sees its own frames.
	mid := fl.Dirs[1].FirstFrame
	head := recordsPage(t, s, fmt.Sprintf("/v1/traces/%s/records?limit=100000&frames=0:%d", id, mid))
	if head.Total+sumTotals(t, s, id, fl.Dirs[1:]) != full.Total {
		t.Fatal("split at dir 1 does not partition the records")
	}

	// Empty range is legal and empty; malformed or out-of-range is 400.
	empty := recordsPage(t, s, "/v1/traces/"+id+"/records?frames=3:3")
	if empty.Total != 0 || len(empty.Records) != 0 {
		t.Fatalf("empty range: total %d, %d records", empty.Total, len(empty.Records))
	}
	for _, bad := range []string{"x:2", "2", "-1:2", "5:2", fmt.Sprintf("0:%d", len(fl.Frames)+1), "1:2:3"} {
		w := do(t, s, "GET", "/v1/traces/"+id+"/records?frames="+bad, "")
		if w.Code != http.StatusBadRequest {
			t.Fatalf("frames=%q: %d, want 400", bad, w.Code)
		}
	}

	// The range-leg counter moved.
	if m := do(t, s, "GET", "/metrics", "").Body.String(); !strings.Contains(m, "tracesvc_range_queries_total") {
		t.Fatal("metrics lack tracesvc_range_queries_total")
	}
}

func recordsPage(t *testing.T, s *tracesvc.Service, url string) tracesvc.RecordsPage {
	t.Helper()
	w := do(t, s, "GET", url, "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, w.Code, w.Body)
	}
	var page tracesvc.RecordsPage
	if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	return page
}

func sumTotals(t *testing.T, s *tracesvc.Service, id string, dirs []tracesvc.DirInfo) int {
	t.Helper()
	sum := 0
	for _, d := range dirs {
		url := fmt.Sprintf("/v1/traces/%s/records?count=1&frames=%d:%d", id, d.FirstFrame, d.FirstFrame+d.Frames)
		w := do(t, s, "GET", url, "")
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", url, w.Code, w.Body)
		}
		var c tracesvc.RecordCount
		if err := json.Unmarshal(w.Body.Bytes(), &c); err != nil {
			t.Fatal(err)
		}
		sum += c.Count
	}
	return sum
}
