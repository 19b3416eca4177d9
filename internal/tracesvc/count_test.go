package tracesvc_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/interval"
	"tracefw/internal/shard"
	"tracefw/internal/tracesvc"
	"tracefw/internal/xrand"
)

// TestRecordsCountFromDirectory: /records?count=1 adds up the directory's
// record counts for every frame the window does not cut and decodes only
// the frames it does, yet counts exactly the records a full scan finds
// overlapping the window — on random windows (one frame's exact bounds,
// frame-aligned spans with zero-duration records on their edges, random
// spans, none at all), asked three times of a cold service directly and
// of a router whose two backends each count their own frames=lo:hi leg.
// A cut frame's count is never memoized: every asking decodes exactly
// the frames the window cuts (each under a fresh answer key, so no
// stored answer stands in for it).
func TestRecordsCountFromDirectory(t *testing.T) {
	path := writeMemoTrace(t, t.TempDir(), 3000, nil)
	f, err := interval.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := f.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	frames, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	var backends []shard.Backend
	var svcs []*tracesvc.Service
	for i := 0; i < 2; i++ {
		svc := tracesvc.New(tracesvc.Config{})
		svc.SetReady()
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(func() { ts.Close(); svc.Close() })
		svcs = append(svcs, svc)
		backends = append(backends, shard.Backend{Name: fmt.Sprintf("b%d", i), URL: ts.URL})
	}
	rt, err := shard.NewRouter(shard.Config{Backends: backends, SplitFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { router.Close(); rt.Close() })
	resp, err := http.Post(router.URL+"/v1/traces", "application/json", strings.NewReader(fmt.Sprintf(`{"path":%q}`, path)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("router open: %d", resp.StatusCode)
	}

	count := func(body []byte) int {
		t.Helper()
		var c tracesvc.RecordCount
		if err := json.Unmarshal(body, &c); err != nil {
			t.Fatalf("count body %q: %v", body, err)
		}
		return c.Count
	}
	rng := xrand.New(31)
	for trial := 0; trial < 4; trial++ {
		for _, window := range memoWindows(t, rng, frames) {
			lo, hi := clock.Time(-1<<63), clock.Time(1<<63-1)
			query := "/records?count=1"
			if window != "" {
				if lo, hi, err = clock.ParseWindow(window); err != nil {
					t.Fatal(err)
				}
				query += "&window=" + window
			}
			want, cut := 0, 0
			for _, r := range recs {
				if r.End() >= lo && r.Start <= hi {
					want++
				}
			}
			for _, fe := range frames {
				if fe.End >= lo && fe.Start <= hi && (fe.Start < lo || fe.End > hi) {
					cut++
				}
			}

			s := tracesvc.New(tracesvc.Config{})
			id := openTrace(t, s, path)
			tr, _ := s.Registry().Resolve(id)
			for ask, decoded := range []int{cut, 2 * cut, 3 * cut} {
				w := do(t, s, "GET", fresh(s, "/v1/traces/"+id+query), "")
				if w.Code != http.StatusOK || count(w.Body.Bytes()) != want {
					t.Fatalf("window %q, asking %d: %d %s, a full scan counts %d", window, ask+1, w.Code, w.Body, want)
				}
				if got := tr.File().DecodedFrames(); got != int64(decoded) {
					t.Fatalf("window %q: after asking %d the count decoded %d frames, want %d (the window cuts %d)", window, ask+1, got, decoded, cut)
				}
			}
			s.Close()

			resp, err := http.Get(router.URL + "/v1/traces/t1" + query)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK || count(body) != want {
				t.Fatalf("window %q through the router: %d %s, a full scan counts %d", window, resp.StatusCode, body, want)
			}
		}
	}
	legs := int64(0)
	for _, svc := range svcs {
		legs += metricValue(t, svc, "tracesvc_range_queries_total")
	}
	if legs == 0 {
		t.Fatal("the router never split a count into frames=lo:hi legs")
	}
}

// TestRecordsCountTouchesNoMemo: a /records?count=1 whose window cuts
// frames reads each cut frame itself. With every frame's stats partial
// stored beforehand, each asking leaves every per-frame memo counter and
// gauge as it was, moves the answer memo only by the count's own
// once-seen marker, and advances Registry.FramesDecoded by exactly the
// frames the window cuts.
func TestRecordsCountTouchesNoMemo(t *testing.T) {
	path := writeMemoTrace(t, t.TempDir(), 3000, nil)
	s := tracesvc.New(tracesvc.Config{})
	t.Cleanup(func() { s.Close() })
	id := openTrace(t, s, path)
	tr, err := s.Registry().Resolve(id)
	if err != nil {
		t.Fatal(err)
	}
	for ask := 0; ask < 2; ask++ {
		if w := do(t, s, "GET", "/v1/traces/"+id+"/stats?format=json", ""); w.Code != http.StatusOK {
			t.Fatalf("stats: %d %s", w.Code, w.Body)
		}
	}
	if cs := s.Cache().Stats(); cs.PartialsStored == 0 {
		t.Fatalf("no stats partial stored: %+v", cs)
	}
	frames := tr.Frames()
	rng := xrand.New(41)
	asked := 0
	for trial := 0; trial < 4; trial++ {
		for _, window := range memoWindows(t, rng, frames)[1:] {
			lo, hi, err := clock.ParseWindow(window)
			if err != nil {
				t.Fatal(err)
			}
			cut := 0
			for _, fe := range frames {
				if fe.End >= lo && fe.Start <= hi && (fe.Start < lo || fe.End > hi) {
					cut++
				}
			}
			if cut == 0 {
				continue
			}
			tracesvc.DropAnswers(s)
			before, reads := s.Cache().Stats(), s.Registry().FramesDecoded()
			if w := do(t, s, "GET", "/v1/traces/"+id+"/records?count=1&window="+window, ""); w.Code != http.StatusOK {
				t.Fatalf("window %q: %d %s", window, w.Code, w.Body)
			}
			want := before
			want.AnswersOnce++
			want.AnswerBytes += tracesvc.MemoEntryBytes
			if got := s.Cache().Stats(); got != want {
				t.Fatalf("window %q: the count moved the memo\n got %+v\nwant %+v", window, got, want)
			}
			if got := s.Registry().FramesDecoded() - reads; got != int64(cut) {
				t.Fatalf("window %q: the count read %d frames, the window cuts %d", window, got, cut)
			}
			asked++
		}
	}
	if asked == 0 {
		t.Fatal("no window cut a frame")
	}
}
