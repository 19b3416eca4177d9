package tracesvc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/profile"
	"tracefw/internal/render"
	"tracefw/internal/stats"
	"tracefw/internal/tracesvc"
	"tracefw/internal/xrand"
)

// writeTrace writes a small valid interval file and returns its path.
// Tiny frame/dir limits force many frames, so the cache has something
// to shard.
func writeTrace(t testing.TB, dir string, n int) string {
	t.Helper()
	return writeTraceSeals(t, dir, n, nil)
}

// writeTraceSeals is writeTrace reporting every directory seal to onSeal
// (nil for none): each SealInfo.Size is a prefix a live snapshot may open.
func writeTraceSeals(t testing.TB, dir string, n int, onSeal func(interval.SealInfo)) string {
	t.Helper()
	rng := xrand.New(42)
	recs := make([]interval.Record, n)
	end := clock.Time(0)
	for i := range recs {
		end += clock.Time(rng.Int63n(int64(clock.Millisecond)))
		recs[i] = interval.Record{
			Type:   events.EvMPISend,
			Bebits: profile.Complete,
			Start:  end - clock.Time(rng.Int63n(int64(clock.Microsecond))),
			CPU:    uint16(i % 4),
			Node:   uint16(i % 2),
			Thread: uint16(i % 3),
			Extra:  []uint64{uint64(i), 7, 0, 0, 0, 0},
		}
		recs[i].Dura = end - recs[i].Start
	}
	hdr := interval.Header{
		ProfileVersion: profile.StdVersion,
		HeaderVersion:  interval.CurrentHeaderVersion,
		FieldMask:      profile.MaskIndividual,
		Threads: []interval.ThreadEntry{
			{Task: 0, PID: 100, SysTID: 1, Node: 0, LTID: 0, Type: events.ThreadMPI},
			{Task: 1, PID: 101, SysTID: 2, Node: 1, LTID: 0, Type: events.ThreadMPI},
		},
	}
	path := filepath.Join(dir, "trace.ute")
	fl, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := interval.NewWriter(fl, hdr, interval.WriterOptions{FrameBytes: 512, FramesPerDir: 4, OnSeal: onSeal})
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

// do runs one request against the service handler.
func do(t testing.TB, s *tracesvc.Service, method, url string, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, url, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, url, nil)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

func openTrace(t testing.TB, s *tracesvc.Service, path string) string {
	t.Helper()
	w := do(t, s, "POST", "/v1/traces", fmt.Sprintf(`{"path":%q}`, path))
	if w.Code != http.StatusCreated {
		t.Fatalf("POST /v1/traces: %d %s", w.Code, w.Body)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	return info.ID
}

func TestServiceCRUD(t *testing.T) {
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	path := writeTrace(t, t.TempDir(), 300)
	id := openTrace(t, s, path)

	w := do(t, s, "GET", "/v1/traces", "")
	if w.Code != 200 || !strings.Contains(w.Body.String(), path) {
		t.Fatalf("list: %d %s", w.Code, w.Body)
	}
	w = do(t, s, "GET", "/v1/traces/"+id, "")
	var info struct {
		Records int64 `json:"records"`
		Frames  int   `json:"frames"`
		Dirs    int   `json:"dirs"`
	}
	if w.Code != 200 {
		t.Fatalf("get: %d %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Records != 300 || info.Frames < 4 || info.Dirs < 1 {
		t.Fatalf("metadata: %+v", info)
	}

	w = do(t, s, "GET", "/v1/traces/"+id+"/frames", "")
	var fr struct {
		Frames []struct {
			Records uint32 `json:"records"`
		} `json:"frames"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &fr); err != nil {
		t.Fatal(err)
	}
	var sum int
	for _, fe := range fr.Frames {
		sum += int(fe.Records)
	}
	if len(fr.Frames) != info.Frames || sum != 300 {
		t.Fatalf("frames endpoint: %d frames, %d records", len(fr.Frames), sum)
	}

	// Paged records: pages concatenate to the full set, count mode
	// agrees, and a windowed count matches a record-level oracle.
	var got int
	for off := 0; ; off += 100 {
		w = do(t, s, "GET", fmt.Sprintf("/v1/traces/%s/records?offset=%d&limit=100", id, off), "")
		var page struct {
			Total   int               `json:"total"`
			Records []json.RawMessage `json:"records"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		if page.Total != 300 {
			t.Fatalf("total %d, want 300", page.Total)
		}
		got += len(page.Records)
		if len(page.Records) == 0 {
			break
		}
	}
	if got != 300 {
		t.Fatalf("pages sum to %d records, want 300", got)
	}
	w = do(t, s, "GET", "/v1/traces/"+id+"/records?count=1", "")
	if !strings.Contains(w.Body.String(), `"count": 300`) {
		t.Fatalf("count mode: %s", w.Body)
	}
	// Page edges, including a limit so large that offset+limit wraps.
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"offset=0&limit=1", 1},
		{"offset=299&limit=100", 1},
		{"offset=300&limit=100", 0},
		{"offset=1&limit=9223372036854775807", 299},
		{"offset=9223372036854775807&limit=9223372036854775807", 0},
	} {
		page := recordsPage(t, s, "/v1/traces/"+id+"/records?"+tc.query)
		if page.Total != 300 || len(page.Records) != tc.want {
			t.Fatalf("records?%s: total %d, %d records on the page, want 300 and %d", tc.query, page.Total, len(page.Records), tc.want)
		}
	}

	// Bin-count edges: per-bin state is allocated up front, so a count
	// past the ceiling is refused before it can ask for gigabytes; the
	// ceiling itself is served.
	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/stats?timeresolved=1&bins=2000000000", 400},
		{fmt.Sprintf("/stats?bins=%d", stats.MaxBins+1), 400},
		{"/preview.svg?view=preview&bins=2000000000", 400},
		{fmt.Sprintf("/stats?timeresolved=1&bins=%d", stats.MaxBins), 200},
		{fmt.Sprintf("/stats?bins=%d", stats.MaxBins), 200},
	} {
		if w = do(t, s, "GET", "/v1/traces/"+id+tc.url, ""); w.Code != tc.code {
			t.Fatalf("GET %s: %d, want %d: %.200s", tc.url, w.Code, tc.code, w.Body)
		}
	}

	if w = do(t, s, "DELETE", "/v1/traces/"+id, ""); w.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", w.Code)
	}
	if w = do(t, s, "GET", "/v1/traces/"+id, ""); w.Code != http.StatusNotFound {
		t.Fatalf("get after delete: %d", w.Code)
	}
	if w = do(t, s, "DELETE", "/v1/traces/"+id, ""); w.Code != http.StatusNotFound {
		t.Fatalf("double delete: %d", w.Code)
	}
}

// TestStatsByteIdentical: the stats endpoint's body equals utestats's
// stdout — the same tables through the same TSV rendering and the same
// "# table" framing — windowed and unwindowed, predefined and explicit
// programs.
func TestStatsByteIdentical(t *testing.T) {
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	path := writeTrace(t, t.TempDir(), 400)
	id := openTrace(t, s, path)

	expect := func(program string, opts interval.MapOptions) string {
		f, err := interval.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		tables, err := stats.GenerateOpts(program, []*interval.File{f}, opts)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, tb := range tables {
			fmt.Fprintf(&b, "# table %s\n%s\n", tb.Name, tb.TSV())
		}
		return b.String()
	}

	w := do(t, s, "GET", "/v1/traces/"+id+"/stats", "")
	if w.Code != 200 {
		t.Fatalf("stats: %d %s", w.Code, w.Body)
	}
	if want := expect(stats.Predefined(50), interval.MapOptions{}); w.Body.String() != want {
		t.Fatalf("predefined stats differ from utestats output:\n--- got ---\n%s\n--- want ---\n%s", w.Body, want)
	}

	lo, hi, err := clock.ParseWindow("0.02:0.09")
	if err != nil {
		t.Fatal(err)
	}
	w = do(t, s, "GET", "/v1/traces/"+id+"/stats?window=0.02:0.09&bins=10", "")
	want := expect(stats.Predefined(10), interval.MapOptions{Window: true, Lo: lo, Hi: hi})
	if w.Body.String() != want {
		t.Fatal("windowed stats differ from utestats output")
	}

	prog := `table name=bynode x=("node", node) y=("n", dura, count)`
	w = do(t, s, "GET", "/v1/traces/"+id+"/stats?expr="+
		"table+name%3Dbynode+x%3D%28%22node%22%2C+node%29+y%3D%28%22n%22%2C+dura%2C+count%29", "")
	if w.Code != 200 {
		t.Fatalf("expr stats: %d %s", w.Code, w.Body)
	}
	if want := expect(prog, interval.MapOptions{}); w.Body.String() != want {
		t.Fatal("expr stats differ from utestats output")
	}
}

// TestPreviewByteIdentical: the preview endpoint's SVG equals uteview's
// for the same view and window, including the resolution of open-ended
// window sides to the run bounds.
func TestPreviewByteIdentical(t *testing.T) {
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	path := writeTrace(t, t.TempDir(), 400)
	id := openTrace(t, s, path)

	expect := func(view string, window string) string {
		f, err := interval.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		kind, err := render.ParseView(view)
		if err != nil {
			t.Fatal(err)
		}
		var opts render.Options
		if window != "" {
			lo, hi, err := clock.ParseWindow(window)
			if err != nil {
				t.Fatal(err)
			}
			fs, fe, _, err := f.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if lo == math.MinInt64 {
				lo = fs
			}
			if hi == math.MaxInt64 {
				hi = fe
			}
			if hi <= lo {
				hi = lo + 1
			}
			opts.T0, opts.T1 = lo, hi
		}
		d, err := render.BuildDiagram(f, kind, opts)
		if err != nil {
			t.Fatal(err)
		}
		return d.SVG()
	}

	for _, tc := range []struct{ view, window string }{
		{"", ""},
		{"processor-activity", "0.01:0.05"},
		{"thread-activity", ":0.08"},
	} {
		url := "/v1/traces/" + id + "/preview.svg?view=" + tc.view
		if tc.window != "" {
			url += "&window=" + tc.window
		}
		w := do(t, s, "GET", url, "")
		if w.Code != 200 {
			t.Fatalf("preview %+v: %d %s", tc, w.Code, w.Body)
		}
		if ct := w.Header().Get("Content-Type"); ct != "image/svg+xml" {
			t.Fatalf("preview content type %q", ct)
		}
		if w.Body.String() != expect(tc.view, tc.window) {
			t.Fatalf("preview %+v differs from uteview output", tc)
		}
	}
}

// TestWarmCacheDecodesNoFrames is the acceptance proof for the memo: a
// /stats reads frames only to compute its per-frame partials and keeps
// no frame. Its first asking decodes the window's frames, its second
// decodes them again and stores the whole frames' partials, and the
// third decodes only the frames the window cuts, whose partials are
// never memoized; a /records?count=1 after it reads the cut frames
// alone, in every asking. Each asking has a fresh answer key, so no
// stored answer stands in for them.
func TestWarmCacheDecodesNoFrames(t *testing.T) {
	path := writeTrace(t, t.TempDir(), 500)
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	id := openTrace(t, s, path)
	tr, _ := s.Registry().Resolve(id)
	lo, hi, err := clock.ParseWindow("0.05:0.2")
	if err != nil {
		t.Fatal(err)
	}
	cold, cut := int64(0), int64(0)
	for _, fe := range tr.Frames() {
		if fe.End >= lo && fe.Start <= hi {
			cold++
			if fe.Start < lo || fe.End > hi {
				cut++
			}
		}
	}
	if cut == 0 {
		t.Fatal("the window cuts no frame")
	}
	for ask, want := range []int64{cold, 2 * cold, 2*cold + cut} {
		if w := do(t, s, "GET", fresh(s, "/v1/traces/"+id+"/stats?window=0.05:0.2"), ""); w.Code != 200 {
			t.Fatalf("stats %d: %d %s", ask+1, w.Code, w.Body)
		}
		if got := tr.File().DecodedFrames(); got != want {
			t.Fatalf("after stats %d: %d frames decoded, want %d", ask+1, got, want)
		}
	}
	for ask, want := range []int64{2*cold + 2*cut, 2*cold + 3*cut, 2*cold + 4*cut} {
		if w := do(t, s, "GET", fresh(s, "/v1/traces/"+id+"/records?window=0.05:0.2&count=1"), ""); w.Code != 200 {
			t.Fatalf("count %d after stats: %d %s", ask+1, w.Code, w.Body)
		}
		if got := tr.File().DecodedFrames(); got != want {
			t.Fatalf("after count %d: %d frames decoded, want %d", ask+1, got, want)
		}
	}
}

// TestConcurrentQueriesWithClose hammers mixed endpoints from many
// goroutines while a DELETE lands mid-flight; run under -race. Requests
// racing the close may see 200, 404, or 503 — anything else fails.
func TestConcurrentQueriesWithClose(t *testing.T) {
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	dir := t.TempDir()
	path := writeTrace(t, dir, 600)
	keep := openTrace(t, s, path)
	doomed := openTrace(t, s, path)

	urls := []string{
		"/v1/traces/%s/records?window=0.01:0.1&count=1",
		"/v1/traces/%s/records?window=0.2:0.3&limit=50",
		"/v1/traces/%s/stats?window=0.05:0.25&bins=8",
		"/v1/traces/%s/preview.svg?window=0.1:0.2",
		"/v1/traces/%s/frames",
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		for _, id := range []string{keep, doomed} {
			wg.Add(1)
			go func(g int, id string) {
				defer wg.Done()
				<-start
				for i := 0; i < 10; i++ {
					u := fmt.Sprintf(urls[(g+i)%len(urls)], id)
					w := do(t, s, "GET", u, "")
					switch w.Code {
					case 200, 404, 503:
					default:
						t.Errorf("GET %s: %d %s", u, w.Code, w.Body)
					}
				}
			}(g, id)
		}
	}
	close(start)
	time.Sleep(time.Millisecond)
	if w := do(t, s, "DELETE", "/v1/traces/"+doomed, ""); w.Code != http.StatusNoContent {
		t.Errorf("delete: %d", w.Code)
	}
	wg.Wait()

	// The surviving trace still answers, byte-identically to before.
	if w := do(t, s, "GET", "/v1/traces/"+keep+"/records?count=1", ""); w.Code != 200 {
		t.Fatalf("survivor query: %d %s", w.Code, w.Body)
	}
}

// TestCacheEviction: a memo budget below one lap's answers and partials
// evicts — and tracesvc_cache_evictions_total counts it, stored values
// and once-seen keys alike — and stays under budget, while every answer,
// in every lap, stays byte-identical to a roomy service's.
func TestCacheEviction(t *testing.T) {
	const budget = 1 << 16
	path := writeTrace(t, t.TempDir(), 4000)
	var urls []string
	for i := 0; i < 16; i++ {
		window := fmt.Sprintf("%.2f:%.2f", 0.1*float64(i), 0.1*float64(i)+0.3)
		urls = append(urls, "/preview.svg?view=preview&bins=64&window="+window, "/stats?bins=16&window="+window)
	}
	roomy, small := tracesvc.New(tracesvc.Config{}), tracesvc.New(tracesvc.Config{CacheBytes: budget, CacheShards: 1})
	defer roomy.Close()
	defer small.Close()
	ids := []string{openTrace(t, roomy, path), openTrace(t, small, path)}
	want := map[string]string{}
	for lap := 0; lap < 2; lap++ {
		for _, u := range urls {
			// Asked twice in a row, so the second asking stores.
			for ask := 0; ask < 2; ask++ {
				for i, s := range []*tracesvc.Service{roomy, small} {
					w := do(t, s, "GET", "/v1/traces/"+ids[i]+u, "")
					if w.Code != 200 {
						t.Fatalf("lap %d, GET %s: %d %s", lap, u, w.Code, w.Body)
					}
					if _, ok := want[u]; !ok {
						want[u] = w.Body.String()
					} else if w.Body.String() != want[u] {
						t.Fatalf("lap %d, GET %s: the body differs from the first roomy answer", lap, u)
					}
				}
			}
		}
	}
	if rs := roomy.Cache().Stats(); rs.AnswerBytes+rs.PartialBytes <= budget || rs.Evictions != 0 {
		t.Fatalf("a lap stores %d answer and %d partial bytes with %d evictions; the test needs more than %d and none", rs.AnswerBytes, rs.PartialBytes, rs.Evictions, budget)
	}
	cs := small.Cache().Stats()
	if got := metricValue(t, small, "tracesvc_cache_evictions_total"); got == 0 || got != cs.Evictions {
		t.Fatalf("tracesvc_cache_evictions_total = %d (stats %d) under a %d-byte budget", got, cs.Evictions, budget)
	}
	if cs.AnswersStored == 0 || cs.PartialBytes+cs.AnswerBytes > budget {
		t.Fatalf("cache stored %d answers and holds %d partial and %d answer bytes, budget %d", cs.AnswersStored, cs.PartialBytes, cs.AnswerBytes, budget)
	}
}

// TestRequestTimeout: a request whose deadline has already passed
// surfaces as 504, routed through the map-reduce engine's context check.
// The service's own deadline, DefaultRequestTimeout, derives from the
// request's context, so an expired one is the unmeetable deadline.
func TestRequestTimeout(t *testing.T) {
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	path := writeTrace(t, t.TempDir(), 300)

	// Registration must not be subject to the request deadline's
	// map-reduce path: open directly.
	tr, err := s.Registry().Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, ep := range []string{"stats", "records"} {
		r := httptest.NewRequest("GET", "/v1/traces/"+tr.ID+"/"+ep, nil).WithContext(ctx)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s under an expired deadline: %d %s", ep, w.Code, w.Body)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	path := writeTrace(t, t.TempDir(), 300)
	id := openTrace(t, s, path)
	do(t, s, "GET", "/v1/traces/"+id+"/records?count=1", "")
	do(t, s, "GET", "/v1/traces/"+id+"/records?count=1", "")

	w := do(t, s, "GET", "/metrics", "")
	if w.Code != 200 {
		t.Fatalf("metrics: %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"tracesvc_cache_evictions_total ",
		"tracesvc_answers_bytes_resident ",
		"tracesvc_traces_open 1",
		"tracesvc_frames_decoded_total ",
		`tracesvc_requests_total{endpoint="records"} 2`,
		`tracesvc_request_seconds_bucket{endpoint="records",le="+Inf"} 2`,
		`tracesvc_request_seconds_count{endpoint="records"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics body lacks %q:\n%s", want, body)
		}
	}

	// Errors count: a 404 increments the error counter.
	do(t, s, "GET", "/v1/traces/nope", "")
	body = do(t, s, "GET", "/metrics", "").Body.String()
	if !strings.Contains(body, `tracesvc_request_errors_total{endpoint="get"} 1`) {
		t.Fatalf("404 not counted as an error:\n%s", body)
	}
}

// TestMetricsSeries pins every series a query-only daemon's /metrics
// exposes, by name and labels (a histogram's le aside) and in order.
func TestMetricsSeries(t *testing.T) {
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	want := []string{
		"tracesvc_cache_evictions_total",
		"tracesvc_traces_open",
		"tracesvc_frames_decoded_total",
		"tracesvc_stats_tables_total",
		"tracesvc_stats_records_skipped_total",
		"tracesvc_stats_frames_fetched_total",
		`tracesvc_stats_partials_total{result="hit"}`,
		`tracesvc_stats_partials_total{result="miss"}`,
		`tracesvc_stats_partials_total{result="stored"}`,
		"tracesvc_stats_partials_bytes_resident",
		`tracesvc_answers_total{result="hit"}`,
		`tracesvc_answers_total{result="once"}`,
		`tracesvc_answers_total{result="stored"}`,
		`tracesvc_answers_total{result="bypass"}`,
		"tracesvc_answers_bytes_resident",
		`tracesvc_summary_queries_total{engine="pyramid"}`,
		`tracesvc_summary_queries_total{engine="scan"}`,
		"tracesvc_summary_pyramid_cells_total",
		"tracesvc_summary_frames_decoded_total",
		"tracesvc_range_queries_total",
	}
	endpoints := []string{"close", "frames", "get", "ingest", "ingest-list", "ingest-status", "list", "metrics", "open", "preview", "records", "stats"}
	for _, family := range []string{"tracesvc_requests_total", "tracesvc_request_errors_total"} {
		for _, ep := range endpoints {
			want = append(want, fmt.Sprintf("%s{endpoint=%q}", family, ep))
		}
	}
	for _, ep := range endpoints {
		for _, series := range []string{"bucket", "sum", "count"} {
			want = append(want, fmt.Sprintf("tracesvc_request_seconds_%s{endpoint=%q}", series, ep))
		}
	}
	le := regexp.MustCompile(`,?le="[^"]*"`)
	var got []string
	for _, line := range strings.Split(do(t, s, "GET", "/metrics", "").Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series := le.ReplaceAllString(line[:strings.LastIndexByte(line, ' ')], "")
		if len(got) == 0 || got[len(got)-1] != series {
			got = append(got, series)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("/metrics series:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestBadRequests: malformed parameters map to 400, unknown IDs to 404.
func TestBadRequests(t *testing.T) {
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	path := writeTrace(t, t.TempDir(), 100)
	id := openTrace(t, s, path)

	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/v1/traces/zzz/stats", 404},
		{"/v1/traces/" + id + "/stats?window=bogus", 400},
		{"/v1/traces/" + id + "/stats?bins=-1", 400},
		{"/v1/traces/" + id + "/records?limit=0", 400},
		{"/v1/traces/" + id + "/records?offset=-2", 400},
		{"/v1/traces/" + id + "/preview.svg?view=nope", 400},
	} {
		if w := do(t, s, "GET", tc.url, ""); w.Code != tc.code {
			t.Errorf("GET %s: %d, want %d", tc.url, w.Code, tc.code)
		}
	}
	if w := do(t, s, "POST", "/v1/traces", `{"path":"/does/not/exist.ute"}`); w.Code != 400 {
		t.Errorf("open missing file: %d", w.Code)
	}
	if w := do(t, s, "POST", "/v1/traces", `{`); w.Code != 400 {
		t.Errorf("bad JSON: %d", w.Code)
	}
}

// TestStatsEngineAndJSON covers the stats endpoint's JSON format,
// time-resolved tables, programs over the string dictionary (markername
// and concatenation), and the stats counters on /metrics. No parameter
// picks an evaluator: there is one.
func TestStatsEngineAndJSON(t *testing.T) {
	s := tracesvc.New(tracesvc.Config{})
	defer s.Close()
	path := writeTrace(t, t.TempDir(), 400)
	id := openTrace(t, s, path)

	// engine= is not a parameter: whatever it says, the answer is the
	// default one.
	base := do(t, s, "GET", "/v1/traces/"+id+"/stats", "")
	if base.Code != 200 {
		t.Fatalf("stats: %d %s", base.Code, base.Body)
	}
	for _, e := range []string{"scalar", "columnar", "nope"} {
		w := do(t, s, "GET", fresh(s, "/v1/traces/"+id+"/stats?engine="+e), "")
		if w.Code != 200 || w.Body.String() != base.Body.String() {
			t.Fatalf("engine=%s is not ignored: %d", e, w.Code)
		}
	}

	// JSON format carries the excluded-record count and the group-by path,
	// and no evaluator flag.
	w := do(t, s, "GET", "/v1/traces/"+id+"/stats?format=json&expr="+
		"table+name%3Dt+y%3D%28%22n%22%2C+dura%2C+count%29", "")
	if w.Code != 200 {
		t.Fatalf("json stats: %d %s", w.Code, w.Body)
	}
	if strings.Contains(w.Body.String(), `"columnar"`) {
		t.Fatalf("json stats still carries an evaluator flag: %s", w.Body)
	}
	var got struct {
		Tables []struct {
			Name    string `json:"name"`
			Group   string `json:"group"`
			Skipped int64  `json:"skipped"`
			Rows    int    `json:"rows"`
			TSV     string `json:"tsv"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Tables) != 1 || got.Tables[0].Name != "t" || got.Tables[0].TSV == "" {
		t.Fatalf("unexpected json stats payload: %+v", got)
	}
	if tb := got.Tables[0]; tb.Group != "entry" {
		t.Fatalf("json stats table folded by %q, want entry", tb.Group)
	}
	if strings.Contains(w.Body.String(), `"exact"`) {
		t.Fatalf("json stats still counts exact y columns: %s", w.Body)
	}

	// Time-resolved tables: three of them, with the expected names.
	w = do(t, s, "GET", "/v1/traces/"+id+"/stats?timeresolved=1&bins=12&format=json", "")
	if w.Code != 200 {
		t.Fatalf("timeresolved: %d %s", w.Code, w.Body)
	}
	got.Tables = nil
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(got.Tables))
	for i, tb := range got.Tables {
		names[i] = tb.Name
	}
	if fmt.Sprint(names) != "[tr_busy_by_type tr_load_balance tr_concurrency]" {
		t.Fatalf("timeresolved tables = %v", names)
	}
	if strings.Contains(w.Body.String(), `"group"`) {
		t.Fatalf("time-resolved tables carry a group-by path: %s", w.Body)
	}
	if w := do(t, s, "GET", "/v1/traces/"+id+"/stats?timeresolved=1&expr=x", ""); w.Code != 400 {
		t.Fatalf("timeresolved with expr: %d", w.Code)
	}

	// markername and string concatenation answer like any other program.
	for _, prog := range []string{
		`table name=m x=("m", markername) y=("n", dura, count)`,
		`table name=c x=("c", state + "!") y=("n", dura, count)`,
	} {
		w = do(t, s, "GET", "/v1/traces/"+id+"/stats?format=json&expr="+url.QueryEscape(prog), "")
		got.Tables = nil
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil || w.Code != 200 {
			t.Fatalf("%s: %d %v %s", prog, w.Code, err, w.Body)
		}
		if len(got.Tables) != 1 || got.Tables[0].TSV == "" {
			t.Fatalf("%s: unexpected payload %+v", prog, got)
		}
	}

	// Four predefined answers of five tables, three time-resolved ones,
	// and three one-table programs; the 400 produced none.
	body := do(t, s, "GET", "/metrics", "").Body.String()
	for _, want := range []string{
		"tracesvc_stats_tables_total 26\n",
		"tracesvc_stats_records_skipped_total ",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics body lacks %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "columnar") || strings.Contains(body, "scalar") {
		t.Fatalf("metrics still split tables by evaluator:\n%s", body)
	}
}
