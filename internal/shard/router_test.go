package shard

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/profile"
	"tracefw/internal/tracesvc"
	"tracefw/internal/xrand"
)

// writeTrace writes a small valid interval file with many frames and
// directories (512 B frames, 4 frames per directory), so the router has
// real dir boundaries to split at.
func writeTrace(t testing.TB, dir string, n int) string {
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
	w, err := interval.NewWriter(fl, hdr, interval.WriterOptions{FrameBytes: 512, FramesPerDir: 4})
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

// fleet is one differential setup: a single-node reference service and
// a router over n backend services, all serving the same files.
type fleet struct {
	ref      *httptest.Server
	router   *Router
	routerTS *httptest.Server
	backends []*tracesvc.Service
	servers  []*httptest.Server
}

func newFleet(t testing.TB, n int, cfg Config) *fleet {
	t.Helper()
	f := &fleet{}
	refSvc := tracesvc.New(tracesvc.Config{})
	refSvc.SetReady()
	f.ref = httptest.NewServer(refSvc.Handler())
	t.Cleanup(func() { f.ref.Close(); refSvc.Close() })

	for i := 0; i < n; i++ {
		svc := tracesvc.New(tracesvc.Config{})
		svc.SetReady()
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(func() { ts.Close(); svc.Close() })
		f.backends = append(f.backends, svc)
		f.servers = append(f.servers, ts)
		cfg.Backends = append(cfg.Backends, Backend{Name: fmt.Sprintf("b%d", i), URL: ts.URL})
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.router = rt
	f.routerTS = httptest.NewServer(rt.Handler())
	t.Cleanup(func() { f.routerTS.Close(); rt.Close() })
	return f
}

type reply struct {
	status      int
	contentType string
	retryAfter  string
	body        []byte
}

func get(t testing.TB, base, pathQuery string) reply {
	t.Helper()
	r, err := tryGet(base, pathQuery)
	if err != nil {
		t.Fatalf("GET %s: %v", pathQuery, err)
	}
	return r
}

// tryGet is get for goroutines other than the test's own.
func tryGet(base, pathQuery string) (reply, error) {
	resp, err := http.Get(base + pathQuery)
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), body}, nil
}

func post(t testing.TB, base, pathQuery, body string) reply {
	t.Helper()
	resp, err := http.Post(base+pathQuery, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", pathQuery, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("POST %s: %v", pathQuery, err)
	}
	return reply{resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), b}
}

func compareReplies(t testing.TB, q string, ref, got reply) {
	t.Helper()
	if got.status != ref.status {
		t.Fatalf("%s: status %d, single-node %d\nrouter body: %s\nreference:   %s", q, got.status, ref.status, got.body, ref.body)
	}
	if got.contentType != ref.contentType {
		t.Fatalf("%s: content type %q, single-node %q", q, got.contentType, ref.contentType)
	}
	if got.retryAfter != ref.retryAfter {
		t.Fatalf("%s: Retry-After %q, single-node %q", q, got.retryAfter, ref.retryAfter)
	}
	if !bytes.Equal(got.body, ref.body) {
		t.Fatalf("%s: body diverges from single-node (%d vs %d bytes)\nrouter:    %.300s\nreference: %.300s", q, len(got.body), len(ref.body), got.body, ref.body)
	}
}

// differentialQueries covers every read endpoint — metadata, stats TSV
// and JSON, time-resolved tables, records in every paging/window/count
// shape, preview SVGs — plus the error paths, whose bodies must also
// match byte for byte.
func differentialQueries(id string) []string {
	p := "/v1/traces/" + id
	return []string{
		"/v1/traces",
		p,
		p + "/frames",
		p + "/stats",
		p + "/stats?bins=8",
		p + "/stats?window=0.05:0.2",
		p + "/stats?window=:0.1",
		p + "/stats?format=json&bins=4",
		p + "/stats?timeresolved=1&bins=6",
		p + "/stats?timeresolved=1&bins=6&window=0.1:",
		// Programs coded over the run's string dictionary.
		p + "/stats?format=json&expr=" + url.QueryEscape(`table name=m x=("m", markername) y=("n", dura, count)`),
		p + "/stats?expr=" + url.QueryEscape(`table name=c x=("c", markername + "/" + state) y=("n", dura, count)`),
		p + "/records",
		p + "/records?count=1",
		p + "/records?limit=25&offset=10",
		p + "/records?limit=7&offset=193",
		p + "/records?window=0.02:0.2",
		p + "/records?window=:0.1&count=1",
		p + "/records?window=0.3:&limit=5000",
		p + "/records?limit=100000",
		p + "/records?offset=99999",
		// offset+limit overflows: each leg's limit must saturate.
		p + "/records?offset=1&limit=9223372036854775807",
		p + "/records?frames=0:5",
		p + "/records?frames=0:5&count=1",
		p + "/preview.svg",
		p + "/preview.svg?view=merged",
		p + "/preview.svg?view=preview&bins=8",
		p + "/preview.svg?view=preview&bins=8&window=0.05:0.25",
		p + "/preview.svg?window=0.1:0.3&connected=1",
		// Error paths: 404s and 400s must render the canonical bodies.
		"/v1/traces/t9",
		"/v1/traces/t9/records",
		p + "/records?limit=0",
		p + "/records?limit=junk",
		p + "/records?offset=-1",
		p + "/records?window=zzz",
		p + "/records?frames=9:1",
		p + "/records?frames=bogus",
		p + "/stats?bins=0",
		p + "/stats?window=junk",
		p + "/preview.svg?view=bogus",
	}
}

// openBoth opens the same path on the reference and the router and
// checks the create responses already agree byte for byte.
func openBoth(t testing.TB, f *fleet, path string) string {
	t.Helper()
	body := fmt.Sprintf(`{"path":%q}`, path)
	ref := post(t, f.ref.URL, "/v1/traces", body)
	got := post(t, f.routerTS.URL, "/v1/traces", body)
	if ref.status != http.StatusCreated {
		t.Fatalf("reference open: %d %s", ref.status, ref.body)
	}
	compareReplies(t, "POST /v1/traces", ref, got)
	return "t1"
}

// TestRouterByteIdentity is the differential acceptance test: every
// read endpoint, routed over two backends with the trace split into
// frame-range segments, answers byte-identically to one single node —
// bodies, status codes, content types.
func TestRouterByteIdentity(t *testing.T) {
	path := writeTrace(t, t.TempDir(), 400)
	// SplitFrames 8 forces the segment split; VNodes kept small only to
	// shrink ring build time in the test.
	f := newFleet(t, 2, Config{SplitFrames: 8})
	id := openBoth(t, f, path)

	// The split actually happened — otherwise this test would silently
	// degrade to proxying everything whole.
	te := f.router.lookupTrace(id)
	if len(te.segs) < 2 {
		t.Fatalf("trace not split: %+v", te.segs)
	}

	for _, q := range differentialQueries(id) {
		compareReplies(t, q, get(t, f.ref.URL, q), get(t, f.routerTS.URL, q))
	}

	// Open-response parity for a second trace, then DELETE parity, then
	// ID-sequence parity on reopen.
	path2 := writeTrace(t, t.TempDir(), 60)
	body := fmt.Sprintf(`{"path":%q}`, path2)
	compareReplies(t, "open second", post(t, f.ref.URL, "/v1/traces", body), post(t, f.routerTS.URL, "/v1/traces", body))
	compareReplies(t, "list after second open", get(t, f.ref.URL, "/v1/traces"), get(t, f.routerTS.URL, "/v1/traces"))

	delReq := func(base string) reply {
		req, _ := http.NewRequest("DELETE", base+"/v1/traces/t2", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return reply{resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), b}
	}
	compareReplies(t, "DELETE t2", delReq(f.ref.URL), delReq(f.routerTS.URL))
	compareReplies(t, "GET closed t2", get(t, f.ref.URL, "/v1/traces/t2"), get(t, f.routerTS.URL, "/v1/traces/t2"))
	compareReplies(t, "reopen after close", post(t, f.ref.URL, "/v1/traces", body), post(t, f.routerTS.URL, "/v1/traces", body))
}

// requestPlan matches the three fields of a JSON stats body that
// describe the request rather than the answer: how many frames it
// evaluated, how many per-frame partials it reused and how many frames
// it fetched. They change when a query is repeated (its partials get
// stored, then reused); the tables may not.
var requestPlan = regexp.MustCompile(`"(framesEvaluated|partialsReused|framesFetched)": \d+`)

func requestPlanless(body []byte) []byte {
	return requestPlan.ReplaceAll(body, []byte(`"$1": 0`))
}

// TestRouterByteIdentityConcurrent replays the read queries from many
// goroutines at once — the -race proof that the scatter-gather merge
// and the shared counters are clean under concurrent clients.
func TestRouterByteIdentityConcurrent(t *testing.T) {
	path := writeTrace(t, t.TempDir(), 400)
	f := newFleet(t, 2, Config{SplitFrames: 8})
	id := openBoth(t, f, path)

	queries := differentialQueries(id)
	refs := make(map[string]reply, len(queries))
	for _, q := range queries {
		refs[q] = get(t, f.ref.URL, q)
	}

	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := xrand.New(uint64(c) + 99)
			for i := 0; i < 40; i++ {
				q := queries[rng.Intn(len(queries))]
				got := get(t, f.routerTS.URL, q)
				ref := refs[q]
				if got.status != ref.status || !bytes.Equal(requestPlanless(got.body), requestPlanless(ref.body)) {
					t.Errorf("client %d: %s: diverged (status %d vs %d)", c, q, got.status, ref.status)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestRouterFailover kills one backend mid-run: legs preferring it must
// transparently retry on the survivor (every backend holds the whole
// file) and keep returning byte-identical responses.
func TestRouterFailover(t *testing.T) {
	path := writeTrace(t, t.TempDir(), 400)
	f := newFleet(t, 2, Config{SplitFrames: 8})
	id := openBoth(t, f, path)

	queries := []string{
		"/v1/traces/" + id + "/records?limit=100000",
		"/v1/traces/" + id + "/records?count=1",
		"/v1/traces/" + id + "/records?window=0.02:0.3",
		"/v1/traces/" + id + "/stats?bins=8",
		"/v1/traces/" + id + "/preview.svg?view=preview&bins=8",
	}
	refs := make([]reply, len(queries))
	for i, q := range queries {
		refs[i] = get(t, f.ref.URL, q)
	}

	// Kill backend 0 the hard way: drop its listener and connections.
	f.servers[0].CloseClientConnections()
	f.servers[0].Close()

	for i, q := range queries {
		compareReplies(t, q+" (after crash)", refs[i], get(t, f.routerTS.URL, q))
	}
	if f.router.met.retries.Value() == 0 {
		t.Fatal("failover happened without a single recorded retry")
	}
}

// TestRouterCleanErrorOnTotalFailure: when no backend can answer a leg,
// the router returns one clean 502 — never a truncated or partial 200.
func TestRouterCleanErrorOnTotalFailure(t *testing.T) {
	path := writeTrace(t, t.TempDir(), 400)
	f := newFleet(t, 2, Config{SplitFrames: 8})
	id := openBoth(t, f, path)

	for _, ts := range f.servers {
		ts.CloseClientConnections()
		ts.Close()
	}
	got := get(t, f.routerTS.URL, "/v1/traces/"+id+"/records?limit=100000")
	if got.status != http.StatusBadGateway {
		t.Fatalf("total backend failure: %d %s, want 502", got.status, got.body)
	}
	if !strings.Contains(string(got.body), "router:") {
		t.Fatalf("502 body is not the router's clean error: %s", got.body)
	}
	got = get(t, f.routerTS.URL, "/v1/traces/"+id+"/stats?bins=4")
	if got.status != http.StatusBadGateway {
		t.Fatalf("affinity query after total failure: %d, want 502", got.status)
	}
}

// TestRouterHedge wires a deliberately slow primary: the hedge fires,
// the fast replica answers, the bytes still match the reference, and
// the hedge counter moves.
func TestRouterHedge(t *testing.T) {
	path := writeTrace(t, t.TempDir(), 120)

	refSvc := tracesvc.New(tracesvc.Config{})
	refSvc.SetReady()
	ref := httptest.NewServer(refSvc.Handler())
	defer func() { ref.Close(); refSvc.Close() }()

	var slowName atomic.Value // backend name to slow down
	slowName.Store("")
	mkBackend := func(name string) (*tracesvc.Service, *httptest.Server) {
		svc := tracesvc.New(tracesvc.Config{})
		svc.SetReady()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if slowName.Load() == name && strings.HasPrefix(r.URL.Path, "/v1/traces/") {
				time.Sleep(300 * time.Millisecond)
			}
			svc.Handler().ServeHTTP(w, r)
		}))
		return svc, ts
	}
	s0, ts0 := mkBackend("b0")
	defer func() { ts0.Close(); s0.Close() }()
	s1, ts1 := mkBackend("b1")
	defer func() { ts1.Close(); s1.Close() }()

	rt, err := NewRouter(Config{
		Backends:    []Backend{{Name: "b0", URL: ts0.URL}, {Name: "b1", URL: ts1.URL}},
		SplitFrames: 1 << 30, // keep the trace whole: one owner, one hedge target
		HedgeAfter:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	defer func() { router.Close(); rt.Close() }()

	body := fmt.Sprintf(`{"path":%q}`, path)
	refOpen := post(t, ref.URL, "/v1/traces", body)
	gotOpen := post(t, router.URL, "/v1/traces", body)
	compareReplies(t, "open", refOpen, gotOpen)

	// Slow down whichever backend owns the trace, so the primary leg
	// stalls and the hedge must win.
	te := rt.lookupTrace("t1")
	slowName.Store(rt.backends[te.segs[0].owner].name)

	q := "/v1/traces/t1/records?limit=100000"
	refR := get(t, ref.URL, q)
	gotR := get(t, router.URL, q)
	compareReplies(t, q+" (hedged)", refR, gotR)
	if rt.met.hedges.Value() == 0 {
		t.Fatal("slow primary never triggered a hedge")
	}
}
