package load

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/profile"
	"tracefw/internal/tracesvc"
	"tracefw/internal/xrand"
)

// writeTrace writes a small valid interval file (512 B frames, 4
// frames per directory) the load generator can query.
func writeTrace(t testing.TB, dir string, n int) string {
	t.Helper()
	rng := xrand.New(7)
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
		},
	}
	path := filepath.Join(dir, "load.ute")
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

// TestRunAgainstService drives a full cold+warm run against a real
// tracesvc and checks the report's accounting: request counts add up,
// nothing errors, percentiles are ordered, and the backend cache scrape
// shows warm-phase hits (the warm phase replays windows the cold pass
// already decoded).
func TestRunAgainstService(t *testing.T) {
	svc := tracesvc.New(tracesvc.Config{})
	svc.SetReady()
	ts := httptest.NewServer(svc.Handler())
	defer func() { ts.Close(); svc.Close() }()

	path := writeTrace(t, t.TempDir(), 300)
	if _, err := svc.Registry().Open(path); err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		BaseURL:     ts.URL,
		BackendURLs: []string{ts.URL},
		Clients:     3,
		Requests:    60,
		Windows:     8,
		Seed:        42,
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Traces != 1 || rep.Clients != 3 {
		t.Fatalf("report header wrong: %+v", rep)
	}
	// Cold pass: every (trace, window) pair exactly once.
	if rep.Cold.Requests != 8 {
		t.Fatalf("cold requests = %d, want 8", rep.Cold.Requests)
	}
	if rep.Warm.Requests != 60 {
		t.Fatalf("warm requests = %d, want 60", rep.Warm.Requests)
	}
	if rep.Cold.Errors != 0 || rep.Warm.Errors != 0 {
		t.Fatalf("errors in report: cold=%d warm=%d", rep.Cold.Errors, rep.Warm.Errors)
	}
	for _, p := range []Phase{rep.Cold, rep.Warm} {
		if p.QPS <= 0 || p.P50Ms <= 0 || p.P50Ms > p.P95Ms || p.P95Ms > p.P99Ms || p.P99Ms > p.MaxMs {
			t.Fatalf("phase percentiles not ordered: %+v", p)
		}
	}
	if len(rep.Backends) != 1 {
		t.Fatalf("backend scrape missing: %+v", rep.Backends)
	}
	bc := rep.Backends[0]
	if bc.FramesDecoded < 0 || bc.FramesPerRequest != float64(bc.FramesDecoded)/float64(rep.Warm.Requests) {
		t.Fatalf("warm phase frames decoded per request: %+v", bc)
	}
	// The warm phase re-asks the cold pass's windows: from a query's
	// third asking its whole answer is a hit.
	if bc.AnswerHits <= 0 || bc.Answers < bc.AnswerHits || bc.AnswerHitRatio != float64(bc.AnswerHits)/float64(bc.Answers) {
		t.Fatalf("warm phase answer memo: %+v", bc)
	}
}

// TestRunReproducible: same seed, same request sequence — the two runs
// must agree on everything but timing.
func TestRunReproducible(t *testing.T) {
	svc := tracesvc.New(tracesvc.Config{})
	svc.SetReady()
	ts := httptest.NewServer(svc.Handler())
	defer func() { ts.Close(); svc.Close() }()
	path := writeTrace(t, t.TempDir(), 200)
	if _, err := svc.Registry().Open(path); err != nil {
		t.Fatal(err)
	}

	cfg := Config{BaseURL: ts.URL, Clients: 2, Requests: 30, Windows: 4, Seed: 9}
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cold.Requests != b.Cold.Requests || a.Warm.Requests != b.Warm.Requests ||
		a.Cold.Errors != b.Cold.Errors || a.Warm.Errors != b.Warm.Errors {
		t.Fatalf("runs with the same seed disagree: %+v vs %+v", a, b)
	}
}

// TestRunNoTraces: an empty service is a usage error, not a panic.
func TestRunNoTraces(t *testing.T) {
	svc := tracesvc.New(tracesvc.Config{})
	svc.SetReady()
	ts := httptest.NewServer(svc.Handler())
	defer func() { ts.Close(); svc.Close() }()
	_, err := Run(context.Background(), Config{BaseURL: ts.URL})
	if err == nil || !strings.Contains(err.Error(), "no traces") {
		t.Fatalf("want 'no traces' error, got %v", err)
	}
}

// TestZipfSkew: low ranks must be sampled more often than high ranks.
func TestZipfSkew(t *testing.T) {
	z := newZipf(10, 1.1)
	rng := xrand.New(1)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[z.rank(rng.Float64())]++
	}
	if counts[0] <= counts[9]*2 {
		t.Fatalf("zipf not skewed: %v", counts)
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != 10000 {
		t.Fatalf("samples lost: %v", counts)
	}
}

// stallServer lists one trace and answers every other request at once,
// except that every every-th request holds the whole server for stall —
// all requests pass one lock, as behind a stop-the-world pause.
func stallServer(t *testing.T, every int, stall time.Duration) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	n := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/traces" {
			json.NewEncoder(w).Encode(tracesvc.TraceList{Traces: []tracesvc.TraceInfo{{ID: "t1", EndSec: 1}}})
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if n++; n%every == 0 {
			time.Sleep(stall)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestOpenLoopShowsStalls: against a server that stalls for 40 ms on
// every 200th request, a closed-loop client sends nothing while it
// waits, so only the 2 stalled requests of 400 are slow and the p99 hides
// the stalls; the open-loop schedule keeps arriving (1000/s) during
// them, each arrival's latency runs from its intended send time, and
// the ~40 requests queued behind each stall put the p99 near the stall's
// length. The unbounded run's in-flight cap is its request count, so no
// arrival can find it reached however slowly a loaded host answers; with
// the cap below those ~40, the arrivals that find it reached are dropped
// and counted.
func TestOpenLoopShowsStalls(t *testing.T) {
	const stall = 40 * time.Millisecond
	half := float64(stall/2) / float64(time.Millisecond)
	run := func(cfg Config) Phase {
		t.Helper()
		cfg.BaseURL = stallServer(t, 200, stall).URL
		cfg.Requests, cfg.Windows, cfg.Seed = 400, 1, 5
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Warm.Requests != 400 || rep.Warm.Errors != 0 {
			t.Fatalf("warm phase: %+v", rep.Warm)
		}
		return rep.Warm
	}
	closed := run(Config{Clients: 1})
	if closed.P99Ms >= half || closed.MaxMs < half || closed.Dropped != 0 {
		t.Fatalf("closed loop: p99 %.2f ms, max %.2f ms, %d dropped; want the stalls in the max alone", closed.P99Ms, closed.MaxMs, closed.Dropped)
	}
	open := run(Config{Clients: 400, Rate: 1000})
	if open.P99Ms < half || open.Dropped != 0 {
		t.Fatalf("open loop: p99 %.2f ms, %d dropped; want the queueing behind the stalls in the p99 (closed loop: %.2f ms)", open.P99Ms, open.Dropped, closed.P99Ms)
	}
	capped := run(Config{Clients: 4, Rate: 1000})
	if capped.Dropped == 0 || capped.Dropped >= capped.Requests {
		t.Fatalf("open loop capped at 4 in flight: %d of %d arrivals dropped", capped.Dropped, capped.Requests)
	}
	t.Logf("p99: closed %.2f ms, open %.2f ms; capped at 4: %d dropped", closed.P99Ms, open.P99Ms, capped.Dropped)
}
