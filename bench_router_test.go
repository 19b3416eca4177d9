package tracefw

// Benchmarks for the horizontal serving tier (internal/shard): the
// router's scatter-gather window path, and the memo-capacity scaling
// argument behind running N backends at all. On a single-CPU machine
// adding backends cannot add compute, but it does add memo capacity: the
// router splits a trace's frame ranges across the fleet and sends each
// window's aggregations to one owner, so each backend's share of the
// stored answers and partials shrinks with N. When one backend's memo
// cannot hold a lap's working set, a fleet whose combined memo can turns
// every warm query from a recomputation back into a lookup.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"

	"tracefw/internal/interval"
	"tracefw/internal/load"
	"tracefw/internal/shard"
	"tracefw/internal/tracesvc"
)

// routerFleet is an in-process serving tier: n tracesvc backends behind
// real HTTP listeners and a router splitting every trace across them.
type routerFleet struct {
	router   *shard.Router
	backends []*tracesvc.Service
	id       string
	windows  []string
}

// benchRouterFleet builds a fleet whose per-backend memo budget is
// cacheBytes (0 = default 256 MiB) over one trace of n records, split
// across the backends from the first frame directory on.
func benchRouterFleet(b *testing.B, nBackends int, cacheBytes int64, n int) *routerFleet {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.ute")
	writeIntervalFile(b, path, interval.CurrentHeaderVersion, n)

	f := &routerFleet{}
	var bs []shard.Backend
	for i := 0; i < nBackends; i++ {
		svc := tracesvc.New(tracesvc.Config{CacheBytes: cacheBytes, CacheShards: 1})
		svc.SetReady()
		ts := httptest.NewServer(svc.Handler())
		b.Cleanup(func() { ts.Close(); svc.Close() })
		f.backends = append(f.backends, svc)
		bs = append(bs, shard.Backend{Name: fmt.Sprintf("b%d", i), URL: ts.URL})
	}
	rt, err := shard.NewRouter(shard.Config{Backends: bs, SplitFrames: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	f.router = rt
	info, err := rt.OpenTrace(context.Background(), path)
	if err != nil {
		b.Fatal(err)
	}
	f.id = info.ID

	// Eight windows tiling the whole run: cycling through them sweeps
	// every frame, which is the memo's worst case when it cannot hold a
	// lap's working set and its best case when it can.
	const nw = 8
	span := float64(info.EndNs-info.StartNs) / 1e9
	lo := float64(info.StartNs) / 1e9
	for i := 0; i < nw; i++ {
		f.windows = append(f.windows, fmt.Sprintf("%.9f:%.9f",
			lo+span*float64(i)/nw, lo+span*float64(i+1)/nw))
	}
	return f
}

// query counts the records of window i (modulo the windows) through
// the router.
func (f *routerFleet) query(b *testing.B, i int) {
	f.get(b, fmt.Sprintf("/v1/traces/%s/records?window=%s&count=1", f.id, f.windows[i%len(f.windows)]))
}

// lapQuery is request i of the lap cycle: the predefined stats tables
// (even i) and a record count (odd i) of each window in turn.
func (f *routerFleet) lapQuery(b *testing.B, i int) {
	if i%2 == 1 {
		f.query(b, i/2)
		return
	}
	f.get(b, fmt.Sprintf("/v1/traces/%s/stats?bins=16&window=%s", f.id, f.windows[i/2%len(f.windows)]))
}

func (f *routerFleet) get(b *testing.B, url string) {
	b.Helper()
	w := httptest.NewRecorder()
	f.router.Handler().ServeHTTP(w, httptest.NewRequest("GET", url, nil))
	if w.Code != http.StatusOK {
		b.Fatalf("GET %s: %d %s", url, w.Code, w.Body)
	}
}

// memoStats sums the backends' memo counters.
func (f *routerFleet) memoStats() (sum tracesvc.CacheStats) {
	for _, svc := range f.backends {
		st := svc.Cache().Stats()
		sum.PartialHits += st.PartialHits
		sum.PartialMisses += st.PartialMisses
		sum.PartialBytes += st.PartialBytes
		sum.AnswerHits += st.AnswerHits
		sum.AnswersOnce += st.AnswersOnce
		sum.AnswersStored += st.AnswersStored
		sum.AnswerBytes += st.AnswerBytes
	}
	return sum
}

// BenchmarkRouterWindow measures one warm scatter-gathered window count
// through the router over two backends — the serving tier's hot path:
// two HTTP legs, frame-order merge, JSON encode.
func BenchmarkRouterWindow(b *testing.B) {
	f := benchRouterFleet(b, 2, 0, 20000)
	f.query(b, 0) // warm both segment caches for window 0
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.query(b, 0)
	}
}

// BenchmarkUteloadSmoke drives the load generator end to end against a
// two-backend router fleet: one op is a complete uteload run (trace
// discovery, cold pass over every window, measured warm phase, backend
// cache scrape). It exists for `make ci`'s one-iteration smoke — it
// catches bit-rot anywhere in the serving tier's client-visible surface
// without paying for a measurement run.
func BenchmarkUteloadSmoke(b *testing.B) {
	f := benchRouterFleet(b, 2, 0, 4000)
	ts := httptest.NewServer(f.router.Handler())
	defer ts.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := load.Run(context.Background(), load.Config{
			BaseURL: ts.URL, Clients: 2, Requests: 16, Windows: 4, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Cold.Errors+rep.Warm.Errors > 0 {
			b.Fatalf("load run errored: %+v", rep)
		}
	}
}

// BenchmarkRouterScaling is the capacity argument measured: the same lap
// — the predefined stats tables and a record count over each of eight
// windows tiling the run — against 1, 2 and 4 backends whose per-backend
// memo budget holds ~60% of one lap's stored answers and partials. The
// router sends a window's stats whole to the backend owning its midpoint
// and each count leg to the backend owning its frames, so a backend's
// share of the working set shrinks with N. One backend evicts on every
// lap (a cyclic sweep is LRU's worst case) and recomputes every query;
// two or more hold their shares and answer from the memo. The answer and
// partial hit ratios are printed per op so the mechanism is visible next
// to the time.
func BenchmarkRouterScaling(b *testing.B) {
	const records = 20000
	// Probe a lap's working set with an uncapped single backend: two laps
	// store every answer and partial.
	probe := benchRouterFleet(b, 1, 0, records)
	lap := 2 * len(probe.windows)
	for i := 0; i < 2*lap; i++ {
		probe.lapQuery(b, i)
	}
	ps := probe.memoStats()
	working := ps.AnswerBytes + ps.PartialBytes
	if ps.AnswersStored == 0 || ps.PartialBytes == 0 {
		b.Fatalf("probe stored nothing: %+v", ps)
	}
	perBackend := working * 6 / 10

	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("backends-%d", n), func(b *testing.B) {
			f := benchRouterFleet(b, n, perBackend, records)
			for i := 0; i < 2*lap; i++ { // two warm laps
				f.lapQuery(b, i)
			}
			s0 := f.memoStats()
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.lapQuery(b, i)
			}
			b.StopTimer()
			s1 := f.memoStats()
			hits, asked := s1.AnswerHits-s0.AnswerHits, s1.AnswerHits+s1.AnswersOnce+s1.AnswersStored-s0.AnswerHits-s0.AnswersOnce-s0.AnswersStored
			if asked > 0 {
				b.ReportMetric(float64(hits)/float64(asked), "answer-hitratio")
			}
			hits, asked = s1.PartialHits-s0.PartialHits, s1.PartialHits+s1.PartialMisses-s0.PartialHits-s0.PartialMisses
			if asked > 0 {
				b.ReportMetric(float64(hits)/float64(asked), "partial-hitratio")
			}
		})
	}
}
