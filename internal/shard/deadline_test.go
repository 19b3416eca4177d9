package shard

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tracefw/internal/testutil"
	"tracefw/internal/tracesvc"
)

// TestRouterDeadline: a backend that stalls every query leg must not
// hold a routed request past the router's request deadline. The proxied
// stats query and the scatter-gathered records query both answer a
// clean 504 within the deadline plus slack — never a partial 200 — and
// once the fleet is shut no goroutine of the router, its legs or its
// backends outlives the run.
func TestRouterDeadline(t *testing.T) {
	before := runtime.NumGoroutine()
	path := writeTrace(t, t.TempDir(), 400)

	var stall atomic.Bool
	release := make(chan struct{})
	var svcs []*tracesvc.Service
	var servers []*httptest.Server
	var backends []Backend
	for i := 0; i < 2; i++ {
		svc := tracesvc.New(tracesvc.Config{})
		svc.SetReady()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if stall.Load() && strings.HasPrefix(r.URL.Path, "/v1/traces/") {
				// A stalled leg: no answer until the router gives up on it
				// (its request context ends) or the test is over.
				select {
				case <-r.Context().Done():
					return
				case <-release:
				}
			}
			svc.Handler().ServeHTTP(w, r)
		}))
		svcs = append(svcs, svc)
		servers = append(servers, ts)
		backends = append(backends, Backend{Name: fmt.Sprintf("b%d", i), URL: ts.URL})
	}

	const timeout = 200 * time.Millisecond
	rt, err := NewRouter(Config{Backends: backends, SplitFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	rt.timeout = timeout
	router := httptest.NewServer(rt.Handler())
	if got := post(t, router.URL, "/v1/traces", fmt.Sprintf(`{"path":%q}`, path)); got.status != http.StatusCreated {
		t.Fatalf("open: %d %s", got.status, got.body)
	}
	if te := rt.lookupTrace("t1"); len(te.segs) < 2 {
		t.Fatalf("trace not split: %+v", te.segs)
	}

	stall.Store(true)
	for _, q := range []string{
		"/v1/traces/t1/stats?bins=8",
		"/v1/traces/t1/stats?window=0.05:0.2&format=json",
		"/v1/traces/t1/records?limit=100000",
		"/v1/traces/t1/records?count=1",
		"/v1/traces/t1/preview.svg?view=preview&bins=8",
	} {
		t0 := time.Now()
		got := get(t, router.URL, q)
		if took := time.Since(t0); took > timeout+time.Second {
			t.Fatalf("%s: answered after %v, deadline %v", q, took, timeout)
		}
		if got.status != http.StatusGatewayTimeout || !strings.HasPrefix(string(got.body), "router: ") {
			t.Fatalf("%s with every leg stalled: %d %q, want a clean 504", q, got.status, got.body)
		}
	}
	stall.Store(false)
	if got := get(t, router.URL, "/v1/traces/t1/records?count=1"); got.status != http.StatusOK {
		t.Fatalf("after the stall: %d %s", got.status, got.body)
	}

	close(release)
	router.Close()
	rt.Close()
	for i, ts := range servers {
		ts.Close()
		svcs[i].Close()
	}
	testutil.SettleGoroutines(t, before)
}
