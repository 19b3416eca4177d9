package shard

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tracefw/internal/testutil"
	"tracefw/internal/tracesvc"
)

// Ways the victim backend fails a query leg.
const (
	victimHealthy  int32 = iota
	victimReset          // drops the connection before answering
	victimTruncate       // sends the headers and half the body, then drops it
	victimHold           // holds the leg until the backend is killed, then drops it
)

// TestRouterBackendKilledMidScatter is the invariant harness for one
// fault, a backend lost while scatter-gather legs are in flight, over two
// backends with the trace split into segments: every /records and count
// response is either byte-identical to a healthy single node's answer (the
// router failed over) or a clean 502/504 within the deadline — never a
// truncated 200 — and once the fleet is shut no goroutine outlives the
// run. The victim fails its legs three ways: a reset connection, a body
// cut off mid-way, and the whole backend killed while it holds legs.
func TestRouterBackendKilledMidScatter(t *testing.T) {
	before := runtime.NumGoroutine()
	path := writeTrace(t, t.TempDir(), 400)

	refSvc := tracesvc.New(tracesvc.Config{})
	refSvc.SetReady()
	ref := httptest.NewServer(refSvc.Handler())

	var mode atomic.Int32
	var holding atomic.Int32
	killed := make(chan struct{})
	var svcs []*tracesvc.Service
	var servers []*httptest.Server
	var backends []Backend
	for i := 0; i < 2; i++ {
		svc := tracesvc.New(tracesvc.Config{})
		svc.SetReady()
		victim := i == 0
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !victim || !strings.HasPrefix(r.URL.Path, "/v1/traces/") {
				svc.Handler().ServeHTTP(w, r)
				return
			}
			switch mode.Load() {
			case victimReset:
				dropConn(t, w, nil)
			case victimTruncate:
				rec := httptest.NewRecorder()
				svc.Handler().ServeHTTP(rec, r)
				body := rec.Body.Bytes()
				var head bytes.Buffer
				fmt.Fprintf(&head, "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
					rec.Code, http.StatusText(rec.Code), rec.Header().Get("Content-Type"), len(body))
				dropConn(t, w, append(head.Bytes(), body[:len(body)/2]...))
			case victimHold:
				holding.Add(1)
				select {
				case <-r.Context().Done():
				case <-killed:
					dropConn(t, w, nil)
				}
			default:
				svc.Handler().ServeHTTP(w, r)
			}
		}))
		svcs = append(svcs, svc)
		servers = append(servers, ts)
		backends = append(backends, Backend{Name: fmt.Sprintf("b%d", i), URL: ts.URL})
	}

	const timeout = 2 * time.Second
	rt, err := NewRouter(Config{Backends: backends, SplitFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	rt.timeout = timeout
	router := httptest.NewServer(rt.Handler())
	open := fmt.Sprintf(`{"path":%q}`, path)
	if got := post(t, ref.URL, "/v1/traces", open); got.status != http.StatusCreated {
		t.Fatalf("reference open: %d %s", got.status, got.body)
	}
	if got := post(t, router.URL, "/v1/traces", open); got.status != http.StatusCreated {
		t.Fatalf("router open: %d %s", got.status, got.body)
	}
	te := rt.lookupTrace("t1")
	owners := map[int]bool{}
	for _, s := range te.segs {
		owners[s.owner] = true
	}
	if len(te.segs) < 2 || !owners[0] || !owners[1] {
		t.Fatalf("the victim must own some segments and the survivor others: %+v", te.segs)
	}

	queries := []string{
		"/v1/traces/t1/records?limit=100000",
		"/v1/traces/t1/records?limit=25&offset=10",
		"/v1/traces/t1/records?window=0.02:0.3",
		"/v1/traces/t1/records?window=0.3:&limit=5000",
		"/v1/traces/t1/records?count=1",
		"/v1/traces/t1/records?window=:0.1&count=1",
		// Routed whole to one backend rather than scattered.
		"/v1/traces/t1/records?frames=0:5",
		"/v1/traces/t1/stats?bins=8",
	}
	healthy := map[string]reply{}
	for _, q := range queries {
		healthy[q] = get(t, ref.URL, q)
		if healthy[q].status != http.StatusOK {
			t.Fatalf("%s: healthy answer %d %s", q, healthy[q].status, healthy[q].body)
		}
	}
	// check holds one response to the invariant.
	check := func(label, q string, got reply, took time.Duration) {
		t.Helper()
		if took > timeout+time.Second {
			t.Errorf("%s: %s answered after %v, deadline %v", label, q, took, timeout)
		}
		switch got.status {
		case http.StatusOK:
			if want := healthy[q]; got.contentType != want.contentType || !bytes.Equal(got.body, want.body) {
				t.Errorf("%s: %s: a 200 that is not the healthy answer (%d bytes, want %d)\n%.300s", label, q, len(got.body), len(want.body), got.body)
			}
		case http.StatusBadGateway, http.StatusGatewayTimeout:
			if !strings.HasPrefix(string(got.body), "router: ") {
				t.Errorf("%s: %s: %d without the router's clean error: %q", label, q, got.status, got.body)
			}
		default:
			t.Errorf("%s: %s: status %d %q", label, q, got.status, got.body)
		}
	}
	// round asks every query at once and checks each answer; during runs
	// while they are in flight.
	round := func(label string, during func()) {
		var wg sync.WaitGroup
		for _, q := range queries {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				t0 := time.Now()
				got, err := tryGet(router.URL, q)
				if err != nil {
					t.Errorf("%s: GET %s: %v", label, q, err)
					return
				}
				check(label, q, got, time.Since(t0))
			}(q)
		}
		if during != nil {
			during()
		}
		wg.Wait()
	}

	round("healthy", nil)
	retries := rt.met.retries.Value()
	for _, m := range []struct {
		name string
		mode int32
	}{{"reset", victimReset}, {"truncated", victimTruncate}} {
		mode.Store(m.mode)
		round(m.name, nil)
		if rt.met.retries.Value() == retries {
			t.Fatalf("%s: no leg failed over: the victim was never asked", m.name)
		}
		retries = rt.met.retries.Value()
	}

	mode.Store(victimHold)
	round("killed", func() {
		deadline := time.Now().Add(timeout)
		for holding.Load() == 0 {
			if time.Now().After(deadline) {
				t.Error("no leg reached the victim before the kill")
				break
			}
			time.Sleep(time.Millisecond)
		}
		// A killed process drops every connection at once, held legs and
		// any that reach it on the way down alike.
		mode.Store(victimReset)
		close(killed)
		servers[0].Close()
	})
	if rt.met.retries.Value() == retries {
		t.Fatal("no leg failed over when the victim was killed")
	}
	round("after the kill", nil)

	router.Close()
	rt.Close()
	for i, ts := range servers {
		ts.Close()
		svcs[i].Close()
	}
	ref.Close()
	refSvc.Close()
	testutil.SettleGoroutines(t, before)
}

// dropConn takes over the connection under w, writes raw to it and
// closes it: the peer sees the connection end mid-exchange.
func dropConn(t *testing.T, w http.ResponseWriter, raw []byte) {
	conn, buf, err := http.NewResponseController(w).Hijack()
	if err != nil {
		t.Errorf("hijack: %v", err)
		return
	}
	defer conn.Close()
	if len(raw) > 0 {
		buf.Write(raw)
		buf.Flush()
	}
}
