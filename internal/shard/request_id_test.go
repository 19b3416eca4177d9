package shard

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tracefw/internal/tracesvc"
)

// TestRequestID: the router keeps a client's X-Request-ID, sends it on
// every leg of a two-backend scatter and returns it; a request without
// one gets an ID the router mints — a different one each time, on its
// legs and its response alike — and a backend asked directly echoes the
// ID it received.
func TestRequestID(t *testing.T) {
	path := writeTrace(t, t.TempDir(), 400)
	var mu sync.Mutex
	seen := map[string][]int{} // request ID -> backends whose frames=lo:hi legs carried it
	var backends []Backend
	var direct string
	for i := 0; i < 2; i++ {
		svc := tracesvc.New(tracesvc.Config{})
		svc.SetReady()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Query().Get("frames") != "" {
				mu.Lock()
				id := r.Header.Get(tracesvc.RequestIDHeader)
				seen[id] = append(seen[id], i)
				mu.Unlock()
			}
			svc.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(func() { ts.Close(); svc.Close() })
		backends = append(backends, Backend{Name: fmt.Sprintf("b%d", i), URL: ts.URL})
		direct = ts.URL
	}
	rt, err := NewRouter(Config{Backends: backends, SplitFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { router.Close(); rt.Close() })
	if got := post(t, router.URL, "/v1/traces", fmt.Sprintf(`{"path":%q}`, path)); got.status != http.StatusCreated {
		t.Fatalf("open: %d %s", got.status, got.body)
	}
	if te := rt.lookupTrace("t1"); len(te.segs) != 2 {
		t.Fatalf("trace not split over both backends: %+v", te.segs)
	}

	ask := func(base, id string) string {
		t.Helper()
		req, err := http.NewRequest("GET", base+"/v1/traces/t1/records?count=1", nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set(tracesvc.RequestIDHeader, id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET with ID %q: %d", id, resp.StatusCode)
		}
		return resp.Header.Get(tracesvc.RequestIDHeader)
	}
	legs := func(id string) string {
		mu.Lock()
		defer mu.Unlock()
		return fmt.Sprint(seen[id])
	}

	if got := ask(router.URL, "client-7f3a"); got != "client-7f3a" {
		t.Fatalf("the router returned ID %q for the client's %q", got, "client-7f3a")
	}
	if got := legs("client-7f3a"); got != "[0 1]" && got != "[1 0]" {
		t.Fatalf("the client's ID reached the legs of backends %s, want both", got)
	}
	var minted []string
	for k := 0; k < 2; k++ {
		id := ask(router.URL, "")
		if id == "" {
			t.Fatal("a request without an ID got none back")
		}
		if got := legs(id); got != "[0 1]" && got != "[1 0]" {
			t.Fatalf("minted ID %q reached the legs of backends %s, want both", id, got)
		}
		minted = append(minted, id)
	}
	if minted[0] == minted[1] {
		t.Fatalf("the router minted %q twice", minted[0])
	}
	if long := strings.Repeat("x", maxRequestID+1); ask(router.URL, long) == long {
		t.Fatal("an overlong client ID was copied onto the legs")
	}
	if got := ask(direct, "direct-1"); got != "direct-1" {
		t.Fatalf("a backend echoed %q for ID %q", got, "direct-1")
	}
}
