package shard

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tracefw/internal/par"
	"tracefw/internal/tracesvc"
)

// Backend names one utetraced instance the router can route to.
type Backend struct {
	Name string // metrics label ("b0", an address, …)
	URL  string // base URL, e.g. "http://127.0.0.1:7464"
}

// Config tunes the router; zero values select the defaults.
type Config struct {
	Backends []Backend
	// SplitFrames is the frame count at which a single trace stops being
	// placed whole and is split into per-backend contiguous frame-range
	// segments at frame-directory boundaries (default 4096; traces below
	// it are owned by one backend chosen by the ring).
	SplitFrames int
}

const (
	// vnodes is the virtual-node count per backend on the hash ring.
	vnodes = 64
	// maxInflight bounds concurrent requests per backend; excess legs
	// queue on the router side instead of piling onto a saturated
	// backend.
	maxInflight = 32
	// healthInterval is the /readyz poll period.
	healthInterval = 500 * time.Millisecond
)

// segment is one contiguous frame-index range of a trace with its time
// bounds and preferred owner. Segments are routing assignments, not
// data partitions: the owner is where legs for the range go first (so
// its cache holds those frames), but any backend holding the trace can
// serve them.
type segment struct {
	lo, hi  int // frame range [lo, hi)
	startNs int64
	endNs   int64
	owner   int
}

// traceEntry is one trace the router has opened across the fleet.
type traceEntry struct {
	id       string // router-assigned ID ("t1", …)
	path     string
	info     tracesvc.TraceInfo // ID field already rewritten to the router's
	localIDs []string           // per backend index; "" = not open there
	segs     []segment
	nframes  int
}

type backendState struct {
	name string
	url  string
	sem  chan struct{}
	up   atomic.Bool
}

// Router is the front tier: it owns trace placement, scatter-gathers
// or affinity-routes each query, and merges partials so every response
// body is byte-identical to a single-node daemon's.
type Router struct {
	cfg      Config
	ring     *ring
	client   *http.Client
	met      *routerMetrics
	mux      *http.ServeMux
	backends []*backendState
	// timeout bounds every routed request — a backend's own deadline,
	// tracesvc.DefaultRequestTimeout: the proxy and scatter-gather legs
	// inherit it, and a request that outlives it is answered 504.
	timeout time.Duration

	mu     sync.RWMutex
	traces map[string]*traceEntry
	order  []*traceEntry
	nextID uint64

	// Minted request IDs are idPrefix, random per router, and a count.
	idPrefix string
	idSeq    atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewRouter builds a router over the configured backends. Call
// CheckBackends (or Start, which polls) before routing traffic.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.SplitFrames <= 0 {
		cfg.SplitFrames = 4096
	}
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("shard: no backends configured")
	}
	names := make([]string, len(cfg.Backends))
	rt := &Router{
		cfg:  cfg,
		ring: newRing(len(cfg.Backends), vnodes),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        len(cfg.Backends) * maxInflight,
			MaxIdleConnsPerHost: maxInflight,
			// Below the backends' own idle timeout: the router drops an
			// idle connection before a backend would.
			IdleConnTimeout: tracesvc.IdleTimeout / 2,
		}},
		mux:     http.NewServeMux(),
		timeout: tracesvc.DefaultRequestTimeout,
		traces:  make(map[string]*traceEntry),
		stop:    make(chan struct{}),
	}
	var seed [6]byte
	rand.Read(seed[:])
	rt.idPrefix = hex.EncodeToString(seed[:]) + "-"
	for i, b := range cfg.Backends {
		names[i] = b.Name
		if names[i] == "" {
			names[i] = b.URL
		}
		bs := &backendState{name: names[i], url: b.URL, sem: make(chan struct{}, maxInflight)}
		bs.up.Store(true) // optimistic until the first poll says otherwise
		rt.backends = append(rt.backends, bs)
	}
	rt.met = newRouterMetrics(names, rt.ring.size())

	rt.mux.HandleFunc("GET /v1/traces", rt.handleList)
	rt.mux.HandleFunc("POST /v1/traces", rt.routed(rt.handleOpen))
	rt.mux.HandleFunc("GET /v1/traces/{id}", rt.handleGet)
	rt.mux.HandleFunc("DELETE /v1/traces/{id}", rt.routed(rt.handleClose))
	rt.mux.HandleFunc("GET /v1/traces/{id}/frames", rt.routed(rt.windowed("frames")))
	rt.mux.HandleFunc("GET /v1/traces/{id}/stats", rt.routed(rt.windowed("stats")))
	rt.mux.HandleFunc("GET /v1/traces/{id}/records", rt.routed(rt.handleRecords))
	rt.mux.HandleFunc("GET /v1/traces/{id}/preview.svg", rt.routed(rt.windowed("preview")))
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	rt.mux.HandleFunc("GET /readyz", rt.handleReady)
	return rt, nil
}

// Handler returns the root handler. Every request carries an ID: the
// client's X-Request-ID when it sends a usable one, else one the router
// mints. The ID goes out on every backend leg the request starts and
// back to the client on the response.
func (rt *Router) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(tracesvc.RequestIDHeader)
		if id == "" || len(id) > maxRequestID {
			id = rt.idPrefix + strconv.FormatUint(rt.idSeq.Add(1), 10)
		}
		w.Header().Set(tracesvc.RequestIDHeader, id)
		rt.mux.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
	})
}

// requestIDKey is the context key of a routed request's ID.
type requestIDKey struct{}

// maxRequestID is the longest client request ID the router keeps; a
// longer one is replaced by a minted ID rather than copied onto every
// leg.
const maxRequestID = 128

// routed runs a handler that talks to backends under the request
// deadline, so every leg it starts inherits it.
func (rt *Router) routed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), rt.timeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// legsFailed is the status of a request whose backend legs failed: 504
// once its deadline has passed, 502 otherwise.
func legsFailed(ctx context.Context) int {
	if ctx.Err() != nil {
		return http.StatusGatewayTimeout
	}
	return http.StatusBadGateway
}

// Start launches the background health poller.
func (rt *Router) Start() {
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		t := time.NewTicker(healthInterval)
		defer t.Stop()
		for {
			select {
			case <-rt.stop:
				return
			case <-t.C:
				rt.CheckBackends(context.Background())
			}
		}
	}()
}

// Close stops the health poller and drops idle connections. It does not
// close traces on the backends — they outlive the router.
func (rt *Router) Close() {
	close(rt.stop)
	rt.wg.Wait()
	rt.client.CloseIdleConnections()
}

// CheckBackends polls every backend's /readyz once, synchronously, and
// updates the routable flags. Returns the number of ready backends.
func (rt *Router) CheckBackends(ctx context.Context) int {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	ready := 0
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *backendState) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, "GET", b.url+"/readyz", nil)
			if err != nil {
				b.up.Store(false)
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				b.up.Store(false)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ok := resp.StatusCode == http.StatusOK
			b.up.Store(ok)
			if ok {
				mu.Lock()
				ready++
				mu.Unlock()
			}
		}(b)
	}
	wg.Wait()
	return ready
}

func (rt *Router) handleReady(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	down := 0
	for _, b := range rt.backends {
		if !b.up.Load() {
			down++
		}
	}
	if down > 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "%d/%d backends not ready\n", down, len(rt.backends))
		return
	}
	w.Write([]byte("ready\n"))
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	up := make([]bool, len(rt.backends))
	for i, b := range rt.backends {
		up[i] = b.up.Load()
	}
	var buf bytes.Buffer
	rt.met.writePrometheus(&buf, up)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

// writeJSON marshals exactly like tracesvc's jsonResponse — indented,
// trailing newline — so rebuilt bodies match single-node bytes.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	w.Write(b)
}

// notFound renders the canonical tracesvc 404 body.
func notFound(w http.ResponseWriter, id string) {
	http.Error(w, fmt.Sprintf("no trace %q", id), http.StatusNotFound)
}

func (rt *Router) lookupTrace(id string) *traceEntry {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.traces[id]
}

// --- opening and placement ---------------------------------------------

// openError carries the status and body the open path should answer
// with — backend error bodies relay through it unchanged, so the
// router's open failures read exactly like a single node's.
type openError struct {
	status int
	msg    string
}

func (e *openError) Error() string { return e.msg }

func (rt *Router) handleOpen(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Path string `json:"path"`
	}
	// Replicate tracesvc's parse errors byte for byte.
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return
	}
	if req.Path == "" {
		http.Error(w, "missing \"path\"", http.StatusBadRequest)
		return
	}
	te, oerr := rt.open(r.Context(), req.Path)
	if oerr != nil {
		http.Error(w, oerr.msg, oerr.status)
		return
	}
	writeJSON(w, http.StatusCreated, te.info)
}

// OpenTrace opens path across the fleet and returns the router's view
// of it — the programmatic face of POST /v1/traces, used by uterouter
// to preload its command-line traces.
func (rt *Router) OpenTrace(ctx context.Context, path string) (tracesvc.TraceInfo, error) {
	te, oerr := rt.open(ctx, path)
	if oerr != nil {
		return tracesvc.TraceInfo{}, oerr
	}
	return te.info, nil
}

// open places one trace: open on the ring owner, read its frame
// directory, replicate the open to every other backend (same shared
// file — the basis of failover), split into segments, and
// register under a router-assigned ID.
func (rt *Router) open(ctx context.Context, path string) (*traceEntry, *openError) {
	owner := rt.ring.lookup(path)

	// Open on the ring owner first; its error body (wrong path, bad
	// file) is exactly what a single node would have said, so relay it.
	body, _ := json.Marshal(struct {
		Path string `json:"path"`
	}{path})
	st, _, respBody, err := rt.doBackend(ctx, owner, "POST", "/v1/traces", body)
	if err != nil {
		return nil, &openError{legsFailed(ctx), fmt.Sprintf("router: backend %s: %v", rt.backends[owner].name, err)}
	}
	if st != http.StatusCreated {
		return nil, &openError{st, string(bytes.TrimSuffix(respBody, []byte("\n")))}
	}
	var info tracesvc.TraceInfo
	if err := json.Unmarshal(respBody, &info); err != nil {
		return nil, &openError{http.StatusBadGateway, fmt.Sprintf("router: bad open response: %v", err)}
	}

	te := &traceEntry{
		path:     path,
		info:     info,
		localIDs: make([]string, len(rt.backends)),
		nframes:  info.Frames,
	}
	te.localIDs[owner] = info.ID

	// The frame-directory boundaries drive the segment split.
	var fl tracesvc.FrameList
	st, _, respBody, err = rt.doBackend(ctx, owner, "GET", "/v1/traces/"+info.ID+"/frames", nil)
	if err != nil || st != http.StatusOK || json.Unmarshal(respBody, &fl) != nil {
		return nil, &openError{legsFailed(ctx), "router: cannot read frame directory from owner"}
	}

	for bi := range rt.backends {
		if bi == owner {
			continue
		}
		st, _, respBody, err := rt.doBackend(ctx, bi, "POST", "/v1/traces", body)
		if err != nil || st != http.StatusCreated {
			continue // placement degrades to fewer replicas
		}
		var bInfo tracesvc.TraceInfo
		if json.Unmarshal(respBody, &bInfo) == nil {
			te.localIDs[bi] = bInfo.ID
		}
	}
	te.segs = buildSegments(fl.Dirs, info, owner, len(rt.backends), rt.cfg.SplitFrames)

	rt.mu.Lock()
	rt.nextID++
	te.id = fmt.Sprintf("t%d", rt.nextID)
	te.info.ID = te.id
	rt.traces[te.id] = te
	rt.order = append(rt.order, te)
	rt.mu.Unlock()
	return te, nil
}

// buildSegments splits a trace's frame list into contiguous segments at
// frame-directory boundaries, balanced by frame count, one per backend
// — or a single whole-trace segment when the trace is small enough that
// splitting would only shred its cache locality.
func buildSegments(dirs []tracesvc.DirInfo, info tracesvc.TraceInfo, owner, nBackends, splitFrames int) []segment {
	whole := segment{lo: 0, hi: info.Frames, startNs: info.StartNs, endNs: info.EndNs, owner: owner}
	if nBackends == 1 || info.Frames < splitFrames || len(dirs) < 2 {
		return []segment{whole}
	}
	nseg := nBackends
	if nseg > len(dirs) {
		nseg = len(dirs)
	}
	// Greedy fill: cut at the dir boundary that first reaches the fair
	// share of the remaining frames.
	segs := make([]segment, 0, nseg)
	di := 0
	framesLeft := info.Frames
	for s := 0; s < nseg; s++ {
		dirsLeft := len(dirs) - di
		segsLeft := nseg - s
		target := framesLeft / segsLeft
		seg := segment{lo: dirs[di].FirstFrame, startNs: dirs[di].StartNs, endNs: dirs[di].EndNs, owner: (owner + s) % nBackends}
		take := 0
		n := 0
		for di < len(dirs) {
			// Always leave at least one dir per remaining segment.
			if take > 0 && (n >= target || dirsLeft-take == segsLeft-1) {
				break
			}
			d := dirs[di]
			n += d.Frames
			if d.StartNs < seg.startNs {
				seg.startNs = d.StartNs
			}
			if d.EndNs > seg.endNs {
				seg.endNs = d.EndNs
			}
			seg.hi = d.FirstFrame + d.Frames
			di++
			take++
		}
		framesLeft -= n
		segs = append(segs, seg)
	}
	segs[len(segs)-1].hi = info.Frames
	return segs
}

func (rt *Router) handleList(w http.ResponseWriter, _ *http.Request) {
	rt.mu.RLock()
	infos := make([]tracesvc.TraceInfo, len(rt.order))
	for i, te := range rt.order {
		infos[i] = te.info
	}
	rt.mu.RUnlock()
	writeJSON(w, http.StatusOK, tracesvc.TraceList{Traces: infos})
}

func (rt *Router) handleGet(w http.ResponseWriter, r *http.Request) {
	te := rt.lookupTrace(r.PathValue("id"))
	if te == nil {
		notFound(w, r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, te.info)
}

func (rt *Router) handleClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.mu.Lock()
	te := rt.traces[id]
	if te != nil {
		delete(rt.traces, id)
		for i, o := range rt.order {
			if o == te {
				rt.order = append(rt.order[:i], rt.order[i+1:]...)
				break
			}
		}
	}
	rt.mu.Unlock()
	if te == nil {
		notFound(w, id)
		return
	}
	for bi, lid := range te.localIDs {
		if lid == "" {
			continue
		}
		rt.doBackend(r.Context(), bi, "DELETE", "/v1/traces/"+lid, nil)
	}
	// Match the single-node wrapper's empty-body headers exactly.
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", "0")
	w.WriteHeader(http.StatusNoContent)
}

// --- backend I/O --------------------------------------------------------

// maxPrealloc bounds the body buffer doBackend sizes from a response's
// Content-Length up front; a longer body grows as it is read.
const maxPrealloc = 16 << 20

// doBackend performs one request against one backend under its
// in-flight limit, carrying the routed request's ID. A non-2xx status is
// a response, not an error.
func (rt *Router) doBackend(ctx context.Context, bi int, method, pathQuery string, body []byte) (status int, header http.Header, respBody []byte, err error) {
	b := rt.backends[bi]
	select {
	case b.sem <- struct{}{}:
		defer func() { <-b.sem }()
	case <-ctx.Done():
		return 0, nil, nil, ctx.Err()
	}
	t0 := time.Now()
	rt.met.requests[bi].Add(1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.url+pathQuery, rd)
	if err != nil {
		rt.met.errors[bi].Add(1)
		return 0, nil, nil, err
	}
	if id, ok := ctx.Value(requestIDKey{}).(string); ok {
		req.Header.Set(tracesvc.RequestIDHeader, id)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.met.errors[bi].Add(1)
		rt.met.latency[bi].Observe(time.Since(t0))
		return 0, nil, nil, err
	}
	if n := resp.ContentLength; n >= 0 && n <= maxPrealloc {
		respBody = make([]byte, n)
		_, err = io.ReadFull(resp.Body, respBody)
	} else {
		respBody, err = io.ReadAll(resp.Body)
	}
	resp.Body.Close()
	rt.met.latency[bi].Observe(time.Since(t0))
	if err != nil {
		rt.met.errors[bi].Add(1)
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, respBody, nil
}

// candidates orders the backends that hold te for one leg: preferred
// owner first, then the rest in ring order, ready backends before
// not-ready ones (a down backend is still a last resort — the poll may
// be stale).
func (rt *Router) candidates(te *traceEntry, pref int) []int {
	n := len(rt.backends)
	ordered := make([]int, 0, n)
	for k := 0; k < n; k++ {
		bi := (pref + k) % n
		if te.localIDs[bi] != "" {
			ordered = append(ordered, bi)
		}
	}
	sort.SliceStable(ordered, func(a, b int) bool {
		return rt.backends[ordered[a]].up.Load() && !rt.backends[ordered[b]].up.Load()
	})
	return ordered
}

// fetch runs one logical leg on the calling goroutine, trying the
// candidate backends in order and moving to the next only on a transport
// error. mkPath renders the backend-specific path (local trace IDs
// differ per backend).
func (rt *Router) fetch(ctx context.Context, cands []int, mkPath func(bi int) string) (status int, header http.Header, body []byte, err error) {
	if len(cands) == 0 {
		return 0, nil, nil, fmt.Errorf("no backend holds this trace")
	}
	var firstErr error
	for i, bi := range cands {
		if i > 0 {
			if ctx.Err() != nil {
				break
			}
			rt.met.retries.Add(1)
		}
		st, h, b, err := rt.doBackend(ctx, bi, "GET", mkPath(bi), nil)
		if err == nil {
			return st, h, b, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return 0, nil, nil, firstErr
}

// proxy routes the request whole to one preferred backend and relays
// status, content type, and body untouched — the affinity path for
// queries that must not be decomposed.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, te *traceEntry, pref int) {
	rt.met.affinity.Add(1)
	localPath := func(bi int) string {
		p := "/v1/traces/" + te.localIDs[bi] + r.URL.Path[len("/v1/traces/"+te.id):]
		if r.URL.RawQuery != "" {
			p += "?" + r.URL.RawQuery
		}
		return p
	}
	st, h, body, err := rt.fetch(r.Context(), rt.candidates(te, pref), localPath)
	if err != nil {
		http.Error(w, fmt.Sprintf("router: backend query failed: %v", err), legsFailed(r.Context()))
		return
	}
	if ct := h.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := h.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(st)
	w.Write(body)
}

// windowOwner picks the segment whose time range contains the window
// midpoint — deterministic, so repeated pans over the same region keep
// hitting the same backend's warm cache. A malformed request goes to the
// segment-0 owner, which renders the canonical 400 body.
func (rt *Router) windowOwner(te *traceEntry, endpoint string, r *http.Request) int {
	q, err := tracesvc.ParseQuery(endpoint, r.URL.Query())
	if err != nil || !q.Window || len(te.segs) == 1 {
		return te.segs[0].owner
	}
	l, h := int64(q.Lo), int64(q.Hi)
	if l == math.MinInt64 {
		l = te.info.StartNs
	}
	if h == math.MaxInt64 {
		h = te.info.EndNs
	}
	mid := l + (h-l)/2
	for _, s := range te.segs {
		if mid >= s.startNs && mid <= s.endNs {
			return s.owner
		}
	}
	for _, s := range te.segs {
		if mid < s.endNs {
			return s.owner
		}
	}
	return te.segs[len(te.segs)-1].owner
}

// windowed routes an endpoint's requests whole to their window's owner
// (the segment-0 owner's without one).
func (rt *Router) windowed(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		te := rt.lookupTrace(r.PathValue("id"))
		if te == nil {
			notFound(w, r.PathValue("id"))
			return
		}
		rt.proxy(w, r, te, rt.windowOwner(te, endpoint, r))
	}
}

// --- records scatter-gather --------------------------------------------

// handleRecords is the decomposable query: per-segment legs run in
// parallel, each restricted to its own frame range via ?frames=lo:hi,
// and the partial pages merge in segment (frame) order through
// par.OrderedReducer — integer totals and record concatenation only, so
// the merged body is byte-identical to a single node's. Any leg
// failure aborts the merge and surfaces a clean 502 (504 once the
// request deadline has passed); the router never returns a silently
// truncated page.
func (rt *Router) handleRecords(w http.ResponseWriter, r *http.Request) {
	te := rt.lookupTrace(r.PathValue("id"))
	if te == nil {
		notFound(w, r.PathValue("id"))
		return
	}
	q, err := tracesvc.ParseQuery("records", r.URL.Query())
	if err != nil || len(te.segs) == 1 || q.Frames {
		// Malformed (the segment-0 owner renders the canonical 400), a
		// single segment, or the caller already targeted a frame range:
		// route whole.
		rt.proxy(w, r, te, te.segs[0].owner)
		return
	}

	// Segments whose time bounds miss the window cannot contribute: the
	// handler's own frame-level skip would reject every frame in them.
	legs := make([]segment, 0, len(te.segs))
	for _, s := range te.segs {
		if !q.Window || s.endNs >= int64(q.Lo) && s.startNs <= int64(q.Hi) {
			legs = append(legs, s)
		}
	}
	rt.met.scatter.Add(1)

	total := 0
	skip, need := q.Offset, q.Limit
	merged := []tracesvc.RecordJSON{}
	red := par.NewOrderedReducer()
	var (
		wg     sync.WaitGroup
		errMu  sync.Mutex
		legErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if legErr == nil {
			legErr = err
		}
		errMu.Unlock()
		red.Abort()
	}
	leg := func(i int, s segment) {
		// Each leg asks for the first offset+limit matching records of
		// its range (saturating: a huge limit must not wrap): a record's
		// index within its segment is never greater than its global
		// index, so the global page [offset, offset+limit) is fully
		// contained in the concatenation of the per-leg prefixes.
		lq := q
		lq.Frames, lq.FrameLo, lq.FrameHi = true, s.lo, s.hi
		if !q.Count {
			lq.Offset, lq.Limit = 0, q.Offset+min(q.Limit, math.MaxInt-q.Offset)
		}
		qs := lq.Encode()
		st, _, body, err := rt.fetch(r.Context(), rt.candidates(te, s.owner), func(bi int) string {
			return "/v1/traces/" + te.localIDs[bi] + "/records?" + qs
		})
		if err != nil {
			fail(fmt.Errorf("segment %d:%d: %v", s.lo, s.hi, err))
			return
		}
		if st != http.StatusOK {
			fail(fmt.Errorf("segment %d:%d: backend answered %d: %s", s.lo, s.hi, st, bytes.TrimSpace(body)))
			return
		}
		// A count leg answers a RecordCount, a page leg a RecordsPage.
		var page struct {
			tracesvc.RecordsPage
			tracesvc.RecordCount
		}
		if err := json.Unmarshal(body, &page); err != nil {
			fail(fmt.Errorf("segment %d:%d: %v", s.lo, s.hi, err))
			return
		}
		red.Reduce(i, func() error {
			total += page.Total + page.Count
			recs := page.Records
			if skip >= len(recs) {
				skip -= len(recs)
				return nil
			}
			recs = recs[skip:]
			skip = 0
			if len(recs) > need {
				recs = recs[:need]
			}
			merged = append(merged, recs...)
			need -= len(recs)
			return nil
		})
	}
	// Every leg but the last runs on a goroutine of its own; the last
	// runs on the handler's.
	for i := 0; i < len(legs)-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			leg(i, legs[i])
		}()
	}
	if n := len(legs); n > 0 {
		leg(n-1, legs[n-1])
	}
	wg.Wait()
	errMu.Lock()
	err = legErr
	errMu.Unlock()
	if err != nil {
		// Clean failure semantics: a lost leg is a lost query. Partial
		// pages are never returned — a truncated "200" would be
		// indistinguishable from a short trace.
		http.Error(w, fmt.Sprintf("router: scatter-gather failed: %v", err), legsFailed(r.Context()))
		return
	}
	if q.Count {
		writeJSON(w, http.StatusOK, tracesvc.RecordCount{Count: total})
		return
	}
	writeJSON(w, http.StatusOK, tracesvc.RecordsPage{Total: total, Offset: q.Offset, Records: merged})
}
