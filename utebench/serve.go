package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// loadClients is the closed-loop client count of every request phase:
// one connection per core of the 2-core reference host, each sending its
// next request only after the previous one completed.
const loadClients = 2

var httpClient = &http.Client{
	Transport: &http.Transport{MaxIdleConnsPerHost: 256, IdleConnTimeout: 90 * time.Second},
	Timeout:   120 * time.Second,
}

// roundTrip issues one HTTP request as a span of layer and returns
// status and body, without touching the operation ledger.
func (b *bench) roundTrip(parent *span, layer, name, method, url string, body []byte) (int, []byte, time.Duration, error) {
	sp := b.tr.start(parent, name, layer)
	defer sp.end()
	t0 := time.Now()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return resp.StatusCode, nil, d, fmt.Errorf("reading body: %w", err)
	}
	sp.attr("status", float64(resp.StatusCode))
	sp.attr("bytes", float64(len(data)))
	return resp.StatusCode, data, d, nil
}

// expect is one booked operation: a request that must answer want.
// Anything else is a failed operation and an error.
func (b *bench) expect(parent *span, layer, name, method, url string, body []byte, want int) ([]byte, time.Duration, error) {
	b.attempted.Add(1)
	code, data, d, err := b.roundTrip(parent, layer, name, method, url, body)
	if err == nil && code != want {
		err = fmt.Errorf("status %d, want %d: %s", code, want, lastLine(data))
	}
	if err != nil {
		b.fail("%s %s: %v", method, url, err)
		return nil, d, fmt.Errorf("%s %s: %w", method, url, err)
	}
	return data, d, nil
}

// scrape reads a Prometheus text page into name{labels} -> value.
func (b *bench) scrape(base string) map[string]float64 {
	out := make(map[string]float64)
	data, _, err := b.expect(nil, "harness", "metrics", "GET", base+"/metrics", nil, http.StatusOK)
	if err != nil {
		return out
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out
}

// sumPrefix adds every sample whose name starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	s := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// fleet is the horizontal serving tier as real processes: two utetraced
// backends behind one uterouter.
type fleet struct {
	backends []*daemon
	router   *daemon
}

func (b *bench) startFleet() (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < 2; i++ {
		d, err := b.startDaemon("utetraced", "-addr", "127.0.0.1:0")
		if err != nil {
			b.stopFleet(f)
			return nil, err
		}
		f.backends = append(f.backends, d)
		urls = append(urls, d.url)
	}
	// -split-frames 16: the 171-frame sppm trace splits into one segment
	// per backend, so record queries scatter-gather.
	r, err := b.startDaemon("uterouter", "-addr", "127.0.0.1:0",
		"-backends", strings.Join(urls, ","), "-split-frames", "16")
	if err != nil {
		b.stopFleet(f)
		return nil, err
	}
	f.router = r
	return f, nil
}

func (b *bench) stopFleet(f *fleet) {
	if f == nil {
		return
	}
	b.stopDaemon(f.router)
	for _, d := range f.backends {
		b.stopDaemon(d)
	}
}

func (f *fleet) all() []*daemon { return append([]*daemon{f.router}, f.backends...) }

// traceInfo is the part of the daemon's trace metadata the harness uses.
type traceInfo struct {
	ID       string  `json:"id"`
	StartSec float64 `json:"startSec"`
	EndSec   float64 `json:"endSec"`
}

// openTrace registers path on a daemon or router.
func (b *bench) openTrace(sp *span, layer, base, path string) (traceInfo, time.Duration, error) {
	var ti traceInfo
	body, _ := json.Marshal(map[string]string{"path": path})
	data, d, err := b.expect(sp, layer, "open", "POST", base+"/v1/traces", body, http.StatusCreated)
	if err != nil {
		return ti, d, err
	}
	if err := json.Unmarshal(data, &ti); err != nil || ti.ID == "" {
		return ti, d, fmt.Errorf("open %s: bad response %q", path, data)
	}
	return ti, d, nil
}

// request is one templated query; %s in path takes the trace id.
type request struct {
	kind string
	path string
}

// queryMix is how often one lap sends each query class to each window:
// stats 3, preview 3, timeresolved 1, records(count) 3.
var queryMix = []struct {
	kind   string
	visits int
}{{"stats", 3}, {"preview", 3}, {"timeresolved", 1}, {"records", 3}}

func mkRequest(kind, window string) request {
	switch kind {
	case "stats":
		return request{kind, "/v1/traces/%s/stats?bins=16&window=" + window}
	case "preview":
		return request{kind, "/v1/traces/%s/preview.svg?view=preview&bins=16&window=" + window}
	case "timeresolved":
		return request{kind, "/v1/traces/%s/stats?timeresolved=1&bins=16&window=" + window}
	default:
		return request{"records", "/v1/traces/%s/records?count=1&window=" + window}
	}
}

// windowPool is n query windows over the run lo..hi. Spans climb evenly
// from 10 % to 50 % of the run and positions follow the golden-ratio
// sequence, so the windows — and with them the work per request and the
// split of windows between the router's segments — are the same for
// every seed.
func windowPool(lo, hi float64, n int) []string {
	pool := make([]string, n)
	for i := range pool {
		span := (hi - lo) * (0.1 + 0.4*float64(i)/float64(max(n-1, 1)))
		_, frac := math.Modf(float64(i) * 0.6180339887)
		w0 := lo + (hi-lo-span)*frac
		pool[i] = fmt.Sprintf("%.6f:%.6f", w0, w0+span)
	}
	return pool
}

// coldPass touches every window once, kinds rotating.
func coldPass(pool []string, kinds ...string) []request {
	reqs := make([]request, len(pool))
	for i, w := range pool {
		reqs[i] = mkRequest(kinds[i%len(kinds)], w)
	}
	return reqs
}

// lapSequence sends every class to every window as often as queryMix
// says: 10 requests per window. Callers shuffle it.
func lapSequence(pool []string) []request {
	var reqs []request
	for _, q := range queryMix {
		for v := 0; v < q.visits; v++ {
			for _, w := range pool {
				reqs = append(reqs, mkRequest(q.kind, w))
			}
		}
	}
	return reqs
}

func shuffle(rng *rand.Rand, reqs []request) {
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
}

// bodyBook remembers the first body seen for each query and holds every
// later answer — from the router or from a backend directly — to it.
type bodyBook struct {
	mu   sync.Mutex
	seen map[string][sha256.Size]byte
}

func newBodyBook() *bodyBook { return &bodyBook{seen: make(map[string][sha256.Size]byte)} }

func (bk *bodyBook) same(key string, body []byte) bool {
	sum := sha256.Sum256(body)
	bk.mu.Lock()
	defer bk.mu.Unlock()
	first, ok := bk.seen[key]
	if !ok {
		bk.seen[key] = sum
		return true
	}
	return first == sum
}

// sample is one answered request.
type sample struct {
	kind string
	dur  time.Duration
}

// fire sends reqs to base from loadClients closed-loop clients pulling
// from one shared sequence. Every response must be 200 and byte-equal
// to the first body seen for its query.
func (b *bench) fire(parent *span, layer, base, id string, reqs []request, book *bodyBook) []sample {
	out := make([]sample, len(reqs))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				body, d, err := b.expect(parent, layer, r.kind, "GET", base+fmt.Sprintf(r.path, id), nil, http.StatusOK)
				if err == nil {
					b.check(book.same(r.path, body), "%s: body differs from the first answer to this query", r.path)
				}
				out[i] = sample{r.kind, d}
			}
		}()
	}
	wg.Wait()
	return out
}

func dursOf(ss []sample, kind string) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		if kind == "" || s.kind == kind {
			out = append(out, s.dur)
		}
	}
	return out
}

// serveWorkload is serve_zoom_warm: the read path with the decoded-frame
// cache fitting, through the router.
type serveWorkload struct {
	b       *bench
	sh      shape
	windows int // window pool size; a lap is 10 requests per window

	dir  string
	k    *traceKit
	fl   *fleet
	id   string
	lapQ []request
	rng  *rand.Rand
	book *bodyBook
}

func (w *serveWorkload) setup(sp *span) error {
	b := w.b
	w.dir = filepath.Join(b.tmp, "serve")
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	var err error
	if w.k, err = b.buildKit(sp, w.sh, mergeOpts{pyramid: true}, w.dir); err != nil {
		return err
	}
	if _, _, err = b.validate(sp, w.k.merged); err != nil {
		return err
	}
	if w.fl, err = b.startFleet(); err != nil {
		return err
	}
	ti, _, err := b.openTrace(sp, "shard", w.fl.router.url, w.k.merged)
	if err != nil {
		return err
	}
	w.id = ti.ID
	w.k.spanLo, w.k.spanHi = ti.StartSec, ti.EndSec
	pool := windowPool(ti.StartSec, ti.EndSec, w.windows)
	w.lapQ = lapSequence(pool)
	w.rng = rand.New(rand.NewSource(int64(b.seed)))
	w.book = newBodyBook()
	b.fire(sp, "shard", w.fl.router.url, w.id, coldPass(pool, "stats", "preview", "timeresolved", "records"), w.book)
	return nil
}

func (w *serveWorkload) teardown() {
	w.b.stopFleet(w.fl)
	w.fl = nil
	os.RemoveAll(w.dir)
}

// lap sends the same requests every time, in an order reshuffled from
// the seeded generator: which cheap request meets which expensive one on
// the other client then varies from lap to lap instead of being a fixed
// property of the seed.
func (w *serveWorkload) lap(sp *span) (lapSample, error) {
	shuffle(w.rng, w.lapQ)
	t0 := time.Now()
	ss := w.b.fire(sp, "shard", w.fl.router.url, w.id, w.lapQ, w.book)
	return lapSample{work: time.Since(t0), lat: dursOf(ss, ""), query: dursOf(ss, "stats")}, nil
}

func (w *serveWorkload) units() float64 { return float64(len(w.lapQ)) }
func (w *serveWorkload) bytesPerEvent() float64 {
	return float64(fileSize(w.k.merged)+fileSize(w.k.merged+".pyr")) / float64(w.k.events)
}
func (w *serveWorkload) peakRSSMB() float64 {
	sum := 0.0
	for _, d := range w.fl.all() {
		sum += d.hwmMB()
	}
	return sum
}
func (w *serveWorkload) daemons() []*daemon { return w.fl.all() }
func (w *serveWorkload) kit() *traceKit     { return w.k }
