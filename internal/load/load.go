// Package load is the serving-tier load generator behind cmd/uteload:
// N concurrent clients replay a configurable mix of window-stats,
// preview, time-resolved, and record-count queries against a tracesvc
// or uterouter endpoint, with zipfian trace popularity and a bounded
// per-trace window pool so the run has a natural cold phase (first
// touch of each window decodes frames) and a warm phase (repeats hit
// the decoded-frame caches). The report carries QPS, latency
// percentiles, error rates, and — when backend URLs are given —
// per-backend cache hit ratios scraped from /metrics.
//
// The warm phase is closed-loop by default: each client sends its next
// request when the previous one answered, so a stalled server also
// stalls the offered load and the queueing it would cause never shows
// (coordinated omission). With a Rate it is open-loop instead: request
// i is due at start + i/Rate whatever the server does, its latency runs
// from that intended send time, at most Clients requests are in flight,
// and an arrival that finds them all busy is dropped and counted.
package load

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tracefw/internal/tracesvc"
	"tracefw/internal/xrand"
)

// Mix weights the query types; a zero Mix selects the default blend
// (stats-heavy, matching the paper's preview-then-drill-down usage).
type Mix struct {
	Stats        int `json:"stats"`
	Preview      int `json:"preview"`
	TimeResolved int `json:"timeresolved"`
	Records      int `json:"records"`
}

func (m Mix) total() int { return m.Stats + m.Preview + m.TimeResolved + m.Records }

// Config tunes one load run; zero values select the defaults.
type Config struct {
	// BaseURL is the service under test (a utetraced or uterouter).
	BaseURL string
	// BackendURLs, when set, are scraped for decoded-frame cache hit
	// ratios before and after the measured phase.
	BackendURLs []string
	// Clients is the concurrent client count (default 4).
	Clients int
	// Requests is the measured warm-phase request count (default 200).
	Requests int
	// Mix weights the query types (zero value: 4/2/1/3).
	Mix Mix
	// ZipfS is the zipf exponent for trace popularity (default 1.1):
	// rank r drawn with probability proportional to 1/(r+1)^s.
	ZipfS float64
	// Seed makes the request sequence reproducible (default 1).
	Seed uint64
	// Bins is the bins parameter sent on stats/preview queries
	// (default 16).
	Bins int
	// Windows is the per-trace window-pool size (default 16). A finite
	// pool is what creates the warm phase: the cold pass touches every
	// window once, the measured pass replays them.
	Windows int
	// Rate, when positive, makes the warm phase open-loop at Rate
	// requests per second, with Clients as the in-flight cap.
	Rate float64
}

func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Requests <= 0 {
		c.Requests = 200
	}
	if c.Mix.total() <= 0 {
		c.Mix = Mix{Stats: 4, Preview: 2, TimeResolved: 1, Records: 3}
	}
	if c.ZipfS <= 0 {
		c.ZipfS = 1.1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Bins <= 0 {
		c.Bins = 16
	}
	if c.Windows <= 0 {
		c.Windows = 16
	}
	return c
}

// Phase is the measured result of one run phase. Requests counts every
// request offered, Dropped the open-loop arrivals that found the
// in-flight cap reached and were never sent; QPS is answered requests
// per second.
type Phase struct {
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	Dropped  int     `json:"dropped"`
	Seconds  float64 `json:"seconds"`
	QPS      float64 `json:"qps"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
}

// BackendCache is one backend's cache movement over the measured phase:
// the decoded-frame cache (Hits, Misses), the whole-answer memo
// (tracesvc_answers_total: AnswerHits of Answers asked) and the
// whole-frame stats-partial memo (tracesvc_stats_partials_total). Each
// ratio is 0 when nothing moved.
type BackendCache struct {
	URL             string  `json:"url"`
	Hits            int64   `json:"hits"`
	Misses          int64   `json:"misses"`
	HitRatio        float64 `json:"hit_ratio"`
	AnswerHits      int64   `json:"answer_hits"`
	Answers         int64   `json:"answers"`
	AnswerHitRatio  float64 `json:"answer_hit_ratio"`
	PartialHits     int64   `json:"partial_hits"`
	PartialMisses   int64   `json:"partial_misses"`
	PartialHitRatio float64 `json:"partial_hit_ratio"`
}

// Report is the full run result.
type Report struct {
	Traces   int            `json:"traces"`
	Clients  int            `json:"clients"`
	Rate     float64        `json:"rate,omitempty"`
	Mix      Mix            `json:"mix"`
	Cold     Phase          `json:"cold"`
	Warm     Phase          `json:"warm"`
	Backends []BackendCache `json:"backends,omitempty"`
}

// zipf is a small cumulative-table zipfian sampler over ranks [0, n).
type zipf struct {
	cum []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), s)
		z.cum[r] = sum
	}
	for r := range z.cum {
		z.cum[r] /= sum
	}
	return z
}

func (z *zipf) rank(u float64) int {
	i := sort.SearchFloat64s(z.cum, u)
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return i
}

// query is one templated request.
type query struct {
	kind string
	url  string
}

// Run executes the load: discover traces, build window pools, run the
// cold pass (every window touched once), then the measured warm phase.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: cfg.Clients * 2,
		IdleConnTimeout:     90 * time.Second,
	}}
	defer client.CloseIdleConnections()

	traces, err := listTraces(ctx, client, cfg.BaseURL)
	if err != nil {
		return nil, err
	}
	if len(traces) == 0 {
		return nil, fmt.Errorf("load: service has no traces registered")
	}

	// Window pools: random sub-spans of each trace's run, reproducible
	// from the seed. Spans between 10%% and 50%% of the run keep queries
	// nontrivial without always touching every frame.
	rng := xrand.New(cfg.Seed)
	pools := make([][]string, len(traces))
	for i, tr := range traces {
		dur := tr.EndSec - tr.StartSec
		pools[i] = make([]string, cfg.Windows)
		for w := range pools[i] {
			span := dur * (0.1 + 0.4*rng.Float64())
			lo := tr.StartSec + (dur-span)*rng.Float64()
			pools[i][w] = fmt.Sprintf("%.6f:%.6f", lo, lo+span)
		}
	}

	kinds := mixTable(cfg.Mix)
	mkQuery := func(ti, wi, ki int) query {
		id := traces[ti].ID
		window := pools[ti][wi]
		switch kinds[ki%len(kinds)] {
		case "stats":
			return query{"stats", fmt.Sprintf("/v1/traces/%s/stats?bins=%d&window=%s", id, cfg.Bins, window)}
		case "preview":
			return query{"preview", fmt.Sprintf("/v1/traces/%s/preview.svg?view=preview&bins=%d&window=%s", id, cfg.Bins, window)}
		case "timeresolved":
			return query{"timeresolved", fmt.Sprintf("/v1/traces/%s/stats?timeresolved=1&bins=%d&window=%s", id, cfg.Bins, window)}
		default:
			return query{"records", fmt.Sprintf("/v1/traces/%s/records?count=1&window=%s", id, window)}
		}
	}

	// Cold pass: every (trace, window) pair once, query kind rotating
	// through the mix, spread over the clients.
	var cold []query
	k := 0
	for ti := range traces {
		for wi := range pools[ti] {
			cold = append(cold, mkQuery(ti, wi, k))
			k++
		}
	}
	coldPhase, err := runPhase(ctx, client, cfg, cold)
	if err != nil {
		return nil, err
	}

	// Warm phase: zipfian trace choice, uniform window from the pool,
	// weighted kind — the measured workload.
	z := newZipf(len(traces), cfg.ZipfS)
	warm := make([]query, cfg.Requests)
	for i := range warm {
		ti := z.rank(rng.Float64())
		warm[i] = mkQuery(ti, rng.Intn(cfg.Windows), rng.Intn(len(kinds)))
	}

	before := scrapeCaches(ctx, client, cfg.BackendURLs)
	run := runPhase
	if cfg.Rate > 0 {
		run = runOpenPhase
	}
	warmPhase, err := run(ctx, client, cfg, warm)
	if err != nil {
		return nil, err
	}
	after := scrapeCaches(ctx, client, cfg.BackendURLs)

	rep := &Report{
		Traces:  len(traces),
		Clients: cfg.Clients,
		Rate:    cfg.Rate,
		Mix:     cfg.Mix,
		Cold:    coldPhase,
		Warm:    warmPhase,
	}
	for i, url := range cfg.BackendURLs {
		d := after[i].minus(before[i])
		rep.Backends = append(rep.Backends, BackendCache{
			URL: url, Hits: d.hits, Misses: d.misses, HitRatio: ratio(d.hits, d.hits+d.misses),
			AnswerHits: d.answerHits, Answers: d.answers, AnswerHitRatio: ratio(d.answerHits, d.answers),
			PartialHits: d.partialHits, PartialMisses: d.partialMisses, PartialHitRatio: ratio(d.partialHits, d.partialHits+d.partialMisses),
		})
	}
	return rep, nil
}

// ratio is n/of, 0 when of is.
func ratio(n, of int64) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// mixTable expands the mix weights into a lookup table of kinds.
func mixTable(m Mix) []string {
	var t []string
	for i := 0; i < m.Stats; i++ {
		t = append(t, "stats")
	}
	for i := 0; i < m.Preview; i++ {
		t = append(t, "preview")
	}
	for i := 0; i < m.TimeResolved; i++ {
		t = append(t, "timeresolved")
	}
	for i := 0; i < m.Records; i++ {
		t = append(t, "records")
	}
	return t
}

// runPhase fires the queries closed-loop from cfg.Clients goroutines,
// each pulling from a shared index and timing its request from when it
// sent it, and folds the latency samples into a Phase.
func runPhase(ctx context.Context, client *http.Client, cfg Config, queries []query) (Phase, error) {
	if len(queries) == 0 {
		return Phase{}, nil
	}
	var (
		next int
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	tally := newTally(len(queries))
	t0 := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(queries) {
					return
				}
				if !tally.send(ctx, client, cfg.BaseURL, queries[i], time.Now()) {
					return
				}
			}
		}()
	}
	wg.Wait()
	return tally.phase(ctx, len(queries), time.Since(t0))
}

// runOpenPhase fires the queries open-loop: query i is due at start +
// i/cfg.Rate, however the earlier ones fare, and its latency runs from
// that due time, so time a request spends queued behind a stalled
// server counts. At most cfg.Clients requests are in flight; an arrival
// that finds them all busy is dropped.
func runOpenPhase(ctx context.Context, client *http.Client, cfg Config, queries []query) (Phase, error) {
	if len(queries) == 0 {
		return Phase{}, nil
	}
	var wg sync.WaitGroup
	slots := make(chan struct{}, cfg.Clients)
	tally := newTally(len(queries))
	t0 := time.Now()
	for i, q := range queries {
		due := t0.Add(time.Duration(float64(i) * float64(time.Second) / cfg.Rate))
		if !sleepUntil(ctx, due) {
			break
		}
		select {
		case slots <- struct{}{}:
		default:
			tally.drop()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tally.send(ctx, client, cfg.BaseURL, q, due)
			<-slots
		}()
	}
	wg.Wait()
	return tally.phase(ctx, len(queries), time.Since(t0))
}

// sleepUntil waits for t, or for ctx to end, reporting whether ctx is
// still live.
func sleepUntil(ctx context.Context, t time.Time) bool {
	if d := time.Until(t); d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
		}
	}
	return ctx.Err() == nil
}

// tally collects one phase's latency samples, errors and drops from
// concurrent senders.
type tally struct {
	mu      sync.Mutex
	lats    []time.Duration
	errs    int
	dropped int
	reqErr  error
}

func newTally(n int) *tally { return &tally{lats: make([]time.Duration, 0, n)} }

// send issues q and records its latency from start; a transport failure
// or a non-200 answer is an error. It returns false when the request
// could not even be built, which aborts the phase.
func (t *tally) send(ctx context.Context, client *http.Client, base string, q query, start time.Time) bool {
	req, err := http.NewRequestWithContext(ctx, "GET", base+q.url, nil)
	if err != nil {
		t.mu.Lock()
		if t.reqErr == nil {
			t.reqErr = err
		}
		t.mu.Unlock()
		return false
	}
	resp, err := client.Do(req)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	d := time.Since(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.errs++
		return true
	}
	t.lats = append(t.lats, d)
	if resp.StatusCode != http.StatusOK {
		t.errs++
	}
	return true
}

func (t *tally) drop() {
	t.mu.Lock()
	t.dropped++
	t.mu.Unlock()
}

// phase folds the samples of n offered requests over wall.
func (t *tally) phase(ctx context.Context, n int, wall time.Duration) (Phase, error) {
	if t.reqErr != nil {
		return Phase{}, t.reqErr
	}
	if err := ctx.Err(); err != nil {
		return Phase{}, err
	}
	sort.Slice(t.lats, func(i, j int) bool { return t.lats[i] < t.lats[j] })
	ph := Phase{
		Requests: n,
		Errors:   t.errs,
		Dropped:  t.dropped,
		Seconds:  wall.Seconds(),
		QPS:      float64(n-t.dropped) / wall.Seconds(),
	}
	if len(t.lats) > 0 {
		ph.P50Ms = ms(percentile(t.lats, 0.50))
		ph.P95Ms = ms(percentile(t.lats, 0.95))
		ph.P99Ms = ms(percentile(t.lats, 0.99))
		ph.MaxMs = ms(t.lats[len(t.lats)-1])
	}
	return ph, nil
}

func percentile(sorted []time.Duration, q float64) time.Duration {
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func listTraces(ctx context.Context, client *http.Client, base string) ([]tracesvc.TraceInfo, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/traces", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("load: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("load: list traces: %s", resp.Status)
	}
	var tl tracesvc.TraceList
	if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
		return nil, fmt.Errorf("load: list traces: %v", err)
	}
	return tl.Traces, nil
}

// cacheCounters is one scrape of a backend's cache counters: the
// decoded-frame cache, the answer memo (every result summed into
// answers) and the stats-partial memo.
type cacheCounters struct {
	hits, misses               int64
	answerHits, answers        int64
	partialHits, partialMisses int64
}

func (c cacheCounters) minus(o cacheCounters) cacheCounters {
	return cacheCounters{
		c.hits - o.hits, c.misses - o.misses,
		c.answerHits - o.answerHits, c.answers - o.answers,
		c.partialHits - o.partialHits, c.partialMisses - o.partialMisses,
	}
}

// scrapeCaches reads tracesvc_cache_{hits,misses}_total,
// tracesvc_answers_total and tracesvc_stats_partials_total from each
// backend's /metrics; unreachable backends read as zero (the delta then
// reports 0/0, not an error — the load run itself is the result).
func scrapeCaches(ctx context.Context, client *http.Client, urls []string) []cacheCounters {
	out := make([]cacheCounters, len(urls))
	for i, u := range urls {
		req, err := http.NewRequestWithContext(ctx, "GET", u+"/metrics", nil)
		if err != nil {
			continue
		}
		resp, err := client.Do(req)
		if err != nil {
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(line, "tracesvc_cache_hits_total "); ok {
				out[i].hits, _ = strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			}
			if v, ok := strings.CutPrefix(line, "tracesvc_cache_misses_total "); ok {
				out[i].misses, _ = strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			}
			if v, ok := strings.CutPrefix(line, "tracesvc_answers_total{result=\""); ok {
				result, n, _ := strings.Cut(v, "\"} ")
				c, _ := strconv.ParseInt(strings.TrimSpace(n), 10, 64)
				out[i].answers += c
				if result == "hit" {
					out[i].answerHits += c
				}
			}
			if v, ok := strings.CutPrefix(line, "tracesvc_stats_partials_total{result=\"hit\"} "); ok {
				out[i].partialHits, _ = strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			}
			if v, ok := strings.CutPrefix(line, "tracesvc_stats_partials_total{result=\"miss\"} "); ok {
				out[i].partialMisses, _ = strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			}
		}
	}
	return out
}
