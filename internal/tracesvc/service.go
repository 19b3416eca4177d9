package tracesvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"tracefw/internal/interval"
	"tracefw/internal/render"
	"tracefw/internal/stats"
)

// ReadHeaderTimeout is how long the daemons that speak this API
// (utetraced, uterouter) give a client to finish its request headers
// before the connection is closed, so one that never does cannot hold a
// connection open. A constant, not a setting: no deployment needs a
// different value, and request bodies (ingest batches) are not covered.
const ReadHeaderTimeout = 5 * time.Second

// IdleTimeout is how long the daemons keep a keep-alive connection open
// with no request on it, so an idle client cannot hold one for ever. A
// constant like ReadHeaderTimeout.
const IdleTimeout = 15 * time.Second

// NewServer is the http.Server both daemons serve h on, with the
// header and idle timeouts set.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}

// RequestIDHeader carries a request's ID: the router keeps a client's or
// mints one and sends it on every backend leg, and both daemons echo it
// on the response.
const RequestIDHeader = "X-Request-ID"

// DefaultRequestTimeout is the request deadline of every service and of
// the router in front of it; the deadline propagates through the
// map-reduce engine via MapOptions.Context.
const DefaultRequestTimeout = 30 * time.Second

// Config tunes the service; zero values select the defaults.
type Config struct {
	// CacheBytes is the memo budget (default 256 MiB): the bytes of
	// stored whole-frame stats partials and whole answers, and of the
	// once-seen keys that admit them. No decoded frame is kept.
	CacheBytes int64
	// CacheShards is the cache shard count (default 16).
	CacheShards int
}

func (c Config) withDefaults() Config {
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	return c
}

// Service is the HTTP trace query service: the registry and cache plus
// the handler mux. One Service serves many concurrent requests; all
// state it touches is concurrency-safe.
type Service struct {
	cache *MemoCache
	reg   *Registry
	met   *metrics
	mux   *http.ServeMux
	// ing is nil until EnableIngest; the ingest endpoints answer 403
	// while it is.
	ing *ingestState
	// ready flips once startup registration is complete (SetReady);
	// draining flips when shutdown begins. /readyz reports 200 only
	// while ready && !draining — the router's health checker keys off
	// it to stop routing to a backend that is going away.
	ready    atomic.Bool
	draining atomic.Bool
}

// New builds a service with an empty registry.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cache: NewMemoCache(cfg.CacheBytes, cfg.CacheShards),
		met:   newMetrics(),
		mux:   http.NewServeMux(),
	}
	s.reg = NewRegistry(s.cache)

	s.handle("GET /v1/traces", "list", s.handleList)
	s.handle("POST /v1/traces", "open", s.handleOpen)
	s.query("GET /v1/traces/{id}", "get", s.handleGet)
	s.handle("DELETE /v1/traces/{id}", "close", s.handleClose)
	s.query("GET /v1/traces/{id}/frames", "frames", s.handleFrames)
	s.query("GET /v1/traces/{id}/stats", "stats", s.handleStats)
	s.query("GET /v1/traces/{id}/records", "records", s.handleRecords)
	s.query("GET /v1/traces/{id}/preview.svg", "preview", s.handlePreview)
	s.handle("GET /metrics", "metrics", s.handleMetrics)
	// Liveness and readiness stay outside the metrics/deadline wrapper:
	// health pollers hit them every couple of seconds and would drown
	// the endpoint latency histograms in no-op samples.
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		switch {
		case s.draining.Load():
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n"))
		case !s.ready.Load():
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("starting: registry not yet populated\n"))
		default:
			w.WriteHeader(http.StatusOK)
			w.Write([]byte("ready\n"))
		}
	})
	s.handle("GET /v1/ingest", "ingest-list", s.handleIngestList)
	s.handle("GET /v1/ingest/{trace}", "ingest-status", s.handleIngestStatus)
	// Batch POSTs run without the request deadline: a push into a full
	// merge queue blocks legitimately (that block is the backpressure
	// bounding ingest memory), and cancelling it would tear a batch.
	s.handleNoDeadline("POST /v1/ingest/{trace}", "ingest", s.handleIngestPost)
	return s
}

// Registry exposes the trace registry (the daemon preloads files from
// its command line; tests register in-memory traces).
func (s *Service) Registry() *Registry { return s.reg }

// Cache exposes the memo of partials and answers (benchmarks Flush it to
// measure the cold path).
func (s *Service) Cache() *MemoCache { return s.cache }

// Handler returns the root handler. A request's X-Request-ID, when it
// has one, is echoed on the response.
func (s *Service) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id := r.Header.Get(RequestIDHeader); id != "" {
			w.Header().Set(RequestIDHeader, id)
		}
		s.mux.ServeHTTP(w, r)
	})
}

// SetReady marks startup registration complete: /readyz starts
// answering 200. The daemon calls it after preloading its command-line
// traces, right before it starts serving.
func (s *Service) SetReady() { s.ready.Store(true) }

// Close drains any in-flight ingest sessions — sealing every live trace
// into a complete, valid file — and closes every registered trace.
// /readyz flips to 503 "draining" at entry, so a router health checker
// stops sending new work while the drain runs.
func (s *Service) Close() {
	s.draining.Store(true)
	if s.ing != nil {
		s.ing.mgr.DrainAll()
	}
	s.reg.CloseAll()
}

// response is a fully materialized reply. Handlers build replies in
// memory — every endpoint's payload is bounded (tables, frame lists,
// paged records) — so errors discovered mid-generation still produce a
// clean status code instead of a truncated 200.
type response struct {
	status      int
	contentType string
	body        []byte
}

func jsonResponse(status int, v any) (*response, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return &response{status: status, contentType: "application/json", body: append(b, '\n')}, nil
}

// httpErr is an error with an intended status code. retryAfter, when
// positive, becomes a Retry-After header (seconds) on the rendered
// error — set on the 503s a client is expected to retry, like a live
// trace that has not sealed its first frame group yet.
type httpErr struct {
	code       int
	msg        string
	retryAfter int
}

func (e *httpErr) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpErr{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFound(id string) error {
	return &httpErr{code: http.StatusNotFound, msg: fmt.Sprintf("no trace %q", id)}
}

// errStatus maps an error to its response status: explicit httpErr
// codes, 503 for queries that lost a race with DELETE (the file is
// closed, a retry will 404), 504 for deadline-exceeded work cancelled
// inside the map-reduce engine.
func errStatus(err error) int {
	var he *httpErr
	switch {
	case errors.As(err, &he):
		return he.code
	case errors.Is(err, interval.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// handle registers one endpoint: request counting, the per-request
// deadline, latency observation, and error rendering wrap the handler.
func (s *Service) handle(pattern, name string, fn func(r *http.Request) (*response, error)) {
	s.handleWrapped(pattern, name, fn, true)
}

// handleNoDeadline registers an endpoint exempt from the request
// deadline (ingest batch POSTs, which block on merge backpressure).
func (s *Service) handleNoDeadline(pattern, name string, fn func(r *http.Request) (*response, error)) {
	s.handleWrapped(pattern, name, fn, false)
}

func (s *Service) handleWrapped(pattern, name string, fn func(r *http.Request) (*response, error), deadline bool) {
	em := s.met.endpoint(name)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		em.requests.Add(1)
		var resp *response
		var err error
		if deadline {
			ctx, cancel := context.WithTimeout(r.Context(), DefaultRequestTimeout)
			resp, err = fn(r.WithContext(ctx))
			cancel()
		} else {
			resp, err = fn(r)
		}
		if err != nil {
			em.errors.Add(1)
			em.latency.Observe(time.Since(t0))
			var he *httpErr
			if errors.As(err, &he) && he.retryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
			}
			http.Error(w, err.Error(), errStatus(err))
			return
		}
		ct := resp.contentType
		if ct == "" {
			ct = "text/plain; charset=utf-8"
		}
		w.Header().Set("Content-Type", ct)
		w.Header().Set("Content-Length", strconv.Itoa(len(resp.body)))
		w.WriteHeader(resp.status)
		w.Write(resp.body)
		em.latency.Observe(time.Since(t0))
	})
}

// query registers an endpoint over one trace: the wrapper resolves the
// {id} path segment — a live trace to a snapshot of its newest seal
// generation, so every query observes the live tail as of its own start
// — parses the request into the endpoint's Query, and hands the handler
// both. When the Query says its answer is memoized, the answer is looked
// up in the cache first: keyed by the snapshot's seal generation and the
// Query, which hold every input a handler reads, and computed by the
// handler only when none is stored.
func (s *Service) query(pattern, name string, fn func(ctx context.Context, q Query, t *Trace) (*response, error)) {
	s.handle(pattern, name, func(r *http.Request) (*response, error) {
		t, err := s.reg.Resolve(r.PathValue("id"))
		if err != nil {
			return nil, err
		}
		q, err := ParseQuery(name, r.URL.Query())
		if err != nil {
			return nil, err
		}
		ctx := r.Context()
		if memo, bypass := q.answerMemo(); !memo {
			if bypass {
				s.met.answersBypass.Add(1)
			}
			return fn(ctx, q, t)
		}
		v, err := s.cache.Answer(ctx, t.num, q.key(t.gen), func() (any, int64, error) {
			resp, err := fn(ctx, q, t)
			if err != nil {
				return nil, 0, err
			}
			return resp, int64(len(resp.body)), nil
		})
		if err != nil {
			return nil, err
		}
		return v.(*response), nil
	})
}

func infoOf(t *Trace) TraceInfo {
	start, end, recs := t.Bounds()
	dirs, _ := t.file.Dirs() // resident, as in Bounds
	return TraceInfo{
		ID:             t.ID,
		Path:           t.Path,
		HeaderVersion:  t.file.Header.HeaderVersion,
		ProfileVersion: t.file.Header.ProfileVersion,
		Threads:        len(t.file.Header.Threads),
		Dirs:           len(dirs),
		Frames:         len(t.Frames()),
		Records:        recs,
		StartNs:        int64(start),
		EndNs:          int64(end),
		StartSec:       start.Seconds(),
		EndSec:         end.Seconds(),
	}
}

func (s *Service) handleList(*http.Request) (*response, error) {
	ts := s.reg.List()
	infos := make([]TraceInfo, len(ts))
	for i, t := range ts {
		infos[i] = infoOf(t)
	}
	return jsonResponse(http.StatusOK, TraceList{Traces: infos})
}

func (s *Service) handleOpen(r *http.Request) (*response, error) {
	var req struct {
		Path string `json:"path"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, badRequest("bad request body: %v", err)
	}
	if req.Path == "" {
		return nil, badRequest("missing \"path\"")
	}
	t, err := s.reg.Open(req.Path)
	if err != nil {
		return nil, badRequest("open %s: %v", req.Path, err)
	}
	return jsonResponse(http.StatusCreated, infoOf(t))
}

func (s *Service) handleGet(_ context.Context, _ Query, t *Trace) (*response, error) {
	return jsonResponse(http.StatusOK, infoOf(t))
}

func (s *Service) handleClose(r *http.Request) (*response, error) {
	id := r.PathValue("id")
	if !s.reg.Close(id) {
		return nil, notFound(id)
	}
	s.releaseSession(id)
	return &response{status: http.StatusNoContent}, nil
}

func (s *Service) handleFrames(_ context.Context, _ Query, t *Trace) (*response, error) {
	frames := t.Frames()
	fis := make([]FrameInfo, len(frames))
	for i, fe := range frames {
		fis[i] = FrameInfo{
			Offset:  fe.Offset,
			Bytes:   fe.Bytes,
			Records: fe.Records,
			StartNs: int64(fe.Start),
			EndNs:   int64(fe.End),
		}
	}
	// Each directory's contiguous range in the flattened frame list plus
	// its aggregates — the boundaries the shard router splits a huge
	// trace at.
	dirs, _ := t.file.Dirs() // resident since registration: cannot fail
	dis := make([]DirInfo, len(dirs))
	first := 0
	for i, d := range dirs {
		dis[i] = DirInfo{
			FirstFrame: first,
			Frames:     len(d.Entries),
			Records:    d.Records,
			StartNs:    int64(d.Start),
			EndNs:      int64(d.End),
		}
		first += len(d.Entries)
	}
	return jsonResponse(http.StatusOK, FrameList{Frames: fis, Dirs: dis})
}

// summaryErr turns a window summary over its cell budget into a 400:
// the request named more bins than this trace's types and lanes allow.
func summaryErr(err error) error {
	if errors.Is(err, interval.ErrSummaryBudget) {
		return badRequest("%v", err)
	}
	return err
}

// handleStats runs a statistics program over the trace. The default
// TSV body is byte-identical to what `utestats [-e expr] [-bins N]
// [-window lo:hi] <path>` prints on stdout: utestats's exact output
// loop over the exact tables the library generates. Extra query
// parameters: timeresolved=1 computes the three time-resolved metric tables over
// ?bins buckets instead of running a program (nobody picks the summary
// engine that answers them: summary= is ignored, as engine= is), and
// format=json wraps each table with the summary engine that answered
// and its excluded-record count, and reports how many frames the program
// evaluated, how many whole-frame partials it reused from the cache, and
// how many frames' records it fetched (a reused partial fetches none) —
// or, on a time-resolved request, how many frames the summary fetched
// (framesDecoded; framesEvaluated and partialsReused are 0).
func (s *Service) handleStats(ctx context.Context, q Query, t *Trace) (*response, error) {
	opts := interval.MapOptions{Context: ctx, Window: q.Window, Lo: q.Lo, Hi: q.Hi}
	var run stats.Run
	var err error
	// summaryDecoded is the frames the summary fetched, on a
	// time-resolved request only.
	var summaryDecoded *int
	if q.TimeResolved {
		run.Tables, err = stats.TimeResolved([]*interval.File{t.file}, q.Bins, opts)
		err = summaryErr(err)
		if err == nil && len(run.Tables) > 0 {
			tb := run.Tables[0]
			s.met.observeSummary(tb.Engine, tb.CellsUsed, tb.FramesDecoded)
			summaryDecoded = &tb.FramesDecoded
		}
	} else {
		program := q.Program
		if program == "" {
			program = stats.Predefined(q.Bins)
		}
		run, err = stats.GenerateRun(program, []*interval.File{t.file}, opts)
	}
	if err != nil {
		return nil, err
	}
	tables := run.Tables
	s.met.statsTables.Add(int64(len(tables)))
	s.met.statsFetched.Add(int64(run.FramesFetched))
	for _, tb := range tables {
		s.met.statsSkipped.Add(tb.Skipped)
	}
	if q.JSON {
		type tableJSON struct {
			Name    string `json:"name"`
			Engine  string `json:"engine,omitempty"`
			Group   string `json:"group,omitempty"`
			Exact   string `json:"exact,omitempty"`
			Skipped int64  `json:"skipped"`
			Rows    int    `json:"rows"`
			TSV     string `json:"tsv"`
		}
		body := struct {
			Tables          []tableJSON `json:"tables"`
			FramesEvaluated int         `json:"framesEvaluated"`
			PartialsReused  int         `json:"partialsReused"`
			FramesFetched   int         `json:"framesFetched"`
			FramesDecoded   *int        `json:"framesDecoded,omitempty"`
		}{Tables: make([]tableJSON, len(tables)), FramesEvaluated: run.FramesEvaluated, PartialsReused: run.PartialsReused, FramesFetched: run.FramesFetched, FramesDecoded: summaryDecoded}
		for i, tb := range tables {
			body.Tables[i] = tableJSON{Name: tb.Name, Engine: tb.Engine, Group: tb.Group, Skipped: tb.Skipped, Rows: len(tb.Rows), TSV: tb.TSV()}
			if !q.TimeResolved {
				body.Tables[i].Exact = fmt.Sprintf("%d/%d", tb.Exact, len(tb.YLabels))
			}
		}
		return jsonResponse(http.StatusOK, body)
	}
	// utestats's output loop, into a body allocated once at its size.
	tsvs, size := make([]string, len(tables)), 0
	for i, tb := range tables {
		tsvs[i] = tb.TSV()
		size += len("# table \n\n") + len(tb.Name) + len(tsvs[i])
	}
	body := make([]byte, 0, size)
	for i, tb := range tables {
		body = append(append(append(body, "# table "...), tb.Name...), '\n')
		body = append(append(body, tsvs[i]...), '\n')
	}
	return &response{status: http.StatusOK, contentType: "text/tab-separated-values; charset=utf-8", body: body}, nil
}

// handleRecords pages through the records overlapping a window. The
// total is counted from the directory wherever it can be: every record
// of a frame the window does not cut (any frame, unwindowed) overlaps
// the window. So the scan decodes only the frames holding the page's
// records and the frames the window cuts, each into a batch of the
// page's own: a record's extras and vector alias its frame's batch.
// ?count=1 skips the bodies and returns the total alone; a frame the
// window cuts is decoded into a pooled batch, touching no memo entry,
// and its overlapping records counted; a re-asked count is a whole
// stored answer. ?frames=lo:hi restricts the scan to the
// half-open frame-index range [lo, hi) of the flattened frame list — the
// shard router's scatter-gather legs use it so each backend touches only
// its own contiguous frame range.
func (s *Service) handleRecords(ctx context.Context, q Query, t *Trace) (*response, error) {
	frames := t.Frames()
	if q.Frames {
		if q.FrameHi > len(frames) {
			return nil, badRequest("bad frames %q", strconv.Itoa(q.FrameLo)+":"+strconv.Itoa(q.FrameHi))
		}
		frames = frames[q.FrameLo:q.FrameHi]
		s.met.rangeQueries.Add(1)
	}

	var out []RecordJSON
	if !q.Count {
		out = make([]RecordJSON, 0, min(q.Limit, 4096))
	}
	total := 0
	for _, fe := range frames {
		if q.Window && (fe.End < q.Lo || fe.Start > q.Hi) {
			continue
		}
		if (!q.Window || fe.Start >= q.Lo && fe.End <= q.Hi) &&
			(q.Count || total+int(fe.Records) <= q.Offset || total-q.Offset >= q.Limit) {
			total += int(fe.Records)
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if q.Count {
			b := scratchPool.Get().(*interval.Batch)
			err := t.file.DecodeFrameBatch(fe, b)
			for i := 0; err == nil && i < b.N; i++ {
				if b.End(i) >= q.Lo && b.Start[i] <= q.Hi {
					total++
				}
			}
			scratchPool.Put(b)
			if err != nil {
				return nil, err
			}
			continue
		}
		b, err := t.file.ReadFrameBatch(fe)
		if err != nil {
			return nil, err
		}
		for i := 0; i < b.N; i++ {
			if q.Window && (b.End(i) < q.Lo || b.Start[i] > q.Hi) {
				continue
			}
			n := total
			total++
			// n-offset, not offset+limit: the sum overflows for a huge limit.
			if n < q.Offset || n-q.Offset >= q.Limit {
				continue
			}
			rec := b.Row(i)
			out = append(out, RecordJSON{
				Type:    rec.Type.Name(),
				Bebits:  rec.Bebits.String(),
				StartNs: int64(rec.Start),
				DuraNs:  int64(rec.Dura),
				EndNs:   int64(rec.End()),
				CPU:     rec.CPU,
				Node:    rec.Node,
				Thread:  rec.Thread,
				Extra:   rec.Extra,
				Vec:     rec.Vec,
			})
		}
	}
	if q.Count {
		return jsonResponse(http.StatusOK, RecordCount{Count: total})
	}
	return jsonResponse(http.StatusOK, RecordsPage{Total: total, Offset: q.Offset, Records: out})
}

// handlePreview renders a time-space diagram of the trace, or — with
// view=preview — the histogram preview computed by the summary query
// planner (?bins=N; an engine= parameter is ignored). The SVG is
// byte-identical to `uteview -merged <path>` with the same flags: the
// same parse, the same open-ended-window resolution, the same build.
func (s *Service) handlePreview(ctx context.Context, q Query, t *Trace) (*response, error) {
	lo, hi, windowed := q.Lo, q.Hi, q.Window
	if windowed {
		// Open-ended sides resolve to the run bounds; explicit bounds are
		// kept even when they fall outside the run, so a window that
		// overlaps no records renders the empty placeholder instead of
		// snapping back to the full run through an inverted clamp.
		start, end, _ := t.Bounds()
		if lo == math.MinInt64 {
			lo = start
		}
		if hi == math.MaxInt64 {
			hi = end
		}
		if hi <= lo {
			hi = lo + 1
		}
	}
	if q.Preview {
		popts := render.PreviewOptions{Bins: q.Bins, Context: ctx}
		if windowed {
			popts.T0, popts.T1 = lo, hi
		}
		res, err := render.BuildPreview(t.file, popts)
		if err != nil {
			return nil, summaryErr(err)
		}
		s.met.observeSummary(res.Engine, res.CellsUsed, res.FramesDecoded)
		return &response{status: http.StatusOK, contentType: "image/svg+xml", body: []byte(render.PreviewSVG(res.Preview))}, nil
	}
	opts := render.Options{Connected: q.Connected, Context: ctx}
	if windowed {
		opts.T0, opts.T1 = lo, hi
	}
	d, err := render.BuildDiagram(t.file, q.View, opts)
	if err != nil {
		return nil, err
	}
	return &response{status: http.StatusOK, contentType: "image/svg+xml", body: []byte(d.SVG())}, nil
}

func (s *Service) handleMetrics(*http.Request) (*response, error) {
	var b bytes.Buffer
	s.met.writePrometheus(&b, s.cache.Stats(), int64(s.reg.Len()), s.reg.FramesDecoded())
	if s.ing != nil {
		writeIngestMetrics(&b, s.ing.mgr.Stats())
	}
	return &response{status: http.StatusOK, contentType: "text/plain; version=0.0.4; charset=utf-8", body: b.Bytes()}, nil
}
