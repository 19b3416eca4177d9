package tracesvc

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"tracefw/internal/ingest"
	"tracefw/internal/promtext"
)

// /metrics is rendered with the shared hand-rolled Prometheus kit
// (internal/promtext): atomic counters and gauges plus fixed-bucket
// latency histograms, families in a fixed order and endpoint labels
// sorted, so scrapes are diffable.

// metrics aggregates everything /metrics exposes. Per-endpoint
// histograms and request counters are created up front for the fixed
// endpoint set, so no lock is needed on the request path.
type metrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
	// Stats counters: tables produced and the running total of records
	// excluded because an expression referenced a field they lack.
	statsTables  promtext.Counter
	statsSkipped promtext.Counter
	// statsFetched counts the frames stats programs fetched the records
	// of: evaluated frames, never those a memoized partial answered.
	statsFetched promtext.Counter
	// Summary-planner counters: queries answered from pyramid cells vs
	// by the frame-scan fallback, plus what each cost.
	summaryPyramid promtext.Counter
	summaryScan    promtext.Counter
	summaryCells   promtext.Counter
	summaryFrames  promtext.Counter
	// rangeQueries counts requests that restricted their scan to an
	// explicit frame-index range (?frames=lo:hi) — the shard router's
	// scatter-gather legs, so a backend can tell fan-out traffic from
	// whole-trace queries.
	rangeQueries promtext.Counter
	// answersBypass counts requests to an endpoint that memoizes answers
	// whose own answer is not memoized (a JSON /stats, a /records page).
	answersBypass promtext.Counter
}

// observeSummary records one summary-planner query (a preview build or
// a time-resolved stats run): the engine that answered it, the pyramid
// cells it consulted and the frames it fetched.
func (m *metrics) observeSummary(engine string, cells, frames int) {
	if engine == "pyramid" {
		m.summaryPyramid.Add(1)
	} else {
		m.summaryScan.Add(1)
	}
	m.summaryCells.Add(int64(cells))
	m.summaryFrames.Add(int64(frames))
}

type endpointMetrics struct {
	requests promtext.Counter
	errors   promtext.Counter
	latency  promtext.Histogram
}

func newMetrics() *metrics {
	return &metrics{endpoints: make(map[string]*endpointMetrics)}
}

// endpoint returns (registering on first use) the metrics bundle for a
// named endpoint. Registration happens once per endpoint at mux setup,
// so the lock never contends with request traffic.
func (m *metrics) endpoint(name string) *endpointMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	em := m.endpoints[name]
	if em == nil {
		em = &endpointMetrics{}
		m.endpoints[name] = em
	}
	return em
}

// writePrometheus renders every metric in Prometheus text exposition
// format.
func (m *metrics) writePrometheus(w io.Writer, cache CacheStats, tracesOpen int64, framesDecoded int64) {
	promtext.Header(w, "tracesvc_cache_hits_total", "counter", "Decoded-frame cache hits (including singleflight waiters).")
	fmt.Fprintf(w, "tracesvc_cache_hits_total %d\n", cache.Hits)
	promtext.Header(w, "tracesvc_cache_misses_total", "counter", "Decoded-frame cache misses (each one decode).")
	fmt.Fprintf(w, "tracesvc_cache_misses_total %d\n", cache.Misses)
	promtext.Header(w, "tracesvc_cache_admissions_total", "counter", "Cache misses by what the decode left: a once-seen marker (a frame's first use, decoded into the caller's scratch), a stored frame (its second use, or a first use that lent no scratch), or nothing (a frame read only to compute a memoized value).")
	fmt.Fprintf(w, "tracesvc_cache_admissions_total{result=\"once\"} %d\n", cache.AdmittedOnce)
	fmt.Fprintf(w, "tracesvc_cache_admissions_total{result=\"stored\"} %d\n", cache.AdmittedStored)
	fmt.Fprintf(w, "tracesvc_cache_admissions_total{result=\"none\"} %d\n", cache.AdmittedNone)
	promtext.Header(w, "tracesvc_cache_evictions_total", "counter", "Frames evicted to stay under the byte budget.")
	fmt.Fprintf(w, "tracesvc_cache_evictions_total %d\n", cache.Evictions)
	promtext.Header(w, "tracesvc_cache_bytes_resident", "gauge", "Bytes of decoded frame batches resident in the cache (exact column footprint), plus 128 per once-seen frame marker.")
	fmt.Fprintf(w, "tracesvc_cache_bytes_resident %d\n", cache.Bytes)
	promtext.Header(w, "tracesvc_cache_frames_resident", "gauge", "Decoded frames resident in the cache.")
	fmt.Fprintf(w, "tracesvc_cache_frames_resident %d\n", cache.Entries)
	promtext.Header(w, "tracesvc_traces_open", "gauge", "Trace files currently registered.")
	fmt.Fprintf(w, "tracesvc_traces_open %d\n", tracesOpen)
	promtext.Header(w, "tracesvc_frames_decoded_total", "counter", "Frame payload reads across all registered traces.")
	fmt.Fprintf(w, "tracesvc_frames_decoded_total %d\n", framesDecoded)
	promtext.Header(w, "tracesvc_stats_tables_total", "counter", "Statistics tables produced.")
	fmt.Fprintf(w, "tracesvc_stats_tables_total %d\n", m.statsTables.Value())
	promtext.Header(w, "tracesvc_stats_records_skipped_total", "counter", "Records excluded from statistics tables because an expression referenced a field their state type does not carry.")
	fmt.Fprintf(w, "tracesvc_stats_records_skipped_total %d\n", m.statsSkipped.Value())
	promtext.Header(w, "tracesvc_stats_frames_fetched_total", "counter", "Frames whose records statistics programs fetched (from the frame cache or a decode); a frame answered by a memoized partial is not fetched.")
	fmt.Fprintf(w, "tracesvc_stats_frames_fetched_total %d\n", m.statsFetched.Value())
	promtext.Header(w, "tracesvc_stats_partials_total", "counter", "Memo lookups of whole-frame stats partials: reused from the memo (hit), evaluated (miss), and evaluations stored (the second under a key).")
	fmt.Fprintf(w, "tracesvc_stats_partials_total{result=\"hit\"} %d\n", cache.PartialHits)
	fmt.Fprintf(w, "tracesvc_stats_partials_total{result=\"miss\"} %d\n", cache.PartialMisses)
	fmt.Fprintf(w, "tracesvc_stats_partials_total{result=\"stored\"} %d\n", cache.PartialsStored)
	promtext.Header(w, "tracesvc_stats_partials_bytes_resident", "gauge", "Bytes of the cache budget charged to stored whole-frame stats partials and their once-seen memo keys.")
	fmt.Fprintf(w, "tracesvc_stats_partials_bytes_resident %d\n", cache.PartialBytes)
	promtext.Header(w, "tracesvc_answers_total", "counter", "Requests to the answer-memoizing endpoints (/stats, /preview.svg, /records?count=1): answered by a stored answer (hit), computed leaving a once-seen marker (once), computed and stored (stored, the second asking), and not memoized at all (bypass: a JSON /stats, a /records page).")
	fmt.Fprintf(w, "tracesvc_answers_total{result=\"hit\"} %d\n", cache.AnswerHits)
	fmt.Fprintf(w, "tracesvc_answers_total{result=\"once\"} %d\n", cache.AnswersOnce)
	fmt.Fprintf(w, "tracesvc_answers_total{result=\"stored\"} %d\n", cache.AnswersStored)
	fmt.Fprintf(w, "tracesvc_answers_total{result=\"bypass\"} %d\n", m.answersBypass.Value())
	promtext.Header(w, "tracesvc_answers_bytes_resident", "gauge", "Bytes of the cache budget charged to stored answers and once-seen answer keys.")
	fmt.Fprintf(w, "tracesvc_answers_bytes_resident %d\n", cache.AnswerBytes)
	promtext.Header(w, "tracesvc_summary_queries_total", "counter", "Summary-planner queries (previews, time-resolved tables), by answering engine.")
	fmt.Fprintf(w, "tracesvc_summary_queries_total{engine=\"pyramid\"} %d\n", m.summaryPyramid.Value())
	fmt.Fprintf(w, "tracesvc_summary_queries_total{engine=\"scan\"} %d\n", m.summaryScan.Value())
	promtext.Header(w, "tracesvc_summary_pyramid_cells_total", "counter", "Pyramid cells consulted by summary-planner queries.")
	fmt.Fprintf(w, "tracesvc_summary_pyramid_cells_total %d\n", m.summaryCells.Value())
	promtext.Header(w, "tracesvc_summary_frames_decoded_total", "counter", "Frames fetched by summary-planner queries (scan fallbacks and pyramid window edges).")
	fmt.Fprintf(w, "tracesvc_summary_frames_decoded_total %d\n", m.summaryFrames.Value())
	promtext.Header(w, "tracesvc_range_queries_total", "counter", "Requests restricted to an explicit frame-index range (?frames=lo:hi) — the shard router's scatter-gather legs.")
	fmt.Fprintf(w, "tracesvc_range_queries_total %d\n", m.rangeQueries.Value())

	m.mu.Lock()
	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	ems := make([]*endpointMetrics, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		ems = append(ems, m.endpoints[name])
	}
	m.mu.Unlock()

	promtext.Header(w, "tracesvc_requests_total", "counter", "Requests served, by endpoint.")
	for i, name := range names {
		fmt.Fprintf(w, "tracesvc_requests_total{endpoint=%q} %d\n", name, ems[i].requests.Value())
	}
	promtext.Header(w, "tracesvc_request_errors_total", "counter", "Requests answered with a 4xx/5xx status, by endpoint.")
	for i, name := range names {
		fmt.Fprintf(w, "tracesvc_request_errors_total{endpoint=%q} %d\n", name, ems[i].errors.Value())
	}
	promtext.Header(w, "tracesvc_request_seconds", "histogram", "Request latency, by endpoint.")
	for i, name := range names {
		ems[i].latency.WriteBuckets(w, "tracesvc_request_seconds", fmt.Sprintf("endpoint=%q", name))
	}
}

// writeIngestMetrics appends the streaming-ingest counters; only
// emitted when ingest is enabled, so scrapes of a query-only daemon are
// unchanged.
func writeIngestMetrics(w io.Writer, st ingest.Stats) {
	promtext.Header(w, "tracesvc_ingest_sessions_active", "gauge", "Live traces currently being ingested.")
	fmt.Fprintf(w, "tracesvc_ingest_sessions_active %d\n", st.SessionsActive)
	promtext.Header(w, "tracesvc_ingest_sessions_done_total", "counter", "Ingest sessions completed (all nodes finished or drained).")
	fmt.Fprintf(w, "tracesvc_ingest_sessions_done_total %d\n", st.SessionsDone)
	promtext.Header(w, "tracesvc_ingest_sessions_failed_total", "counter", "Ingest sessions that failed or were aborted (their sealed prefix stays valid).")
	fmt.Fprintf(w, "tracesvc_ingest_sessions_failed_total %d\n", st.SessionsFailed)
	promtext.Header(w, "tracesvc_ingest_batches_total", "counter", "Batches accepted across all sessions.")
	fmt.Fprintf(w, "tracesvc_ingest_batches_total %d\n", st.Batches)
	promtext.Header(w, "tracesvc_ingest_bytes_total", "counter", "Raw batch bytes accepted across all sessions.")
	fmt.Fprintf(w, "tracesvc_ingest_bytes_total %d\n", st.Bytes)
	promtext.Header(w, "tracesvc_ingest_records_total", "counter", "Raw event records decoded across all sessions.")
	fmt.Fprintf(w, "tracesvc_ingest_records_total %d\n", st.Records)
	promtext.Header(w, "tracesvc_ingest_seals_total", "counter", "Frame-group seals published by live writers (each one advances the queryable tail).")
	fmt.Fprintf(w, "tracesvc_ingest_seals_total %d\n", st.Seals)
	promtext.Header(w, "tracesvc_ingest_errors_total", "counter", "Rejected ingest requests (bad sequence, oversized batch, contract violations).")
	fmt.Fprintf(w, "tracesvc_ingest_errors_total %d\n", st.Errors)
}
