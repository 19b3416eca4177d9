package shard

import (
	"fmt"
	"io"

	"tracefw/internal/promtext"
)

// routerMetrics is everything the router's /metrics exposes, rendered
// with the same hand-rolled kit tracesvc uses (internal/promtext) so a
// fleet scrape sees one consistent text format.
type routerMetrics struct {
	// per-backend slices are sized at construction and never resized, so
	// the request path indexes them without a lock.
	requests []promtext.Counter
	errors   []promtext.Counter
	latency  []promtext.Histogram
	retries  promtext.Counter
	scatter  promtext.Counter
	affinity promtext.Counter
	ringSize int
	names    []string
}

func newRouterMetrics(names []string, ringSize int) *routerMetrics {
	return &routerMetrics{
		requests: make([]promtext.Counter, len(names)),
		errors:   make([]promtext.Counter, len(names)),
		latency:  make([]promtext.Histogram, len(names)),
		ringSize: ringSize,
		names:    names,
	}
}

// writePrometheus renders the router metrics in Prometheus text
// exposition format, families in a fixed order so scrapes are diffable.
func (m *routerMetrics) writePrometheus(w io.Writer, up []bool) {
	promtext.Header(w, "uterouter_ring_points", "gauge", "Consistent-hash ring points (backends x virtual nodes).")
	fmt.Fprintf(w, "uterouter_ring_points %d\n", m.ringSize)
	promtext.Header(w, "uterouter_backend_up", "gauge", "Backend readiness as of the last health poll (1 = routable).")
	for i, name := range m.names {
		v := 0
		if up[i] {
			v = 1
		}
		fmt.Fprintf(w, "uterouter_backend_up{backend=%q} %d\n", name, v)
	}
	promtext.Header(w, "uterouter_backend_requests_total", "counter", "Requests sent to each backend (scatter legs, proxied queries, opens).")
	for i, name := range m.names {
		fmt.Fprintf(w, "uterouter_backend_requests_total{backend=%q} %d\n", name, m.requests[i].Value())
	}
	promtext.Header(w, "uterouter_backend_errors_total", "counter", "Transport failures talking to each backend (HTTP error statuses are responses, not errors).")
	for i, name := range m.names {
		fmt.Fprintf(w, "uterouter_backend_errors_total{backend=%q} %d\n", name, m.errors[i].Value())
	}
	promtext.Header(w, "uterouter_backend_seconds", "histogram", "Backend request latency as observed by the router, by backend.")
	for i, name := range m.names {
		m.latency[i].WriteBuckets(w, "uterouter_backend_seconds", fmt.Sprintf("backend=%q", name))
	}
	promtext.Header(w, "uterouter_scatter_queries_total", "counter", "Queries answered by scatter-gathering segment legs and merging in frame order.")
	fmt.Fprintf(w, "uterouter_scatter_queries_total %d\n", m.scatter.Value())
	promtext.Header(w, "uterouter_affinity_queries_total", "counter", "Queries routed whole to one deterministic segment owner (aggregations: the router has no partial merge for them yet, and peak concurrency is not a sum of per-segment peaks).")
	fmt.Fprintf(w, "uterouter_affinity_queries_total %d\n", m.affinity.Value())
	promtext.Header(w, "uterouter_retries_total", "counter", "Legs re-sent to another backend after a transport failure.")
	fmt.Fprintf(w, "uterouter_retries_total %d\n", m.retries.Value())
}
