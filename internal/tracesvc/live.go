package tracesvc

// Live traces: a trace still being written by the streaming ingest
// pipeline is registered through AddLive with a provider instead of a
// finished file. Every query resolves the provider's latest seal
// generation to an interval snapshot opened with WithLiveTail, so
// readers observe the live tail the moment a frame seals, and never a
// torn suffix.
//
// Cache coherence across seals needs no invalidation: the writer's
// steady state is append-only, so a sealed frame's bytes at a given
// offset never change, and whole-frame partials keyed by the entry's
// stable namespace number stay valid across generations: each key names
// whatever else its value depends on (the run bounds among them), and a
// whole answer's names the generation. Only closing the live trace
// invalidates its namespace.

// LiveProvider is what the registry needs from an ingest session; it is
// structural so the ingest package does not import the serving layer.
// Ready turns true once the merged header is on disk (the first seal);
// gen increases monotonically with every seal.
type LiveProvider interface {
	LiveInfo() (path string, sealedSize int64, gen uint64, ready bool)
}

// liveRetireRing is how many superseded snapshot files stay open for
// queries that still hold them; older ones are closed, failing those
// queries with interval.ErrClosed (mapped to 503, a retry resolves the
// fresh snapshot).
const liveRetireRing = 8
