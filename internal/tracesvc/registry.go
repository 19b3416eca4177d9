package tracesvc

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"tracefw/internal/clock"
	"tracefw/internal/interval"
)

// Trace is one snapshot of a registered interval file as queries see
// it. It keeps no metadata of its own: the frame list, the directories
// and the run bounds are the file's resident index, which registration
// has already proven loads. The *interval.File is safe for concurrent
// window queries (frames are positioned reads), and the values memoized
// from its frames go to the shared cache, its frame source.
type Trace struct {
	ID   string
	Path string
	// num is the cache key namespace for this registration; a reopened
	// path gets a fresh number, so stale cache entries can never serve.
	num uint64
	// gen is the seal generation a live trace's snapshot shows, 0 for a
	// static trace: with num it names everything an answer depends on.
	gen  uint64
	file *interval.File
}

// File returns the underlying interval file.
func (t *Trace) File() *interval.File { return t.file }

// Frames returns the file's resident frame list; callers must not
// modify it.
func (t *Trace) Frames() []interval.FrameEntry {
	fes, _ := t.file.Frames() // resident since registration: cannot fail
	return fes
}

// Bounds returns the run's first start time, last end time, and record
// count, from the resident directory metadata.
func (t *Trace) Bounds() (clock.Time, clock.Time, int64) {
	start, end, recs, _ := t.file.Stats() // resident, as in Frames
	return start, end, recs
}

// Registry holds the opened traces. IDs are small and stable ("t1",
// "t2", …) in registration order; closing a trace frees its slot but
// never recycles the cache namespace.
type Registry struct {
	cache *FrameCache
	// files is every open snapshot file and closedReads the frame
	// payloads read from the files closed so far: together, the frames
	// decoded on behalf of every trace ever registered (FramesDecoded).
	filesMu     sync.Mutex
	files       map[*interval.File]struct{}
	closedReads int64

	mu     sync.RWMutex
	byID   map[string]*entry
	nextID uint64
}

// entry is one registered trace: the snapshot queries currently resolve
// to and, for a live trace, the provider that says when a newer one
// exists. A static trace is an entry with no provider, whose snapshot
// therefore never changes.
type entry struct {
	id   string
	num  uint64 // cache namespace, stable across seal generations
	prov LiveProvider

	mu      sync.Mutex
	closed  bool
	gen     uint64
	cur     *Trace
	retired []*interval.File
}

// NewRegistry builds an empty registry whose traces memoize through the
// given cache.
func NewRegistry(cache *FrameCache) *Registry {
	return &Registry{cache: cache, files: make(map[*interval.File]struct{}), byID: make(map[string]*entry)}
}

// newEntry allocates the next ID and cache namespace. The entry is not
// visible to queries until it is put into byID.
func (r *Registry) newEntry(prov LiveProvider) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return &entry{id: fmt.Sprintf("t%d", r.nextID), num: r.nextID, prov: prov}
}

// Open opens and registers the interval file at path: the directory
// chain is read, and the cache installed as its frame source, before
// the trace becomes visible to queries. Files that cannot serve concurrent
// (positioned) frame reads are rejected; every real file and SeekBuffer
// can. A failed registration burns the allocated ID — IDs stay stable
// and unrecycled either way.
func (r *Registry) Open(path string) (*Trace, error) {
	f, err := interval.Open(path)
	if err != nil {
		return nil, err
	}
	e := r.newEntry(nil)
	if e.cur, err = r.snapshot(e, path, f); err != nil {
		f.Close()
		return nil, err
	}
	r.mu.Lock()
	r.byID[e.id] = e
	r.mu.Unlock()
	return e.cur, nil
}

// AddLive registers a live trace and returns its ID. The trace becomes
// queryable once the provider reports ready; until then queries get 503.
func (r *Registry) AddLive(prov LiveProvider) string {
	e := r.newEntry(prov)
	r.mu.Lock()
	r.byID[e.id] = e
	r.mu.Unlock()
	return e.id
}

// snapshot makes an open file servable as e's trace: its directory
// chain is proven to load, and its frame source — every value memoized
// per frame (whole frames' stats partials) — is the shared cache under
// e's namespace (installed before the trace is published, never changed
// after, as SetFrameSource requires). The namespace outlives seal
// generations, and so may memoized values: a sealed frame's bytes never
// change, and each memo key names whatever else its value depends on
// (the stats keys, the run bounds). The file joins the ones
// FramesDecoded counts.
func (r *Registry) snapshot(e *entry, path string, f *interval.File) (*Trace, error) {
	if !f.ConcurrentReads() {
		return nil, fmt.Errorf("tracesvc: %s: reader does not support concurrent frame reads", path)
	}
	if _, err := f.Frames(); err != nil {
		return nil, err
	}
	f.SetFrameSource(frameSource{r.cache, e.num})
	r.filesMu.Lock()
	r.files[f] = struct{}{}
	r.filesMu.Unlock()
	return &Trace{ID: e.id, Path: path, num: e.num, file: f}, nil
}

// closeFile closes a snapshot file and carries its frame reads over to
// closedReads, so FramesDecoded never goes down.
func (r *Registry) closeFile(f *interval.File) {
	f.Close()
	r.filesMu.Lock()
	delete(r.files, f)
	r.closedReads += f.DecodedFrames()
	r.filesMu.Unlock()
}

// FramesDecoded returns how many frame payloads have been read from the
// files of every trace ever registered: the open snapshots' reads plus
// those of every file closed before. It never goes down.
func (r *Registry) FramesDecoded() int64 {
	r.filesMu.Lock()
	defer r.filesMu.Unlock()
	n := r.closedReads
	for f := range r.files {
		n += f.DecodedFrames()
	}
	return n
}

// frameSource is one trace's interval.FrameSource: the registry's shared
// cache under the trace's namespace.
type frameSource struct {
	cache *FrameCache
	num   uint64
}

func (s frameSource) Memo(ctx context.Context, f *interval.File, fe interval.FrameEntry, key string, compute func(*interval.Batch, bool) (any, int64, error)) (any, bool, error) {
	return s.cache.Memo(ctx, s.num, fe.Offset, key, func(dst *interval.Batch) error { return f.DecodeFrameBatch(fe, dst) }, compute)
}

// resolve returns e's current trace. With a provider it is the snapshot
// of the provider's newest seal generation, reopened only when the
// generation advanced since the last call; because a finished file's
// WithLiveTail(final size) view is identical to a plain open, a
// completed ingest keeps serving through its last snapshot with no
// handover.
func (e *entry) resolve(r *Registry) (*Trace, error) {
	var (
		path string
		size int64
		gen  uint64
	)
	if e.prov != nil {
		var ready bool
		if path, size, gen, ready = e.prov.LiveInfo(); !ready {
			// retryAfter tells clients when to poll again: the first frame
			// group usually seals within a second of ingest starting.
			return nil, &httpErr{code: http.StatusServiceUnavailable,
				msg:        fmt.Sprintf("live trace %s has no sealed data yet", e.id),
				retryAfter: 1}
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, notFound(e.id)
	}
	if e.cur != nil && e.gen == gen {
		return e.cur, nil
	}
	f, err := interval.Open(path, interval.WithLiveTail(size), interval.WithPyramid(false))
	if err != nil {
		return nil, fmt.Errorf("tracesvc: live snapshot %s@%d: %w", path, size, err)
	}
	t, err := r.snapshot(e, path, f)
	if err != nil {
		f.Close()
		return nil, err
	}
	t.gen = gen
	if e.cur != nil {
		e.retired = append(e.retired, e.cur.file)
		if len(e.retired) > liveRetireRing {
			r.closeFile(e.retired[0])
			e.retired = e.retired[1:]
		}
	}
	e.cur, e.gen = t, gen
	return t, nil
}

// close shuts the current snapshot and every retired one; a query that
// looked e up before it left the registry finds it gone.
func (e *entry) close(r *Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	if e.cur != nil {
		r.closeFile(e.cur.file)
	}
	for _, f := range e.retired {
		r.closeFile(f)
	}
	e.retired = nil
}

// Resolve looks a trace up by ID; a live trace resolves to a snapshot
// of its newest seal generation.
func (r *Registry) Resolve(id string) (*Trace, error) {
	r.mu.RLock()
	e, ok := r.byID[id]
	r.mu.RUnlock()
	if !ok {
		return nil, notFound(id)
	}
	return e.resolve(r)
}

// entries returns the registered entries, in no particular order.
func (r *Registry) entries() []*entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	es := make([]*entry, 0, len(r.byID))
	for _, e := range r.byID {
		es = append(es, e)
	}
	return es
}

// List returns the registered traces in ID (registration) order, each
// as Resolve would return it; ones that do not resolve (a live trace
// with no sealed data yet) are omitted.
func (r *Registry) List() []*Trace {
	var ts []*Trace
	for _, e := range r.entries() {
		if t, err := e.resolve(r); err == nil {
			ts = append(ts, t)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].num < ts[j].num })
	return ts
}

// Len returns the number of registered traces, resolvable or not.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byID)
}

// Close unregisters a trace, closes its files, and drops its memoized
// values and answers. In-flight queries against it fail with interval.ErrClosed —
// promptly and safely, never with a crash — which handlers map to 503.
func (r *Registry) Close(id string) bool {
	r.mu.Lock()
	e, ok := r.byID[id]
	delete(r.byID, id)
	r.mu.Unlock()
	if !ok {
		return false
	}
	e.close(r)
	r.cache.InvalidateFile(e.num)
	return true
}

// CloseAll closes every registered trace (daemon shutdown), including
// live ones that never sealed any data.
func (r *Registry) CloseAll() {
	for _, e := range r.entries() {
		r.Close(e.id)
	}
}
