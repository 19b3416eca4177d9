package tracesvc

import (
	"fmt"
	"sort"
	"sync"

	"tracefw/internal/clock"
	"tracefw/internal/interval"
)

// Trace is one registered interval file plus the metadata the serving
// layer keeps beside it: the file's flattened frame list, the per-
// directory split points, and the whole-run bounds. The embedded
// *interval.File is safe for concurrent window queries (its directory
// chain is resident from registration on, frames are positioned reads)
// and its frame decodes go through the shared cache via the decode hook.
type Trace struct {
	ID   string
	Path string
	// num is the cache key namespace for this registration; a reopened
	// path gets a fresh number, so stale cache entries can never serve.
	num    uint64
	file   *interval.File
	frames []interval.FrameEntry
	dirs   int
	// dirInfos maps each frame directory to its contiguous range in the
	// flattened frame list plus its aggregates — the boundaries the shard
	// router splits a huge trace at.
	dirInfos []DirInfo
	start    clock.Time
	end      clock.Time
	recs     int64
}

// File returns the underlying interval file.
func (t *Trace) File() *interval.File { return t.file }

// Frames returns the resident frame list; callers must not modify it.
func (t *Trace) Frames() []interval.FrameEntry { return t.frames }

// Bounds returns the run's first start time, last end time, and record
// count, from directory metadata resident since registration.
func (t *Trace) Bounds() (clock.Time, clock.Time, int64) { return t.start, t.end, t.recs }

// Registry holds the opened traces. IDs are small and stable ("t1",
// "t2", …) in registration order; closing a trace frees its slot but
// never recycles the cache namespace.
type Registry struct {
	cache *FrameCache

	mu       sync.RWMutex
	byID     map[string]*Trace
	liveByID map[string]*liveEntry
	nextID   uint64
}

// NewRegistry builds an empty registry whose traces decode frames
// through the given cache.
func NewRegistry(cache *FrameCache) *Registry {
	return &Registry{
		cache:    cache,
		byID:     make(map[string]*Trace),
		liveByID: make(map[string]*liveEntry),
	}
}

// Open opens and registers the interval file at path: the directory
// chain is read, and the cache decode hook installed, before the trace
// becomes visible to queries. Files that cannot serve concurrent (positioned) frame reads
// are rejected; every real file and SeekBuffer can.
func (r *Registry) Open(path string) (*Trace, error) {
	f, err := interval.Open(path)
	if err != nil {
		return nil, err
	}
	t, err := r.register(path, f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

// register wires an already-open file into the registry (Open's tail;
// tests use it with in-memory files). A failed registration burns the
// allocated ID — IDs stay stable and unrecycled either way.
func (r *Registry) register(path string, f *interval.File) (*Trace, error) {
	r.mu.Lock()
	r.nextID++
	id, num := fmt.Sprintf("t%d", r.nextID), r.nextID
	r.mu.Unlock()
	t, err := buildTrace(id, path, num, f, r.cache)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.byID[t.ID] = t
	r.mu.Unlock()
	return t, nil
}

// buildTrace assembles the resident Trace of an open file — shared by
// static registration and live-snapshot resolution (which reuses one
// cache namespace across generations).
func buildTrace(id, path string, num uint64, f *interval.File, cache *FrameCache) (*Trace, error) {
	if !f.ConcurrentReads() {
		return nil, fmt.Errorf("tracesvc: %s: reader does not support concurrent frame reads", path)
	}
	frames, err := f.Frames()
	if err != nil {
		return nil, err
	}
	start, end, recs, err := f.Stats()
	if err != nil {
		return nil, err
	}
	dirs, err := f.Dirs()
	if err != nil {
		return nil, err
	}
	dirInfos := make([]DirInfo, len(dirs))
	first := 0
	for i, d := range dirs {
		dirInfos[i] = DirInfo{
			FirstFrame: first,
			Frames:     len(d.Entries),
			Records:    d.Records,
			StartNs:    int64(d.Start),
			EndNs:      int64(d.End),
		}
		first += len(d.Entries)
	}
	t := &Trace{
		ID:       id,
		Path:     path,
		num:      num,
		file:     f,
		frames:   frames,
		dirs:     len(dirs),
		dirInfos: dirInfos,
		start:    start,
		end:      end,
		recs:     recs,
	}
	// The hook makes every frame decode — map-reduce engine, scanners,
	// FrameBatch — hit the shared cache. Installed before the trace is
	// published, never changed after, as SetFrameDecoder requires.
	f.SetFrameDecoder(func(f *interval.File, fe interval.FrameEntry) (*interval.Batch, error) {
		return cache.Get(num, fe.Offset, func() (*interval.Batch, error) {
			return f.ReadFrameBatch(fe)
		})
	})
	return t, nil
}

// Get looks a static trace up by ID (live traces resolve via Resolve).
func (r *Registry) Get(id string) (*Trace, bool) {
	r.mu.RLock()
	t, ok := r.byID[id]
	r.mu.RUnlock()
	return t, ok
}

// Resolve looks a trace up by ID, resolving live traces to a snapshot
// of their newest seal generation.
func (r *Registry) Resolve(id string) (*Trace, error) {
	r.mu.RLock()
	t, ok := r.byID[id]
	var e *liveEntry
	if !ok {
		e, ok = r.liveByID[id]
	}
	r.mu.RUnlock()
	if !ok {
		return nil, notFound(id)
	}
	if e != nil {
		return e.resolve(r.cache)
	}
	return t, nil
}

// List returns the registered traces in ID (registration) order. Live
// traces appear as their newest resolved snapshot; ones with no sealed
// data yet (or whose resolution fails) are omitted.
func (r *Registry) List() []*Trace {
	r.mu.RLock()
	ts := make([]*Trace, 0, len(r.byID)+len(r.liveByID))
	for _, t := range r.byID {
		ts = append(ts, t)
	}
	lives := make([]*liveEntry, 0, len(r.liveByID))
	for _, e := range r.liveByID {
		lives = append(lives, e)
	}
	r.mu.RUnlock()
	for _, e := range lives {
		if t, err := e.resolve(r.cache); err == nil {
			ts = append(ts, t)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].num < ts[j].num })
	return ts
}

// Len returns the number of registered traces (live ones included).
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byID) + len(r.liveByID)
}

// Close unregisters a trace, drops its cached frames, and closes the
// file. In-flight queries against it fail with interval.ErrClosed —
// promptly and safely, never with a crash — which handlers map to 503.
func (r *Registry) Close(id string) bool {
	r.mu.Lock()
	t, ok := r.byID[id]
	if ok {
		delete(r.byID, id)
	}
	var e *liveEntry
	if !ok {
		if e, ok = r.liveByID[id]; ok {
			delete(r.liveByID, id)
		}
	}
	r.mu.Unlock()
	if !ok {
		return false
	}
	if e != nil {
		e.close()
		r.cache.InvalidateFile(e.num)
		return true
	}
	r.cache.InvalidateFile(t.num)
	t.file.Close()
	return true
}

// CloseAll closes every registered trace (daemon shutdown), including
// live ones that never sealed any data.
func (r *Registry) CloseAll() {
	r.mu.RLock()
	ids := make([]string, 0, len(r.byID)+len(r.liveByID))
	for id := range r.byID {
		ids = append(ids, id)
	}
	for id := range r.liveByID {
		ids = append(ids, id)
	}
	r.mu.RUnlock()
	for _, id := range ids {
		r.Close(id)
	}
}

// framesDecoded sums the frame payload reads of every registered trace
// — the warm/cold proof counter exported via /metrics. Live traces
// count their current snapshot without forcing a resolve.
func (r *Registry) framesDecoded() int64 {
	r.mu.RLock()
	files := make([]*interval.File, 0, len(r.byID)+len(r.liveByID))
	for _, t := range r.byID {
		files = append(files, t.file)
	}
	for _, e := range r.liveByID {
		if f := e.file(); f != nil {
			files = append(files, f)
		}
	}
	r.mu.RUnlock()
	var n int64
	for _, f := range files {
		n += f.DecodedFrames()
	}
	return n
}
