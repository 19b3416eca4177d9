// Package ingest is the streaming write path of the trace service: it
// accepts raw per-node event batches over HTTP (POSTed by the nodes of
// a running simulation), converts them incrementally with the streaming
// converter, aligns per-node clocks, fans the adjusted records into a
// live k-way merge, and seals v4 frames as directories fill — so window
// queries observe the live tail of a trace the moment a frame seals.
//
// The pipeline reuses the batch machinery layer for layer — the
// streaming converter shares the batch converter's event logic, the
// live merge shares the batch merge's write loop and pseudo-interval
// tracker, and the interval writer's steady state is append-only — so a
// completed ingest is byte-identical to running convert→merge (with
// EstimatorNone clock adjustment) over the same per-node streams, and
// any prefix of an in-flight file is a valid interval file.
//
// Contract per trace: a begin request declares the node count; each
// node then posts sequence-numbered byte batches of its raw trace
// stream. Batch 0 is the node's preamble — the raw trace header plus
// whole records containing every thread-info record and every marker
// definition string the node will ever use. Once all preambles have
// arrived (the header barrier), marker identifiers are assigned in
// node-then-first-seen order (exactly the batch pipeline's
// canonicalization), the merged header is written, and record
// streaming begins. Later batches may split records arbitrarily.
package ingest

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"

	"tracefw/internal/interval"
)

// SinkFile is the write target of a live trace — the subset of *os.File
// the live merge needs. Tests inject recording or fault-injecting
// writers through Config.Create.
type SinkFile interface {
	io.Writer
	io.Seeker
	Sync() error
	Close() error
}

// Config tunes the ingest manager.
type Config struct {
	// Dir is where live trace files are created (<name>.ute).
	Dir string
	// MaxBatchBytes bounds one POSTed batch (default 8 MiB).
	MaxBatchBytes int64
	// PendingBatches is the per-node reordering window: how many
	// out-of-order batches may wait for a gap to fill (default 32).
	PendingBatches int
	// QueueRecords is the per-node live-source capacity in records
	// (default 4096); full queues backpressure the node's POSTs.
	QueueRecords int
	// GateRecords bounds how many records a node may emit before its
	// first global-clock pair fixes the clock offset (default 1<<20).
	GateRecords int
	// Writer is the default frame sizing for live traces; a begin
	// request may override FrameBytes/FramesPerDir per trace.
	Writer interval.WriterOptions
	// Create opens a live trace's file for writing; nil means
	// os.Create. The crash harness injects fault writers here.
	Create func(path string) (SinkFile, error)
}

func (c Config) create(path string) (SinkFile, error) {
	if c.Create != nil {
		return c.Create(path)
	}
	return os.Create(path)
}

func (c Config) maxBatchBytes() int64 {
	if c.MaxBatchBytes <= 0 {
		return 8 << 20
	}
	return c.MaxBatchBytes
}

func (c Config) pendingBatches() int {
	if c.PendingBatches <= 0 {
		return 32
	}
	return c.PendingBatches
}

func (c Config) gateRecords() int {
	if c.GateRecords <= 0 {
		return 1 << 20
	}
	return c.GateRecords
}

// Errors mapped to HTTP statuses by the serving layer.
var (
	ErrBadName      = errors.New("ingest: bad trace name")
	ErrExists       = errors.New("ingest: trace already being ingested")
	ErrUnknownTrace = errors.New("ingest: unknown trace")
	ErrUnknownNode  = errors.New("ingest: node index out of range")
	ErrDuplicate    = errors.New("ingest: duplicate batch sequence number")
	ErrWindow       = errors.New("ingest: batch too far ahead of the sequence window")
	ErrTooLarge     = errors.New("ingest: batch exceeds the size limit")
	ErrFinished     = errors.New("ingest: node already posted its last batch")
	ErrSessionDone  = errors.New("ingest: session already complete")
	ErrAborted      = errors.New("ingest: session aborted")
	ErrDraining     = errors.New("ingest: server draining")
)

// traceName restricts trace names to a safe path component.
var traceName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// ValidName reports whether a trace name is acceptable (no path
// separators, no leading dot, bounded length).
func ValidName(name string) bool { return traceName.MatchString(name) }

// Stats is a snapshot of the manager's counters for /metrics.
type Stats struct {
	SessionsActive int
	SessionsDone   int64
	SessionsFailed int64
	Batches        int64
	Bytes          int64
	Records        int64
	Seals          int64
	Errors         int64
}

// Manager owns the ingest sessions of one server.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*Session
	draining bool

	done, failed          atomic.Int64
	batches, bytes        atomic.Int64
	records, seals, errsN atomic.Int64
}

// NewManager validates the configuration (the directory must exist and
// be writable) and returns an empty manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("ingest: no directory configured")
	}
	st, err := os.Stat(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: directory: %w", err)
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("ingest: %s is not a directory", cfg.Dir)
	}
	return &Manager{cfg: cfg, sessions: make(map[string]*Session)}, nil
}

// MaxBatchBytes exposes the batch size limit for the HTTP layer.
func (m *Manager) MaxBatchBytes() int64 { return m.cfg.maxBatchBytes() }

// Begin creates a live trace with the given node count. The optional
// writer options override the manager's frame sizing (zero fields keep
// the defaults).
func (m *Manager) Begin(name string, nodes int, wopts interval.WriterOptions) (*Session, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	if nodes <= 0 || nodes > 1<<16 {
		return nil, fmt.Errorf("ingest: node count %d out of range", nodes)
	}
	w := m.cfg.Writer
	if wopts.FrameBytes > 0 {
		w.FrameBytes = wopts.FrameBytes
	}
	if wopts.FramesPerDir > 0 {
		w.FramesPerDir = wopts.FramesPerDir
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	if _, ok := m.sessions[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	s := newSession(m, name, filepath.Join(m.cfg.Dir, name+".ute"), nodes, w)
	m.sessions[name] = s
	return s, nil
}

// Get returns the session for a live trace.
func (m *Manager) Get(name string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[name]
	return s, ok
}

// Sessions returns the current sessions, for status listings.
func (m *Manager) Sessions() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		out = append(out, s)
	}
	return out
}

// Remove drops a session from the map (it stays usable by holders),
// freeing its name for a new Begin. The serving layer calls it when a
// settled live trace is deleted; completed traces removed this way keep
// their file on disk.
func (m *Manager) Remove(name string) {
	m.mu.Lock()
	delete(m.sessions, name)
	m.mu.Unlock()
}

// Stats snapshots the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	active := 0
	for _, s := range m.sessions {
		st := s.State()
		if st == StateGathering || st == StateStreaming {
			active++
		}
	}
	m.mu.Unlock()
	return Stats{
		SessionsActive: active,
		SessionsDone:   m.done.Load(),
		SessionsFailed: m.failed.Load(),
		Batches:        m.batches.Load(),
		Bytes:          m.bytes.Load(),
		Records:        m.records.Load(),
		Seals:          m.seals.Load(),
		Errors:         m.errsN.Load(),
	}
}

// DrainAll gracefully finishes every in-flight session: no new batches
// are accepted, each streaming node's open states are closed exactly as
// the batch converter closes them at end of trace, the merges run dry,
// and every file seals. Blocks until all sessions have settled.
func (m *Manager) DrainAll() {
	m.mu.Lock()
	m.draining = true
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
	for _, s := range sessions {
		s.Drain()
	}
}
