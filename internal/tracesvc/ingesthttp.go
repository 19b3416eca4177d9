package tracesvc

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"tracefw/internal/ingest"
)

// Streaming ingest endpoints. All under /v1/ingest/{trace}:
//
//	POST ?op=begin&nodes=N        start a live trace
//	POST ?node=I&seq=S[&last=1]   one raw batch (body = bytes)
//	POST ?op=abort                cancel; the sealed prefix stays valid
//	GET  /v1/ingest               all sessions (JSON)
//	GET  /v1/ingest/{trace}       one session's status (JSON)
//
// Batch POSTs are registered without the per-request deadline: a push
// into a full merge queue legitimately blocks until the merge catches
// up — that block IS the backpressure that bounds ingest memory.
//
// The endpoints answer 403 until EnableIngest is called (the daemon
// enables them with -ingest-dir).

// ingestState carries the ingest manager and the trace-name → registry
// ID mapping for sessions begun over HTTP.
type ingestState struct {
	mgr *ingest.Manager

	mu  sync.Mutex
	ids map[string]string
}

// EnableIngest switches the ingest endpoints on. Must be called before
// the service starts handling requests.
func (s *Service) EnableIngest(m *ingest.Manager) {
	s.ing = &ingestState{mgr: m, ids: make(map[string]string)}
}

// IngestManager returns the enabled manager, or nil.
func (s *Service) IngestManager() *ingest.Manager {
	if s.ing == nil {
		return nil
	}
	return s.ing.mgr
}

// ingestErrStatus maps the ingest sentinel errors to HTTP statuses.
func ingestErrStatus(err error) error {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ingest.ErrUnknownTrace):
		code = http.StatusNotFound
	case errors.Is(err, ingest.ErrExists),
		errors.Is(err, ingest.ErrDuplicate),
		errors.Is(err, ingest.ErrWindow),
		errors.Is(err, ingest.ErrFinished),
		errors.Is(err, ingest.ErrSessionDone):
		code = http.StatusConflict
	case errors.Is(err, ingest.ErrTooLarge):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, ingest.ErrDraining):
		code = http.StatusServiceUnavailable
	}
	return &httpErr{code: code, msg: err.Error()}
}

var errIngestDisabled = &httpErr{
	code: http.StatusForbidden,
	msg:  "ingest disabled (start utetraced with -ingest-dir)",
}

// sessionStatus is the JSON shape of one ingest session.
type sessionStatus struct {
	Trace        string              `json:"trace"`
	ID           string              `json:"id,omitempty"`
	Path         string              `json:"path"`
	State        string              `json:"state"`
	Error        string              `json:"error,omitempty"`
	Nodes        []ingest.NodeStatus `json:"nodes"`
	SealedBytes  int64               `json:"sealedBytes"`
	SealedFrames int                 `json:"sealedFrames"`
	Generation   uint64              `json:"generation"`
	Final        bool                `json:"final"`
}

func (s *Service) sessionStatus(sess *ingest.Session) sessionStatus {
	si, gen := sess.Sealed()
	st := sessionStatus{
		Trace:        sess.Name(),
		Path:         sess.Path(),
		State:        sess.State().String(),
		Nodes:        sess.NodeStatuses(),
		SealedBytes:  si.Size,
		SealedFrames: si.Frames,
		Generation:   gen,
		Final:        si.Final,
	}
	if err := sess.Err(); err != nil {
		st.Error = err.Error()
	}
	s.ing.mu.Lock()
	st.ID = s.ing.ids[sess.Name()]
	s.ing.mu.Unlock()
	return st
}

func (s *Service) handleIngestList(*http.Request) (*response, error) {
	if s.ing == nil {
		return nil, errIngestDisabled
	}
	sessions := s.ing.mgr.Sessions()
	out := make([]sessionStatus, len(sessions))
	for i, sess := range sessions {
		out[i] = s.sessionStatus(sess)
	}
	st := s.ing.mgr.Stats()
	return jsonResponse(http.StatusOK, struct {
		Sessions []sessionStatus `json:"sessions"`
		Stats    ingest.Stats    `json:"stats"`
	}{out, st})
}

func (s *Service) handleIngestStatus(r *http.Request) (*response, error) {
	if s.ing == nil {
		return nil, errIngestDisabled
	}
	name := r.PathValue("trace")
	sess, ok := s.ing.mgr.Get(name)
	if !ok {
		return nil, ingestErrStatus(fmt.Errorf("%w: %q", ingest.ErrUnknownTrace, name))
	}
	return jsonResponse(http.StatusOK, s.sessionStatus(sess))
}

func (s *Service) handleIngestPost(r *http.Request) (*response, error) {
	if s.ing == nil {
		return nil, errIngestDisabled
	}
	name := r.PathValue("trace")
	q := r.URL.Query()
	switch op := q.Get("op"); op {
	case "begin":
		return s.ingestBegin(name, r)
	case "abort":
		sess, ok := s.ing.mgr.Get(name)
		if !ok {
			return nil, ingestErrStatus(fmt.Errorf("%w: %q", ingest.ErrUnknownTrace, name))
		}
		sess.Abort()
		sess.Wait()
		return jsonResponse(http.StatusOK, s.sessionStatus(sess))
	case "":
		return s.ingestBatch(name, r)
	default:
		return nil, badRequest("bad op %q", op)
	}
}

func (s *Service) ingestBegin(name string, r *http.Request) (*response, error) {
	q := r.URL.Query()
	nodes, err := strconv.Atoi(q.Get("nodes"))
	if err != nil {
		return nil, badRequest("bad nodes %q", q.Get("nodes"))
	}
	sess, err := s.ing.mgr.Begin(name, nodes)
	if err != nil {
		return nil, ingestErrStatus(err)
	}
	id := s.reg.AddLive(sess)
	s.ing.mu.Lock()
	s.ing.ids[name] = id
	s.ing.mu.Unlock()
	return jsonResponse(http.StatusCreated, s.sessionStatus(sess))
}

// releaseSession lets the ingest manager forget the session behind a
// deleted live trace once the session has settled (done or failed, its
// file sealed): the session and its per-node pipelines stop being held,
// and the name is free for a new begin. A session still running is
// left alone: it keeps ingesting and answering status requests.
func (s *Service) releaseSession(id string) {
	if s.ing == nil {
		return
	}
	s.ing.mu.Lock()
	defer s.ing.mu.Unlock()
	for name, sid := range s.ing.ids {
		if sid != id {
			continue
		}
		if sess, ok := s.ing.mgr.Get(name); ok && sess.Settled() {
			s.ing.mgr.Remove(name)
			delete(s.ing.ids, name)
		}
		return
	}
}

func (s *Service) ingestBatch(name string, r *http.Request) (*response, error) {
	sess, ok := s.ing.mgr.Get(name)
	if !ok {
		return nil, ingestErrStatus(fmt.Errorf("%w: %q", ingest.ErrUnknownTrace, name))
	}
	q := r.URL.Query()
	node, err := strconv.Atoi(q.Get("node"))
	if err != nil {
		return nil, badRequest("bad node %q", q.Get("node"))
	}
	seq, err := strconv.ParseUint(q.Get("seq"), 10, 64)
	if err != nil {
		return nil, badRequest("bad seq %q", q.Get("seq"))
	}
	limit := s.ing.mgr.MaxBatchBytes()
	if r.ContentLength > limit {
		return nil, ingestErrStatus(fmt.Errorf("%w: %d bytes declared, limit %d", ingest.ErrTooLarge, r.ContentLength, limit))
	}
	// The body is read into a pooled buffer and converted from there:
	// Session.Batch keeps no byte of it, so the buffer serves the next
	// request once Batch returns.
	buf := batchBufs.Get().(*[]byte)
	defer batchBufs.Put(buf)
	data, err := readBatch(r, *buf, limit)
	*buf = data[:0]
	if err != nil {
		return nil, badRequest("reading batch body: %v", err)
	}
	if int64(len(data)) > limit {
		return nil, ingestErrStatus(fmt.Errorf("%w: over %d bytes", ingest.ErrTooLarge, limit))
	}
	if err := sess.Batch(node, seq, q.Get("last") == "1", data); err != nil {
		return nil, ingestErrStatus(err)
	}
	return jsonResponse(http.StatusAccepted, struct {
		Trace string `json:"trace"`
		Node  int    `json:"node"`
		Seq   uint64 `json:"seq"`
	}{name, node, seq})
}

// batchBufs holds the buffers batch bodies are read into.
var batchBufs = sync.Pool{New: func() any { return new([]byte) }}

// readBatch reads a batch body into buf, growing it as needed but never
// past limit+1 bytes: a body of declared length (at most limit; the
// caller checks) exactly, one sent chunked until it ends or shows itself
// oversized by its limit+1st byte.
func readBatch(r *http.Request, buf []byte, limit int64) ([]byte, error) {
	if n := r.ContentLength; n >= 0 {
		buf = slices.Grow(buf[:0], int(n))[:n]
		_, err := io.ReadFull(r.Body, buf)
		return buf, err
	}
	buf = buf[:0]
	end := int(limit) + 1
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(max(len(buf), 4096), end-len(buf)))
		}
		k, err := r.Body.Read(buf[len(buf):min(cap(buf), end)])
		buf = buf[:len(buf)+k]
		if err == io.EOF || len(buf) == end {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
