package ingest

import (
	"fmt"
	"sync"

	"tracefw/internal/clock"
	"tracefw/internal/convert"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/profile"
	"tracefw/internal/trace"
)

// State is a session's lifecycle phase.
type State int

// Session states.
const (
	StateGathering State = iota // waiting for every node's preamble
	StateStreaming              // header written, records flowing
	StateDone                   // all nodes finished, file sealed
	StateFailed                 // poisoned; file sealed at its last good prefix
)

// String names the state for status endpoints.
func (s State) String() string {
	switch s {
	case StateGathering:
		return "gathering"
	case StateStreaming:
		return "streaming"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	}
	return "state?"
}

// Session is one live trace being ingested.
type Session struct {
	mgr   *Manager
	name  string
	path  string
	wopts interval.WriterOptions

	mu    sync.Mutex
	state State
	err   error
	nodes []*node
	// preambles gathered so far; the barrier fires when all are in.
	preambles []*convert.Preamble
	have      int
	markers   *convert.MarkerRegistry
	live      *merge.Live
	file      SinkFile
	mergeDone chan struct{}

	// Seal publication: read by the serving layer on every live query,
	// written by the merge goroutine's OnSeal callback. Generation 0
	// means no header yet (nothing to open).
	sealMu sync.Mutex
	seal   interval.SealInfo
	gen    uint64
}

// node is one producer's pipeline: sequencer → incremental record
// decoder → streaming converter → clock gate → live merge source.
type node struct {
	idx int

	mu       sync.Mutex
	next     uint64            // next sequence number to process
	pending  map[uint64][]byte // out-of-order batches
	lastSeq  uint64            // sequence of the final batch, +1; 0 = not seen
	preamble []byte            // batch 0, replayed at the barrier
	preDone  bool              // batch 0 accepted
	started  bool              // barrier done, stream live
	finished bool              // CloseSend done

	dec    convert.BatchDecoder
	stream *convert.Stream
	src    *merge.LiveSource

	adj    clock.Adjuster
	adjSet bool
	gate   []interval.Record // records awaiting the first clock pair
}

func newSession(m *Manager, name, path string, nodes int, wopts interval.WriterOptions) *Session {
	s := &Session{
		mgr:       m,
		name:      name,
		path:      path,
		wopts:     wopts,
		nodes:     make([]*node, nodes),
		preambles: make([]*convert.Preamble, nodes),
		markers:   convert.NewMarkerRegistry(),
		mergeDone: make(chan struct{}),
	}
	for i := range s.nodes {
		s.nodes[i] = &node{
			idx:     i,
			pending: make(map[uint64][]byte),
			src:     merge.NewLiveSource(m.cfg.QueueRecords),
		}
	}
	return s
}

// Name returns the trace name.
func (s *Session) Name() string { return s.name }

// Path returns the live trace's file path.
func (s *Session) Path() string { return s.path }

// Nodes returns the declared node count.
func (s *Session) Nodes() int { return len(s.nodes) }

// State returns the lifecycle phase.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Err returns the failure cause, if the session failed.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// LiveInfo implements the serving layer's live-trace provider: the
// path, the sealed prefix length, a generation counter that bumps on
// every seal, and whether a header exists to open at all.
func (s *Session) LiveInfo() (path string, sealedSize int64, gen uint64, ready bool) {
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	return s.path, s.seal.Size, s.gen, s.gen > 0
}

// Sealed returns the latest seal notification.
func (s *Session) Sealed() (interval.SealInfo, uint64) {
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	return s.seal, s.gen
}

func (s *Session) publishSeal(si interval.SealInfo) {
	s.mgr.seals.Add(1)
	s.sealMu.Lock()
	s.seal = si
	s.gen++
	s.sealMu.Unlock()
}

// Batch ingests one sequence-numbered batch for a node. last marks the
// node's final batch (its body may be empty). Batches may arrive out of
// order within the configured window; each is applied exactly once.
//
// Batch keeps no byte of data once it returns, so a caller may reuse the
// buffer for its next batch: the batch that is next in line is converted
// straight from data, and only what must wait — the preamble, held to
// the header barrier, and a batch ahead of a gap — is copied. And every
// record the batch yields is handed to the merge before Batch returns
// (LiveSource.Flush), so the merge never waits on a record a node holds
// while the node waits for its next POST.
func (s *Session) Batch(nodeIdx int, seq uint64, last bool, data []byte) error {
	if int64(len(data)) > s.mgr.cfg.maxBatchBytes() {
		return countErr(s.mgr, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(data)))
	}
	if nodeIdx < 0 || nodeIdx >= len(s.nodes) {
		return countErr(s.mgr, fmt.Errorf("%w: node %d of %d", ErrUnknownNode, nodeIdx, len(s.nodes)))
	}
	switch st := s.State(); st {
	case StateDone:
		return countErr(s.mgr, ErrSessionDone)
	case StateFailed:
		return countErr(s.mgr, fmt.Errorf("ingest: session failed: %w", s.Err()))
	}
	n := s.nodes[nodeIdx]
	n.mu.Lock()
	defer n.mu.Unlock()

	if n.finished || (n.lastSeq > 0 && seq >= n.lastSeq) {
		return countErr(s.mgr, fmt.Errorf("%w: node %d sequence %d", ErrFinished, nodeIdx, seq))
	}
	if seq < n.next || (seq == 0 && n.preDone) {
		return countErr(s.mgr, fmt.Errorf("%w: node %d sequence %d already applied", ErrDuplicate, nodeIdx, seq))
	}
	if _, dup := n.pending[seq]; dup {
		return countErr(s.mgr, fmt.Errorf("%w: node %d sequence %d pending", ErrDuplicate, nodeIdx, seq))
	}
	if seq >= n.next+uint64(s.mgr.cfg.pendingBatches()) {
		return countErr(s.mgr, fmt.Errorf("%w: node %d sequence %d, window starts at %d", ErrWindow, nodeIdx, seq, n.next))
	}
	if last {
		n.lastSeq = seq + 1
	}
	s.mgr.batches.Add(1)
	s.mgr.bytes.Add(int64(len(data)))
	if seq == n.next && n.started {
		n.next++
		if err := s.feedLocked(n, data); err != nil {
			s.fail(err)
			return err
		}
	} else {
		n.pending[seq] = append([]byte(nil), data...)
	}
	return s.drainNodeLocked(n)
}

// drainNodeLocked applies every consecutive pending batch. Caller holds
// n.mu.
func (s *Session) drainNodeLocked(n *node) error {
	for {
		if n.finished {
			// Drain raced ahead of this node's replay goroutine and
			// closed its source; anything still stashed is dropped.
			return nil
		}
		// The finish check runs before looking for pending data so that
		// a node whose final batch was its preamble (a whole stream
		// POSTed as batch 0 with last set) finishes on the barrier
		// replay, when nothing is pending anymore.
		if n.started && n.lastSeq > 0 && n.next == n.lastSeq {
			if err := s.finishNodeLocked(n); err != nil {
				s.fail(err)
				return err
			}
			return nil
		}
		data, ok := n.pending[n.next]
		if !ok {
			return nil
		}
		if n.next == 0 {
			// The preamble cannot be applied until the header barrier:
			// scan it now; a per-node goroutine spawned by the barrier
			// replays it (and re-drains) once every node is in.
			if err := s.acceptPreamble(n, data); err != nil {
				s.fail(err)
				return err
			}
			delete(n.pending, 0)
			n.preDone = true
			return nil
		}
		if !n.started {
			return nil // waiting for the barrier replay
		}
		delete(n.pending, n.next)
		n.next++
		if err := s.feedLocked(n, data); err != nil {
			s.fail(err)
			return err
		}
	}
}

// acceptPreamble scans a node's batch 0 and, when it is the last one
// missing, runs the header barrier. Caller holds n.mu.
func (s *Session) acceptPreamble(n *node, data []byte) error {
	pre, err := convert.ScanPreamble(data)
	if err != nil {
		return fmt.Errorf("ingest: node %d: %w", n.idx, err)
	}
	if pre.Node != n.idx {
		return fmt.Errorf("ingest: batch for node %d carries a header for node %d", n.idx, pre.Node)
	}
	n.preamble = data

	s.mu.Lock()
	if s.state != StateGathering {
		s.mu.Unlock()
		return fmt.Errorf("ingest: preamble after the header barrier (node %d)", n.idx)
	}
	s.preambles[n.idx] = pre
	s.have++
	ready := s.have == len(s.nodes)
	s.mu.Unlock()
	if !ready {
		return nil
	}
	return s.barrier()
}

// barrier runs once, on the request goroutine that delivered the final
// preamble: it canonicalizes marker ids in node-then-first-seen order,
// writes the merged header, starts the merge goroutine, and spawns one
// replay goroutine per node. Replays must run concurrently — the k-way
// merge needs a watermark from every source before it can drain any of
// them, so a sequential replay could block on a full queue forever.
func (s *Session) barrier() error {
	s.mu.Lock()
	if s.state != StateGathering {
		err := s.err
		s.mu.Unlock()
		if err == nil {
			err = ErrSessionDone
		}
		return err
	}
	// Marker canonicalization, exactly as the batch pipeline: nodes in
	// index order, strings in first-seen order within each node.
	for _, pre := range s.preambles {
		for _, str := range pre.Defines {
			s.markers.ID(str)
		}
	}
	table := s.markers.Table()
	hdrs := make([]interval.Header, len(s.preambles))
	for i, pre := range s.preambles {
		hdrs[i] = interval.Header{
			ProfileVersion: profile.StdVersion,
			HeaderVersion:  interval.CurrentHeaderVersion,
			FieldMask:      profile.MaskIndividual,
			Threads:        pre.Threads,
			Markers:        table,
		}
	}
	file, err := s.mgr.cfg.create(s.path)
	if err != nil {
		s.mu.Unlock()
		err = fmt.Errorf("ingest: %w", err)
		s.fail(err)
		return err
	}
	wopts := s.wopts
	if user := wopts.OnSeal; user != nil {
		wopts.OnSeal = func(si interval.SealInfo) {
			s.publishSeal(si)
			user(si)
		}
	} else {
		wopts.OnSeal = s.publishSeal
	}
	sources := make([]*merge.LiveSource, len(s.nodes))
	for i, n := range s.nodes {
		sources[i] = n.src
	}
	live, err := merge.NewLive(file, hdrs, sources, merge.Options{Writer: wopts})
	if err != nil {
		file.Close()
		s.mu.Unlock()
		s.fail(err)
		return err
	}
	s.file = file
	s.live = live
	s.state = StateStreaming
	s.mu.Unlock()

	go s.runMerge()

	// Wire every node's streaming converter, replay its preamble
	// records, and drain any batches that queued up before the barrier.
	// Errors poison the whole session (s.fail inside the helpers).
	for _, n := range s.nodes {
		go func(n *node) {
			n.mu.Lock()
			defer n.mu.Unlock()
			if err := s.ensureStartedLocked(n); err != nil {
				s.fail(err)
				return
			}
			s.drainNodeLocked(n)
		}(n)
	}
	return nil
}

// ensureStartedLocked builds a node's streaming converter and replays
// its preamble batch; idempotent. Caller holds n.mu; the barrier must
// have completed (Drain relies on this to start never-replayed nodes).
func (s *Session) ensureStartedLocked(n *node) error {
	if n.started {
		return nil
	}
	pre := s.preambles[n.idx]
	stream, err := convert.NewStream(pre, s.markers, func(r *interval.Record) error {
		return s.emit(n, r)
	})
	if err != nil {
		return err
	}
	n.stream = stream
	n.started = true
	n.next = 1
	data := n.preamble
	n.preamble = nil
	return s.feedLocked(n, data[convert.RawHeaderSize:])
}

// feedLocked pushes one batch's bytes through the node's decoder and
// converter and publishes the records it yields to the merge. Caller
// holds n.mu.
func (s *Session) feedLocked(n *node, data []byte) error {
	var raw int64
	err := n.dec.Feed(data, func(rec *trace.Record) error {
		raw++
		return n.stream.Event(rec)
	})
	s.mgr.records.Add(raw)
	if err != nil {
		return err
	}
	return n.src.Flush()
}

// emit is the converter sink: the batch merge's stream stage — extract
// clock pairs, drop the clock records, adjust (merge.Adjust) through the
// EstimatorNone adjuster anchored at the node's first pair — feeding the
// live merge. Records arriving before the first pair wait in the gate
// (bounded); a node that never syncs its clock flushes the gate
// unadjusted at finish.
func (s *Session) emit(n *node, r *interval.Record) error {
	if r.Type == events.EvGlobalClock {
		if !n.adjSet && len(r.Extra) > 0 {
			n.adj = &clock.RatioAdjuster{R: 1, G0: clock.Time(r.Extra[0]), L0: r.Start}
			n.adjSet = true
			return s.flushGate(n)
		}
		return nil
	}
	if !n.adjSet {
		if len(n.gate) >= s.mgr.cfg.gateRecords() {
			return fmt.Errorf("ingest: node %d emitted %d records before its first clock sync", n.idx, len(n.gate))
		}
		n.gate = append(n.gate, interval.Record{})
		r.CopyInto(&n.gate[len(n.gate)-1])
		return nil
	}
	return s.push(n, r)
}

func (s *Session) flushGate(n *node) error {
	for i := range n.gate {
		if err := s.push(n, &n.gate[i]); err != nil {
			return err
		}
	}
	n.gate = nil
	return nil
}

func (s *Session) push(n *node, r *interval.Record) error {
	merge.Adjust(n.adj, r)
	return n.src.Push(r)
}

// finishNodeLocked ends a node's stream: the byte stream must close on
// a record boundary, open states are closed exactly as the batch
// converter does at end of trace, a node that never saw a clock pair
// flushes its gate unadjusted, and the merge source is closed. Caller
// holds n.mu.
func (s *Session) finishNodeLocked(n *node) error {
	if n.finished {
		return nil
	}
	if err := n.dec.Finish(); err != nil {
		return fmt.Errorf("ingest: node %d: %w", n.idx, err)
	}
	if err := n.stream.Finish(); err != nil {
		return err
	}
	if !n.adjSet {
		n.adj = &clock.RatioAdjuster{R: 1}
		n.adjSet = true
		if err := s.flushGate(n); err != nil {
			return err
		}
	}
	n.finished = true
	n.pending = nil
	n.src.CloseSend()
	return nil
}

// runMerge is the session's merge goroutine: it drains the sources,
// seals the file, and settles the session state.
func (s *Session) runMerge() {
	err := s.live.Run()
	if cerr := s.syncClose(); err == nil {
		err = cerr
	}
	s.mu.Lock()
	if err != nil {
		if s.state != StateFailed {
			s.state = StateFailed
			s.err = err
			s.mgr.failed.Add(1)
		}
	} else if s.state == StateStreaming {
		s.state = StateDone
		s.mgr.done.Add(1)
	}
	s.mu.Unlock()
	close(s.mergeDone)
}

// syncClose flushes the file to stable storage and closes the handle.
func (s *Session) syncClose() error {
	s.mu.Lock()
	f := s.file
	s.file = nil
	s.mu.Unlock()
	if f == nil {
		return nil
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fail poisons the session: every source is failed so the merge loop
// and any blocked producers unwind, and the writer seals the merged
// prefix (runMerge observes the error and settles the state).
func (s *Session) fail(err error) {
	s.mgr.errsN.Add(1)
	s.mu.Lock()
	if s.state == StateDone || s.state == StateFailed {
		s.mu.Unlock()
		return
	}
	prev := s.state
	s.state = StateFailed
	s.err = err
	s.mgr.failed.Add(1)
	s.mu.Unlock()
	for _, n := range s.nodes {
		n.src.Fail(err)
	}
	if prev == StateGathering {
		// No merge goroutine exists yet; settle immediately.
		close(s.mergeDone)
	}
}

// Abort cancels the session. An in-flight file keeps its sealed prefix.
func (s *Session) Abort() error {
	s.fail(ErrAborted)
	return nil
}

// Drain finishes the session as if every unfinished node's trace ended
// now: open states close at the last seen timestamp, the merge runs
// dry, and the file seals completely. Gathering sessions (no header
// yet) are aborted instead. Blocks until the session settles.
func (s *Session) Drain() {
	switch s.State() {
	case StateGathering:
		s.fail(ErrDraining)
		<-s.mergeDone
		return
	case StateDone, StateFailed:
		// Already settled (nodes may never have started; there is
		// nothing to finish).
		<-s.mergeDone
		return
	}
	// Lift every queue bound first. The loop below finishes nodes one at
	// a time while the merge consumes in global end-time order: a bounded
	// Push here (or in a producer holding a node lock this loop needs)
	// can block on a full queue that the merge will not touch until a
	// later node's source closes — a deadlock this loop itself would
	// cause. Unbounded queues make every flush complete immediately; the
	// records left at drain time are finite.
	for _, n := range s.nodes {
		n.src.Unbound()
	}
	for _, n := range s.nodes {
		n.mu.Lock()
		if !n.finished {
			// A node whose barrier replay has not been scheduled yet is
			// started here (ensureStartedLocked is idempotent), so its
			// source reliably closes and the merge can run dry.
			err := s.ensureStartedLocked(n)
			if err == nil {
				// Tolerate a batch cut mid-record: the decoded prefix
				// was converted; the trailing bytes are dropped.
				n.dec = convert.BatchDecoder{}
				err = s.finishNodeLocked(n)
			}
			if err != nil {
				s.fail(err)
			}
		}
		n.mu.Unlock()
	}
	<-s.mergeDone
}

// Wait blocks until the session settles (done or failed).
func (s *Session) Wait() error {
	<-s.mergeDone
	return s.Err()
}

// Settled reports, without blocking, whether the session has settled:
// its merge has finished and its file is sealed, done or failed.
func (s *Session) Settled() bool {
	select {
	case <-s.mergeDone:
		return true
	default:
		return false
	}
}

// NodeStatus summarizes one node for the status endpoint.
type NodeStatus struct {
	Node     int    `json:"node"`
	NextSeq  uint64 `json:"next_seq"`
	Pending  int    `json:"pending"`
	Finished bool   `json:"finished"`
}

// Status summarizes a node's sequencer state.
func (n *node) status() NodeStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	return NodeStatus{Node: n.idx, NextSeq: n.next, Pending: len(n.pending), Finished: n.finished}
}

// NodeStatuses reports every node's sequencer state.
func (s *Session) NodeStatuses() []NodeStatus {
	out := make([]NodeStatus, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = n.status()
	}
	return out
}

func countErr(m *Manager, err error) error {
	m.errsN.Add(1)
	return err
}
