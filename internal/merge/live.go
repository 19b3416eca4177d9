package merge

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"tracefw/internal/clock"
	"tracefw/internal/interval"
)

// Live merging: the streaming ingest path feeds per-node record queues
// (LiveSource) into the same k-way merge loop the batch path uses
// (mergeState.run), writing one merged interval file as records arrive.
// Because the loop, the pseudo-interval tracker, and the union header
// are shared code, a live merge that receives the same per-node record
// sequences as a batch merge produces a byte-identical file.

// ErrSourceClosed is returned by LiveSource.Push after CloseSend.
var ErrSourceClosed = errors.New("merge: push on closed live source")

// defaultSourceCap bounds the per-source queue when NewLiveSource is
// given no capacity: enough records to decouple bursty producers from
// the merge loop without unbounded memory.
const defaultSourceCap = 4096

// LiveSource is one node's bounded record queue feeding a Live merge.
// The producer side (Push, CloseSend, Fail) and the consumer side (the
// merge loop's Advance/Current/CurrentEnd) run on different goroutines;
// Push blocks while the queue is full, which backpressures ingest all
// the way to the HTTP handler. Records must be pushed in ascending
// end-time order, already adjusted into the global timebase; the k-way
// merge needs every source's watermark to be its head record's end
// time, so a source that lags simply stalls the merge (correctly) until
// its next record or CloseSend arrives.
type LiveSource struct {
	mu   sync.Mutex
	cond *sync.Cond

	queue []interval.Record
	head  int
	max   int

	sendClosed bool
	err        error

	// Consumer-side state; touched only by the merge goroutine.
	cur  interval.Record
	end  clock.Time
	done bool
}

// NewLiveSource returns an empty queue. capRecords <= 0 selects the
// default capacity.
func NewLiveSource(capRecords int) *LiveSource {
	if capRecords <= 0 {
		capRecords = defaultSourceCap
	}
	s := &LiveSource{max: capRecords}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Push enqueues one record, blocking while the queue is full. The
// queue takes ownership of a deep copy: the converter reuses and
// back-patches its Extra slices (a marker's end address is written
// into the open state after the begin piece was already emitted), so
// a shallow copy here would let that mutation reach records already
// queued — which the batch pipeline, encoding at emit time, never
// sees. Push fails once the source is closed or failed.
func (s *LiveSource) Push(r *interval.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.err != nil {
			return s.err
		}
		if s.sendClosed {
			return ErrSourceClosed
		}
		if len(s.queue)-s.head < s.max {
			break
		}
		s.cond.Wait()
	}
	cp := *r
	if len(r.Extra) > 0 {
		cp.Extra = append([]uint64(nil), r.Extra...)
	}
	if len(r.Vec) > 0 {
		cp.Vec = append([]uint64(nil), r.Vec...)
	}
	s.queue = append(s.queue, cp)
	s.cond.Broadcast()
	return nil
}

// Unbound lifts the queue's capacity bound: pending and future Pushes
// stop blocking and every record stays buffered until the merge
// consumes it. Drain paths need this — a drain finishing every source
// from one goroutine can block in a bounded Push while the merge waits
// on a different source that same goroutine has yet to finish, and a
// producer blocked in Push holds its node lock against the drain. The
// remaining records at drain time are finite, so the bound no longer
// buys anything.
func (s *LiveSource) Unbound() {
	s.mu.Lock()
	s.max = int(^uint(0) >> 1)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// CloseSend marks the end of the stream: Advance drains the queue and
// then reports the source done.
func (s *LiveSource) CloseSend() {
	s.mu.Lock()
	s.sendClosed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Fail poisons the source: pending and future Pushes return err, and
// the merge loop's next Advance fails with it. The first error sticks.
func (s *LiveSource) Fail(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// CurrentEnd implements the merge source interface.
func (s *LiveSource) CurrentEnd() (clock.Time, bool) { return s.end, s.done }

// Current implements the merge record source interface.
func (s *LiveSource) Current() *interval.Record { return &s.cur }

// Advance blocks until a record, CloseSend, or Fail arrives.
func (s *LiveSource) Advance() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.head < len(s.queue) {
			s.cur = s.queue[s.head]
			s.queue[s.head] = interval.Record{}
			s.head++
			if s.head == len(s.queue) {
				s.queue = s.queue[:0]
				s.head = 0
			}
			s.end = s.cur.End()
			s.cond.Broadcast()
			return nil
		}
		if s.err != nil || s.sendClosed {
			// Nothing more can arrive. The session that owns this source
			// outlives it (it stays listed for status queries), so the
			// queue's backing array is released here, not with the source.
			s.done = true
			s.queue = nil
			return s.err
		}
		s.cond.Wait()
	}
}

// Live is a streaming merge over a set of LiveSources. NewLive writes
// the merged header immediately; Run blocks draining the sources and
// seals the file. Options.Estimator and OutlierTol are ignored — the
// ingest pipeline adjusts timestamps before pushing — as is
// Options.Parallel (there are no clock pairs to extract).
type Live struct {
	w       *interval.Writer
	ms      *mergeState
	sources []*LiveSource
	srcs    []recordSource
	res     Result
}

// NewLive builds the merged writer over dst from the per-node input
// headers (see UnionHeader) and the per-node record queues.
func NewLive(dst io.WriteSeeker, hdrs []interval.Header, sources []*LiveSource, opts Options) (*Live, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("merge: no live sources")
	}
	if len(hdrs) != len(sources) {
		return nil, fmt.Errorf("merge: %d headers for %d live sources", len(hdrs), len(sources))
	}
	hdr, err := UnionHeader(hdrs)
	if err != nil {
		return nil, err
	}
	l := &Live{sources: sources, res: Result{Inputs: len(sources)}}
	l.ms = &mergeState{res: &l.res, trk: interval.NewOpenStates(hdr.Threads)}
	w, err := interval.NewWriter(dst, hdr, l.ms.writerOptions(opts))
	if err != nil {
		return nil, err
	}
	l.w = w
	l.srcs = make([]recordSource, len(sources))
	for i, s := range sources {
		l.srcs[i] = s
	}
	return l, nil
}

// Writer exposes the underlying interval writer (for SealedSize; the
// OnSeal callback is installed through Options.Writer).
func (l *Live) Writer() *interval.Writer { return l.w }

// Run drains every source through the shared merge loop and closes the
// writer. It blocks until all sources are done (CloseSend) or one
// fails; on failure the remaining sources are poisoned so blocked
// producers unwind, and the writer is still closed — sealing the merged
// prefix written so far into a valid file.
func (l *Live) Run() error {
	err := l.ms.run(l.w, l.srcs)
	if err != nil {
		for _, s := range l.sources {
			s.Fail(err)
		}
		l.w.Close()
		return err
	}
	return l.w.Close()
}

// Result summarizes the merge; valid after Run returns.
func (l *Live) Result() *Result { return &l.res }
