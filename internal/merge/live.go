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
//
// The queue is a ring of record slots that grows, by doubling, only
// while every slot is taken and never past the capacity, so its memory
// is bounded by the capacity however long the stream runs. Each slot
// keeps the Extra/Vec storage of the records it held, and the consumer
// copies out into buffers of its own, so once the ring and its slots
// have grown a Push or an Advance allocates nothing.
type LiveSource struct {
	mu   sync.Mutex
	cond *sync.Cond

	// ring holds n queued records from ring[head] on, wrapping.
	ring    []interval.Record
	head, n int
	max     int

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
// queue's slot takes a deep copy: the converter reuses and back-patches
// its Extra slices (a marker's end address is written into the open
// state after the begin piece was already emitted), so a shallow copy
// here would let that mutation reach records already queued — which the
// batch pipeline, encoding at emit time, never sees. Push fails once the
// source is closed or failed.
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
		if s.n < s.max {
			break
		}
		s.cond.Wait()
	}
	if s.n == len(s.ring) {
		s.grow()
	}
	r.CopyInto(&s.ring[(s.head+s.n)%len(s.ring)])
	s.n++
	s.cond.Broadcast()
	return nil
}

// slotExtras is the Extra capacity every new ring slot starts with, all
// carved from one allocation per growth: no standard-profile record
// carries more (MPI_Sendrecv has 9), so filling a fresh slot allocates
// nothing either.
const slotExtras = 9

// grow doubles the full ring, up to the capacity, unwrapping its records
// to the front. The caller holds s.mu.
func (s *LiveSource) grow() {
	old := len(s.ring)
	ring := make([]interval.Record, min(max(2*old, 64), s.max))
	k := copy(ring, s.ring[s.head:])
	copy(ring[k:], s.ring[:s.head])
	arena := make([]uint64, (len(ring)-old)*slotExtras)
	for i := old; i < len(ring); i++ {
		j := (i - old) * slotExtras
		ring[i].Extra = arena[j : j : j+slotExtras]
	}
	s.ring, s.head = ring, 0
}

// Unbound lifts the queue's capacity bound: pending and future Pushes
// stop blocking, and the ring grows to hold every record until the merge
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

// Advance blocks until a record, CloseSend, or Fail arrives. The record
// is copied out of its slot into the consumer's own buffers, so the slot
// is free for the next Push at once; Current stays valid until the next
// Advance.
func (s *LiveSource) Advance() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.n > 0 {
			s.ring[s.head].CopyInto(&s.cur)
			s.head = (s.head + 1) % len(s.ring)
			s.n--
			s.end = s.cur.End()
			s.cond.Broadcast()
			return nil
		}
		if s.err != nil || s.sendClosed {
			// Nothing more can arrive. The session that owns this source
			// may outlive it, so the ring is released here, not with the
			// source.
			s.done = true
			s.ring = nil
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
