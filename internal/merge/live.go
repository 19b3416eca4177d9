package merge

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

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

// chunkRecords is how many records a chunk holds at most: one lock round
// hands this many over, and a source's memory is its capacity plus one
// chunk. A source whose capacity is under two chunks gets chunks of half
// its capacity, so the merge can read one while the producer fills the
// next.
const chunkRecords = 256

// slotExtras is the Extra capacity every new chunk slot starts with, all
// carved from one allocation per chunk: no standard-profile record
// carries more (MPI_Sendrecv has 9), so filling a fresh slot allocates
// nothing either.
const slotExtras = 9

// LiveSource is one node's bounded record queue feeding a Live merge.
// The producer side (Push, Flush, CloseSend) and the consumer side (the
// merge loop's Advance/Current/CurrentEnd) run on different goroutines;
// Fail and Unbound may be called from any. Records must be pushed in
// ascending end-time order, already adjusted into the global timebase;
// the k-way merge needs every source's watermark to be its head record's
// end time, so a source that lags simply stalls the merge (correctly)
// until its next record or CloseSend arrives.
//
// Records move in chunks. Push copies a record into the producer's open
// chunk, which the producer alone owns, so it takes no lock. A chunk is
// published — appended to the queue under the lock — when it fills, and
// when the producer calls Flush or CloseSend. The merge takes a whole
// published chunk under one lock, reads its records in place, and gives
// the chunk back on the Advance after its last record, so each record is
// copied once and a lock is taken once per chunk on either side.
// Publishing blocks while the chunks published and not yet given back
// would exceed the capacity — that block backpressures ingest all the
// way to the HTTP handler. A chunk is allocated only when none is free
// at a publish, so a source's chunks, published, free and open, hold at
// most its capacity plus one chunk of records however long the stream
// runs. Chunks are recycled with the Extra/Vec storage of the records
// they held, so in the steady state neither side allocates.
//
// Records in the open chunk are invisible to the merge. A producer that
// stops pushing for a while — an ingest node waiting for its next batch
// — must Flush first, or the merge may wait on records it is holding.
type LiveSource struct {
	mu   sync.Mutex
	cond *sync.Cond

	// queue holds published chunks from queue[head] on, oldest first.
	queue [][]interval.Record
	head  int
	// free holds chunks the consumer gave back, emptied.
	free [][]interval.Record
	// held counts the slots of published chunks not yet given back (the
	// consumer's chunk included); chunks counts every chunk allocated
	// and not yet released.
	held, chunks int
	max, size    int

	sendClosed bool
	err        error
	// stopped is set with sendClosed or err, so Push learns of either
	// without taking the lock.
	stopped atomic.Bool

	// Producer-side state: the open chunk, filled without the lock.
	open []interval.Record

	// Consumer-side state; touched only by the merge goroutine. cur is
	// the chunk being read, cur[i] the current record.
	cur  []interval.Record
	i    int
	end  clock.Time
	done bool
}

// NewLiveSource returns an empty queue. capRecords <= 0 selects the
// default capacity.
func NewLiveSource(capRecords int) *LiveSource {
	if capRecords <= 0 {
		capRecords = defaultSourceCap
	}
	s := &LiveSource{max: capRecords, size: min(chunkRecords, max(1, capRecords/2))}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Push copies one record into the open chunk and publishes the chunk
// when that fills it, blocking while the queue is full. The copy is
// deep: the converter reuses and back-patches its Extra slices (a
// marker's end address is written into the open state after the begin
// piece was already emitted), so a shallow copy here would let that
// mutation reach records already queued — which the batch pipeline,
// encoding at emit time, never sees. Push fails once the source is
// closed or failed.
func (s *LiveSource) Push(r *interval.Record) error {
	if s.stopped.Load() {
		return s.stopErr()
	}
	if s.open == nil {
		s.mu.Lock()
		s.open = s.freeChunk()
		s.mu.Unlock()
	}
	k := len(s.open)
	s.open = s.open[:k+1]
	r.CopyInto(&s.open[k])
	if k+1 < cap(s.open) {
		return nil
	}
	return s.publish(false)
}

// Flush publishes the open chunk, however few records it holds, blocking
// while the queue is full; with nothing pushed since the last publish it
// does nothing. It fails once the source is closed or failed.
func (s *LiveSource) Flush() error {
	if len(s.open) == 0 {
		return nil
	}
	return s.publish(false)
}

// publish appends the open chunk, if it holds any record, to the queue
// once the capacity allows and hands the producer an empty one (none when
// closing). The producer calls it.
func (s *LiveSource) publish(closing bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.open) > 0 {
		for {
			if s.err != nil {
				return s.err
			}
			if s.sendClosed {
				return ErrSourceClosed
			}
			if s.held+s.size <= s.max {
				break
			}
			s.cond.Wait()
		}
		s.queue = append(s.compactQueue(), s.open)
		s.held += s.size
		s.open = nil
		s.cond.Broadcast()
	}
	if closing {
		s.open = nil // an empty chunk handed out by the last publish
		s.sendClosed = true
		s.stopped.Store(true)
		s.cond.Broadcast()
		return nil
	}
	if s.open == nil {
		s.open = s.freeChunk()
	}
	return nil
}

// compactQueue moves the queued chunks to the front of the queue's array
// once appending would grow it, so the array stays as small as the
// longest queue. The caller holds s.mu.
func (s *LiveSource) compactQueue() [][]interval.Record {
	if s.head == 0 || len(s.queue) < cap(s.queue) {
		return s.queue
	}
	n := copy(s.queue, s.queue[s.head:])
	clear(s.queue[n:])
	s.head = 0
	return s.queue[:n]
}

// freeChunk returns an empty chunk, recycled if the consumer has given
// one back. The caller holds s.mu.
func (s *LiveSource) freeChunk() []interval.Record {
	if n := len(s.free); n > 0 {
		c := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return c
	}
	c := make([]interval.Record, s.size)
	arena := make([]uint64, s.size*slotExtras)
	for i := range c {
		j := i * slotExtras
		c[i].Extra = arena[j : j : j+slotExtras]
	}
	s.chunks++
	return c[:0]
}

// stopErr is the error a Push or Flush on a stopped source returns.
func (s *LiveSource) stopErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return ErrSourceClosed
}

// Unbound lifts the queue's capacity bound: pending and future publishes
// stop blocking, and the queue grows to hold every record until the
// merge consumes it. Drain paths need this — a drain finishing every
// source from one goroutine can block in a bounded publish while the
// merge waits on a different source that same goroutine has yet to
// finish, and a producer blocked in Push holds its node lock against the
// drain. The remaining records at drain time are finite, so the bound no
// longer buys anything.
func (s *LiveSource) Unbound() {
	s.mu.Lock()
	s.max = int(^uint(0) >> 1)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// CloseSend publishes the open chunk and marks the end of the stream:
// Advance drains the queue and then reports the source done. On a failed
// source the open chunk's records are dropped.
func (s *LiveSource) CloseSend() {
	s.publish(true)
}

// Fail poisons the source: pending and future Pushes return err, and
// the merge loop fails with it once the records already published are
// read; records in the open chunk are never seen. The first error
// sticks.
func (s *LiveSource) Fail(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = err
		s.stopped.Store(true)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// CurrentEnd implements the merge source interface.
func (s *LiveSource) CurrentEnd() (clock.Time, bool) { return s.end, s.done }

// Current implements the merge record source interface. The record lies
// in its chunk and stays valid until the next Advance.
func (s *LiveSource) Current() *interval.Record { return &s.cur[s.i] }

// Advance moves to the next record of the chunk being read, or gives
// that chunk back and blocks until a chunk is published, CloseSend, or
// Fail arrives.
func (s *LiveSource) Advance() error {
	if s.i+1 < len(s.cur) {
		s.i++
		s.end = s.cur[s.i].End()
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur != nil {
		s.free = append(s.free, s.cur[:0])
		s.held -= s.size
		s.cur = nil
		s.cond.Broadcast()
	}
	for {
		if s.head < len(s.queue) {
			s.cur, s.i = s.queue[s.head], 0
			s.queue[s.head] = nil
			if s.head++; s.head == len(s.queue) {
				s.queue, s.head = s.queue[:0], 0
			}
			s.end = s.cur[0].End()
			return nil
		}
		if s.err != nil || s.sendClosed {
			// Nothing more can arrive. The session that owns this source
			// may outlive it, so the chunks are released here, not with
			// the source.
			s.done = true
			s.queue, s.head, s.free, s.chunks = nil, 0, nil, 0
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
