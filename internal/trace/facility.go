package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"

	"tracefw/internal/clock"
	"tracefw/internal/events"
)

// Options configures tracing for one run (paper §2.1: "a mechanism is
// provided to specify a set of trace options, such as the name prefix of
// the trace files, trace buffer size, and events to be traced").
type Options struct {
	// Prefix is the trace file name prefix; node n writes Prefix.n.
	Prefix string
	// BufferSize is the in-memory trace buffer size in bytes before a
	// flush to the file. Zero selects a default of 1 MiB. The buffer
	// starts at 4 KiB and, whenever the next record does not fit, grows
	// fourfold but never beyond this size: a busy node holds its full
	// buffer after four reallocations, and a node that cuts few records
	// never pays for the whole of it.
	BufferSize int
	// Enabled selects which event classes are traced.
	Enabled events.Mask
	// DelayStart suppresses tracing until Start is called, so only a
	// portion of the code is traced "to substantially reduce the amount
	// of trace data".
	DelayStart bool
	// Wrap selects the AIX trace facility's circular mode: instead of
	// flushing to the file as the buffer fills, only the most recent
	// BufferSize bytes of records are retained and written at Flush or
	// Close. The resulting trace starts mid-stream; convert it with the
	// tolerant option.
	Wrap bool
}

func (o Options) bufferSize() int {
	if o.BufferSize <= 0 {
		return 1 << 20
	}
	return o.BufferSize
}

// FileName returns the raw trace file name for a node under these options.
func (o Options) FileName(node int) string {
	return fmt.Sprintf("%s.%d", o.Prefix, node)
}

// Raw trace file header: magic, version, node id, cpu count, enabled mask.
const (
	rawMagic      = "UTRAW1\x00\x00"
	rawHeaderSize = RawHeaderSize
)

// RawHeaderSize is the length of the raw trace file header (magic,
// version, node id, cpu count, enabled mask). Streaming ingest uses it
// to split a node's preamble batch into header and records.
const RawHeaderSize = 8 + 4 + 4 + 4 + 4

// Facility is the per-node trace recorder. Methods are safe for
// concurrent use by the simulated threads of one node.
type Facility struct {
	mu     sync.Mutex
	opts   Options
	node   int
	ncpus  int
	w      io.Writer
	closer io.Closer
	buf    []byte
	// Wrap mode: ring of encoded records, evicted oldest-first.
	ring      [][]byte
	ringBytes int
	started   bool
	dropped   int64               // records suppressed while stopped/disabled
	cut       int64               // records written
	seqno     map[[2]int32]uint64 // per (src,dst) message sequence numbers
	err       error
}

// NewFacility creates the trace recorder for one node, writing the raw
// trace file header immediately. The caller owns closing via Close.
func NewFacility(opts Options, node, ncpus int, w io.Writer) (*Facility, error) {
	f := &Facility{
		opts:    opts,
		node:    node,
		ncpus:   ncpus,
		w:       w,
		buf:     make([]byte, 0, min(opts.bufferSize(), 4<<10)),
		started: !opts.DelayStart,
		seqno:   make(map[[2]int32]uint64),
	}
	if c, ok := w.(io.Closer); ok {
		f.closer = c
	}
	var hdr [rawHeaderSize]byte
	copy(hdr[:8], rawMagic)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(node))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(ncpus))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(opts.Enabled))
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: writing raw header: %w", err)
	}
	return f, nil
}

// CreateNodeFile opens the node's raw trace file per the options prefix
// and returns a Facility writing to it.
func CreateNodeFile(opts Options, node, ncpus int) (*Facility, error) {
	fp, err := os.Create(opts.FileName(node))
	if err != nil {
		return nil, err
	}
	f, err := NewFacility(opts, node, ncpus, fp)
	if err != nil {
		fp.Close()
		return nil, err
	}
	return f, nil
}

// Node returns the node id this facility records for.
func (f *Facility) Node() int { return f.node }

// Start enables tracing (used with Options.DelayStart).
func (f *Facility) Start() {
	f.mu.Lock()
	f.started = true
	f.mu.Unlock()
}

// Stop disables tracing; records cut while stopped are counted as dropped.
func (f *Facility) Stop() {
	f.mu.Lock()
	f.started = false
	f.mu.Unlock()
}

// Cut records one event. This is the hot path: it tests whether the
// event is enabled, then appends the encoded record to the trace buffer,
// flushing to the file when the buffer fills (paper §2.1's three-part
// cost model; the first two parts happen here).
func (f *Facility) Cut(r *Record) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.started || !f.opts.Enabled.Enabled(r.Type) {
		f.dropped++
		return
	}
	if f.opts.Wrap {
		enc := r.Encode(nil)
		f.ring = append(f.ring, enc)
		f.ringBytes += len(enc)
		limit := f.opts.bufferSize()
		for f.ringBytes > limit && len(f.ring) > 1 {
			f.ringBytes -= len(f.ring[0])
			f.ring[0] = nil
			f.ring = f.ring[1:]
			f.dropped++
		}
		f.cut++
		return
	}
	size := r.EncodedSize()
	if len(f.buf)+size > f.opts.bufferSize() {
		f.flushLocked()
	}
	if len(f.buf)+size > cap(f.buf) {
		f.growLocked(size)
	}
	f.buf = r.Encode(f.buf)
	f.cut++
}

// growLocked reallocates the trace buffer for a record of size bytes
// that does not fit: four times the capacity, at most bufferSize (see
// Options.BufferSize), at least what the record needs — a record larger
// than the whole buffer is still cut, alone.
func (f *Facility) growLocked(size int) {
	c := min(4*cap(f.buf), f.opts.bufferSize())
	c = max(c, len(f.buf)+size)
	f.buf = append(make([]byte, 0, c), f.buf...)
}

// NextSeqno returns the next point-to-point message sequence number for
// the (srcTask, dstTask) pair. The tracing library "adds a unique
// sequence number to each point-to-point message passing event record so
// that utilities can match sends with corresponding receives".
func (f *Facility) NextSeqno(src, dst int32) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := [2]int32{src, dst}
	f.seqno[k]++
	return f.seqno[k]
}

// Counts returns (records written, records dropped).
func (f *Facility) Counts() (cut, dropped int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cut, f.dropped
}

func (f *Facility) flushLocked() {
	if f.err != nil {
		f.buf = f.buf[:0]
		return
	}
	if f.opts.Wrap {
		for _, enc := range f.ring {
			if _, err := f.w.Write(enc); err != nil {
				f.err = fmt.Errorf("trace: flushing wrap ring: %w", err)
				break
			}
		}
		f.ring = nil
		f.ringBytes = 0
		return
	}
	if len(f.buf) == 0 {
		return
	}
	if _, err := f.w.Write(f.buf); err != nil && f.err == nil {
		f.err = fmt.Errorf("trace: flushing buffer: %w", err)
	}
	f.buf = f.buf[:0]
}

// Flush writes any buffered records to the underlying writer.
func (f *Facility) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flushLocked()
	return f.err
}

// Close flushes and closes the underlying file (if it is a Closer).
func (f *Facility) Close() error {
	f.mu.Lock()
	f.flushLocked()
	err := f.err
	closer := f.closer
	f.closer = nil
	f.mu.Unlock()
	if closer != nil {
		if cerr := closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Convenience cutters used by the runtime layers.

// CutDispatch records a thread being placed on a CPU.
func (f *Facility) CutDispatch(tid int32, t clock.Time, cpu int) {
	f.Cut(&Record{Type: events.EvDispatch, TID: tid, Time: t, Args: []uint64{uint64(cpu)}})
}

// CutUndispatch records a thread leaving a CPU for the given reason.
func (f *Facility) CutUndispatch(tid int32, t clock.Time, cpu, reason int) {
	f.Cut(&Record{Type: events.EvUndispatch, TID: tid, Time: t, Args: []uint64{uint64(cpu), uint64(reason)}})
}

// CutThreadInfo records a thread-registry entry (pid, system thread id,
// MPI task id, thread category) used to build the interval file's thread
// table.
func (f *Facility) CutThreadInfo(tid int32, t clock.Time, pid, systid uint64, task int32, threadType int) {
	f.Cut(&Record{Type: events.EvThreadInfo, TID: tid, Time: t,
		Args: []uint64{pid, systid, uint64(uint32(task)), uint64(threadType)}})
}

// CutGlobalClock records a (global, local) clock pair; the record's Time
// is the local reading, args[0] the global reading.
func (f *Facility) CutGlobalClock(tid int32, local, global clock.Time) {
	f.Cut(&Record{Type: events.EvGlobalClock, TID: tid, Time: local, Args: []uint64{uint64(global)}})
}
