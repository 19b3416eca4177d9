package convert

import (
	"bytes"
	"fmt"

	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/trace"
)

// Streaming conversion: the ingest path feeds raw events one at a time
// instead of handing over whole files. The interval-file header (thread
// table, marker table) must be written before any record, so streaming
// imposes a preamble contract on each node's event stream: the first
// batch carries the raw trace header, every EvThreadInfo record, and
// every EvMarkerDefine string the node will ever use. ScanPreamble
// extracts those tables with exactly the same rules as the batch table
// pass (scanTables), so a stream that honors the contract converts to
// byte-identical records.

// Preamble holds the tables extracted from a node's first batch.
type Preamble struct {
	Node    int
	Threads []interval.ThreadEntry
	// Defines lists the distinct marker strings in first-seen order —
	// the order the batch pipeline's canonicalization assigns global
	// identifiers in (node-then-first-seen across nodes).
	Defines []string
}

// ScanPreamble parses a node's complete first batch — the raw trace
// header followed by whole event records — and extracts its thread and
// marker tables. A batch that does not end on a record boundary is
// rejected: the preamble must be self-contained so the header barrier
// can run before any later batch arrives.
func ScanPreamble(batch []byte) (*Preamble, error) {
	tp, err := scanTables(bytes.NewReader(batch))
	if err != nil {
		return nil, fmt.Errorf("convert: preamble: %w", err)
	}
	if len(tp.placeholders) != 0 {
		return nil, fmt.Errorf("convert: preamble uses %d markers before their definitions", len(tp.placeholders))
	}
	return &Preamble{Node: tp.node, Threads: tp.threads, Defines: tp.defines}, nil
}

// Stream converts one node's raw events incrementally. Records emitted
// by the conversion go to sink in end-time order (local clock); each is
// the converter's own and valid for that call only, so sink copies what
// it keeps (see the package comment). The
// caller must have assigned global identifiers for every preamble
// define string (for all nodes, in node order) before the first Event —
// the header barrier — because the registry is frozen from then on.
type Stream struct {
	c *converter
}

// NewStream builds a streaming converter from a node's preamble. The
// registry must already hold identifiers for pre.Defines.
func NewStream(pre *Preamble, markers *MarkerRegistry, sink func(*interval.Record) error) (*Stream, error) {
	for _, s := range pre.Defines {
		if _, ok := markers.Lookup(s); !ok {
			return nil, fmt.Errorf("convert: stream for node %d: marker %q not assigned at the header barrier", pre.Node, s)
		}
	}
	return &Stream{c: newConverter(pre.Node, pre.Threads, markers, sink)}, nil
}

// Event converts one raw record, which it does not keep: rec and its
// Args may be reused as soon as Event returns. Beyond the batch
// converter's rules it enforces the streaming contract: no thread and no
// marker string may appear that the preamble (and with it the
// already-written header) did not declare.
func (s *Stream) Event(rec *trace.Record) error {
	switch rec.Type {
	case events.EvThreadInfo:
		if _, ok := s.c.threads[rec.TID]; !ok {
			return fmt.Errorf("convert: stream: thread %d introduced after the preamble", rec.TID)
		}
	case events.EvMarkerDefine:
		if _, ok := s.c.markers.Lookup(rec.Str); !ok {
			return fmt.Errorf("convert: stream: marker %q introduced after the preamble", rec.Str)
		}
	default:
		if rec.TID >= 0 {
			// The batch table pass synthesizes entries for threads seen
			// anywhere in the trace; a stream can only honor that for
			// threads seen in the preamble batch.
			if _, ok := s.c.threads[rec.TID]; !ok {
				return fmt.Errorf("convert: stream: record on thread %d unknown to the preamble", rec.TID)
			}
		}
	}
	s.c.res.Events++
	return s.c.event(rec)
}

// Finish closes the states of threads still live when the stream ends,
// exactly as the batch converter does at end of trace.
func (s *Stream) Finish() error { return s.c.finish() }

// Result summarizes the conversion so far. The ClockPairs carry the raw
// local readings of every global-clock record processed.
func (s *Stream) Result() *Result { return &s.c.res }

// RawHeaderSize is the length of the raw trace header that opens every
// node's preamble batch.
const RawHeaderSize = trace.RawHeaderSize

// maxRawRecord bounds a single encoded raw event record: the fixed
// header, the largest possible argument block (the 12-bit nargs field),
// and a maximal length-prefixed string.
const maxRawRecord = 16 + 8*4095 + 2 + 65535

// BatchDecoder incrementally splits a node's post-preamble byte stream
// into raw records. Batches need not align with record boundaries; the
// trailing partial record is buffered until the next batch arrives.
type BatchDecoder struct {
	rem []byte       // the partial record a batch ended in
	rec trace.Record // the record handed to fn, refilled in place
}

// Feed takes one batch and invokes fn for every complete record now
// available, through the same parse routine the batch reader uses
// (trace.DecodeInto). The record and its Args are the decoder's and only
// valid for the call. Only the record straddling the batch boundary is
// completed in the remainder buffer; every other record is decoded from
// batch where it lies. A malformed stream — a record that stays
// undecodable after more than the maximum encoded record size has been
// buffered — or an fn error stops the decode and is returned.
func (d *BatchDecoder) Feed(batch []byte, fn func(*trace.Record) error) error {
	for len(d.rem) > 0 {
		// Grow the remainder by exactly the bytes the straddling record
		// still misses — a stage at a time, since its size is known only
		// once its header (then its string length) is in.
		n, _ := trace.RecordSize(d.rem)
		if miss := n - len(d.rem); miss > 0 {
			take := min(miss, len(batch))
			d.rem = append(d.rem, batch[:take]...)
			batch = batch[take:]
			if take < miss {
				return nil // batch used up, record still partial
			}
			continue
		}
		if _, err := trace.DecodeInto(&d.rec, d.rem); err != nil {
			return err
		}
		d.rem = d.rem[:0]
		if err := fn(&d.rec); err != nil {
			return err
		}
	}
	for len(batch) > 0 {
		n, err := trace.DecodeInto(&d.rec, batch)
		if err != nil {
			if len(batch) > maxRawRecord {
				return fmt.Errorf("convert: undecodable event record (%d bytes buffered): %w", len(batch), err)
			}
			break // truncated: wait for the next batch
		}
		batch = batch[n:]
		if err := fn(&d.rec); err != nil {
			return err
		}
	}
	d.rem = append(d.rem[:0], batch...)
	return nil
}

// Buffered returns how many bytes of a partial trailing record are
// waiting for the next batch.
func (d *BatchDecoder) Buffered() int { return len(d.rem) }

// Finish reports whether the stream ended cleanly on a record boundary.
func (d *BatchDecoder) Finish() error {
	if len(d.rem) != 0 {
		return fmt.Errorf("convert: stream ended mid-record (%d trailing bytes)", len(d.rem))
	}
	return nil
}
