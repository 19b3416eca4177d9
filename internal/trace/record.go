// Package trace implements the unified tracing facility of the paper's
// §2: an AIX-trace-like, per-node event recorder. Each record starts
// with a hookword identifying the event type and record length, followed
// by a local-clock timestamp and payload words; one raw trace file is
// produced per SMP node. The facility supports trace options (file name
// prefix, buffer size, enabled event classes, delayed start) and is
// cheap enough that cutting a record costs a small fraction of a
// microsecond (benchmarked in the repository root).
//
// A Reader decodes each record in place, from its one read window into
// a Record the caller supplies (NextInto; NextHeader for the fixed
// fields alone): the record and its Args are valid until the next call
// on the same Record, and a loop over a whole trace allocates only the
// rare string payload. Next is the owning form. All of them, Decode and
// convert.BatchDecoder parse through DecodeInto — one parse routine.
package trace

import (
	"encoding/binary"
	"fmt"
	"slices"

	"tracefw/internal/clock"
	"tracefw/internal/events"
)

// Record is one raw trace event.
type Record struct {
	Type events.Type // event type (hookword high bits)
	Edge events.Edge // point/entry/exit
	TID  int32       // node-local logical thread id
	Time clock.Time  // local-clock timestamp
	Args []uint64    // payload words, layout per event type
	Str  string      // optional string payload (marker names)
}

// Record header layout:
//
//	u32 hookword = type<<16 | edge<<12 | nargs (nargs in low 12 bits)
//	u32 tid
//	i64 local timestamp
//	nargs × u64 args
//	u16 strlen, strlen bytes   (only if hook flag strBit set)
//
// The hookword's bit 15 flags a string payload.
const (
	recHeaderSize = 4 + 4 + 8
	strBit        = 1 << 15
	maxArgs       = 1<<12 - 1
)

// EncodedSize returns the number of bytes Encode will produce.
func (r *Record) EncodedSize() int {
	n := recHeaderSize + 8*len(r.Args)
	if r.Str != "" {
		n += 2 + len(r.Str)
	}
	return n
}

// Encode appends the binary form of r to dst and returns the extended
// slice: it reserves EncodedSize bytes once and stores header, args and
// string in place. It panics on impossible records (too many args,
// oversized string): those are programming errors in the tracing
// library, not runtime conditions.
func (r *Record) Encode(dst []byte) []byte {
	if len(r.Args) > maxArgs {
		panic(fmt.Sprintf("trace: record with %d args", len(r.Args)))
	}
	if len(r.Str) > 0xffff {
		panic("trace: string payload too long")
	}
	hook := uint32(r.Type)<<16 | uint32(r.Edge&0x7)<<12 | uint32(len(r.Args))
	if r.Str != "" {
		hook |= strBit
	}
	n, size := len(dst), r.EncodedSize()
	dst = slices.Grow(dst, size)[:n+size]
	b := dst[n:]
	binary.LittleEndian.PutUint32(b[0:], hook)
	binary.LittleEndian.PutUint32(b[4:], uint32(r.TID))
	binary.LittleEndian.PutUint64(b[8:], uint64(r.Time))
	b = b[recHeaderSize:]
	for i, a := range r.Args {
		binary.LittleEndian.PutUint64(b[8*i:], a)
	}
	if r.Str != "" {
		b = b[8*len(r.Args):]
		binary.LittleEndian.PutUint16(b, uint16(len(r.Str)))
		copy(b[2:], r.Str)
	}
	return dst
}

// RecordSize tells how far the record at the head of b reaches, as far
// as b can tell (header, then args and string length, then string): a b
// of at least n bytes holds the whole record, n its encoded size; a
// shorter one must grow to n before more can be said, and part names
// what the missing bytes belong to.
func RecordSize(b []byte) (n int, part string) {
	if len(b) < recHeaderSize {
		return recHeaderSize, "record header"
	}
	hook := binary.LittleEndian.Uint32(b)
	n = recHeaderSize + 8*int(hook&0xfff)
	if hook&strBit == 0 {
		return n, "record body"
	}
	if n += 2; len(b) < n {
		return n, "record body"
	}
	return n + int(binary.LittleEndian.Uint16(b[n-2:])), "string payload"
}

// decodeHeader fills r's fixed fields from a record image at least
// recHeaderSize long and empties its payload (Args keeps its capacity).
func decodeHeader(r *Record, b []byte) {
	hook := binary.LittleEndian.Uint32(b)
	r.Type = events.Type(hook >> 16)
	r.Edge = events.Edge(hook >> 12 & 0x7)
	r.TID = int32(binary.LittleEndian.Uint32(b[4:]))
	r.Time = clock.Time(binary.LittleEndian.Uint64(b[8:]))
	r.Args = r.Args[:0]
	r.Str = ""
}

// DecodeInto parses the record at the head of b into r, overwriting it,
// and returns the number of bytes consumed. r.Args is refilled in place,
// reusing its capacity; only a string payload allocates. On error r is
// unspecified.
func DecodeInto(r *Record, b []byte) (int, error) {
	n, part := RecordSize(b)
	if len(b) < n {
		return 0, fmt.Errorf("trace: truncated %s (%d of %d bytes)", part, len(b), n)
	}
	decodeHeader(r, b)
	hook := binary.LittleEndian.Uint32(b)
	nargs := int(hook & 0xfff)
	if cap(r.Args) < nargs {
		r.Args = make([]uint64, nargs)
	}
	r.Args = r.Args[:nargs]
	for i := range r.Args {
		r.Args[i] = binary.LittleEndian.Uint64(b[recHeaderSize+8*i:])
	}
	if hook&strBit != 0 {
		r.Str = string(b[recHeaderSize+8*nargs+2 : n])
	}
	return n, nil
}

// Decode parses one record from b, returning the record — which owns its
// Args — and the number of bytes consumed.
func Decode(b []byte) (Record, int, error) {
	var r Record
	n, err := DecodeInto(&r, b)
	if err != nil {
		return Record{}, 0, err
	}
	return r, n, nil
}
