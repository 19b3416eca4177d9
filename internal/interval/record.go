// Package interval implements the paper's self-defining interval trace
// file format (§2.3) and its simple access API (§2.4). An interval file
// holds a header, a thread table, a marker-string table, and interval
// records partitioned into frames linked from doubly-linked frame
// directories, so that utilities can jump to any frame without reading
// the records before it. Records within a file are in ascending order of
// their end time (start + duration), the property the merge utility
// relies on.
//
// # Opening files
//
// Open (a path) and NewFile (a reader with ReadAt and Seek) are the
// package's entry points, configured by functional options
// (WithPyramid, WithLiveTail). Frame payload checksums are always
// verified; File.Salvage is the best-effort recovery pass over an opened
// file and returns what it recovered.
//
// A File may be shared by concurrent readers: every read is positioned,
// and the directory chain is read once, by whichever metadata call or
// scan comes first, and answered from memory from then on. A damaged
// directory therefore fails every metadata call and every scan with the
// same error; Salvage reads around damage. Close is idempotent and safe
// under concurrency; operations on a closed file fail with ErrClosed.
// Long-running callers cancel work through MapOptions.Context, checked
// at frame granularity; a Scanner is not cancellable.
package interval

import (
	"encoding/binary"
	"fmt"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/profile"
)

// Record is a decoded standard-profile interval record: the common
// fields of §2.3.2 plus the state type's extra fields (all unsigned
// 64-bit scalars, in events.ExtraFields order).
type Record struct {
	Type   events.Type
	Bebits profile.Bebits
	Start  clock.Time // start timestamp
	Dura   clock.Time // duration
	CPU    uint16     // processor ID
	Node   uint16     // node ID
	Thread uint16     // node-local logical thread ID
	Extra  []uint64
	// Vec is the state type's trailing vector field (flattened unsigned
	// 64-bit elements), present only for types where
	// events.VectorField(Type) is non-empty.
	Vec []uint64
}

// End returns the record's end time, the file's sort key.
func (r Record) End() clock.Time { return r.Start + r.Dura }

// CopyInto makes *dst a deep copy of r: Extra and Vec are copied into
// dst's own backing arrays, grown only when too short, so a dst reused
// record after record stops allocating once its slices are large enough.
// An empty Extra or Vec copies as empty, not necessarily nil.
func (r *Record) CopyInto(dst *Record) {
	extra, vec := dst.Extra[:0], dst.Vec[:0]
	*dst = *r
	dst.Extra = append(extra, r.Extra...)
	dst.Vec = append(vec, r.Vec...)
}

// Field returns the named extra field's value, consulting the state
// type's field table.
func (r Record) Field(name string) (uint64, bool) {
	for i, f := range events.ExtraFields(r.Type) {
		if f == name && i < len(r.Extra) {
			return r.Extra[i], true
		}
	}
	return 0, false
}

// String renders a compact human-readable form.
func (r Record) String() string {
	return fmt.Sprintf("%s/%s n%d c%d t%d [%v +%v]",
		r.Type.Name(), r.Bebits, r.Node, r.CPU, r.Thread, r.Start, r.Dura)
}

// Each interval record is preceded by a one-byte record length; a zero
// length escapes to a two-byte length for records over 255 bytes
// (paper §2.3.2), so readers can always find the next record without
// examining the current one in detail.

// AppendFramed appends payload with its length prefix.
func AppendFramed(dst, payload []byte) []byte {
	return append(appendFrameLen(dst, len(payload)), payload...)
}

// appendFrameLen appends the length prefix of an n-byte payload.
func appendFrameLen(dst []byte, n int) []byte {
	if n > 0xffff {
		panic(fmt.Sprintf("interval: record payload %d bytes exceeds format limit", n))
	}
	if n > 0 && n <= 255 {
		return append(dst, byte(n))
	}
	return append(dst, 0, byte(n), byte(n>>8))
}

// NextFramed splits the first length-prefixed record payload from b,
// returning the payload and the total bytes consumed.
func NextFramed(b []byte) (payload []byte, n int, err error) {
	if len(b) < 1 {
		return nil, 0, fmt.Errorf("interval: empty buffer")
	}
	l := int(b[0])
	off := 1
	if l == 0 {
		if len(b) < 3 {
			return nil, 0, fmt.Errorf("interval: truncated extended length")
		}
		l = int(binary.LittleEndian.Uint16(b[1:3]))
		off = 3
	}
	if len(b) < off+l {
		return nil, 0, fmt.Errorf("interval: truncated record (want %d bytes)", l)
	}
	return b[off : off+l], off + l, nil
}

// AppendPayload appends r's standard-profile payload (no length prefix):
// the common fields, the scalar extras, and — for types declaring one —
// the trailing vector field (2-byte counter plus 8-byte elements).
func (r *Record) AppendPayload(dst []byte) []byte {
	return appendPayload(dst, r.Type, r.Bebits, r.Start, r.Dura, r.CPU, r.Node, r.Thread, r.Extra, r.Vec)
}

// appendPayload is the one fixed-width payload encoder, under
// Record.AppendPayload and Batch.AppendRowPayload.
func appendPayload(dst []byte, typ events.Type, be profile.Bebits, start, dura clock.Time, cpu, node, thread uint16, extra, vec []uint64) []byte {
	var b [profile.CommonSize]byte
	binary.LittleEndian.PutUint16(b[0:], uint16(typ))
	b[2] = uint8(be)
	binary.LittleEndian.PutUint64(b[3:], uint64(start))
	binary.LittleEndian.PutUint64(b[11:], uint64(dura))
	binary.LittleEndian.PutUint16(b[19:], cpu)
	binary.LittleEndian.PutUint16(b[21:], node)
	binary.LittleEndian.PutUint16(b[23:], thread)
	dst = append(dst, b[:]...)
	var w [8]byte
	for _, e := range extra {
		binary.LittleEndian.PutUint64(w[:], e)
		dst = append(dst, w[:]...)
	}
	if events.VectorField(typ) != "" {
		binary.LittleEndian.PutUint16(w[:2], uint16(len(vec)))
		dst = append(dst, w[:2]...)
		for _, e := range vec {
			binary.LittleEndian.PutUint64(w[:], e)
			dst = append(dst, w[:]...)
		}
	}
	return dst
}

// Append appends r with its length prefix, encoding straight into dst.
func (r *Record) Append(dst []byte) []byte {
	return r.AppendPayload(appendFrameLen(dst, r.payloadSize()))
}

// payloadSize returns the length of what AppendPayload appends.
func (r *Record) payloadSize() int {
	n := profile.CommonSize + 8*len(r.Extra)
	if events.VectorField(r.Type) != "" {
		n += 2 + 8*len(r.Vec)
	}
	return n
}

// EncodedSize returns the framed size of r.
func (r *Record) EncodedSize() int {
	n := r.payloadSize()
	if n > 0 && n <= 255 {
		return 1 + n
	}
	return 3 + n
}

// DecodePayload parses a standard-profile record payload into a fresh
// Record. Zero-length Extra/Vec are nil.
func DecodePayload(payload []byte) (Record, error) {
	r, extras, vec, err := splitPayload(payload)
	if err != nil {
		return Record{}, err
	}
	if len(extras) > 0 {
		r.Extra = appendLE64(make([]uint64, 0, len(extras)/8), extras)
	}
	if len(vec) > 0 {
		r.Vec = appendLE64(make([]uint64, 0, len(vec)/8), vec)
	}
	return r, nil
}

// splitPayload is the fixed-width payload parser: it validates the
// payload's layout and returns the common fields (Extra and Vec unset)
// plus the little-endian bytes of the scalar extras and of the vector
// elements, each a whole number of 8-byte words for appendLE64.
func splitPayload(p []byte) (r Record, extras, vec []byte, err error) {
	if len(p) < profile.CommonSize {
		return r, nil, nil, fmt.Errorf("interval: payload %d bytes, need at least %d", len(p), profile.CommonSize)
	}
	r.Type = events.Type(binary.LittleEndian.Uint16(p[0:]))
	r.Bebits = profile.Bebits(p[2])
	r.Start = clock.Time(binary.LittleEndian.Uint64(p[3:]))
	r.Dura = clock.Time(binary.LittleEndian.Uint64(p[11:]))
	r.CPU = binary.LittleEndian.Uint16(p[19:])
	r.Node = binary.LittleEndian.Uint16(p[21:])
	r.Thread = binary.LittleEndian.Uint16(p[23:])
	rest := p[profile.CommonSize:]
	if events.VectorField(r.Type) != "" {
		// Fixed scalar extras, then the counter-prefixed vector.
		nx := len(events.ExtraFields(r.Type))
		if len(rest) < 8*nx+2 {
			return r, nil, nil, fmt.Errorf("interval: %s record too short for %d extras + vector counter", r.Type.Name(), nx)
		}
		extras, rest = rest[:8*nx], rest[8*nx:]
		n := int(binary.LittleEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) != 8*n {
			return r, nil, nil, fmt.Errorf("interval: vector claims %d elements, %d bytes follow", n, len(rest))
		}
		return r, extras, rest, nil
	}
	if len(rest)%8 != 0 {
		return r, nil, nil, fmt.Errorf("interval: %d trailing bytes not a whole number of extras", len(rest))
	}
	return r, rest, nil, nil
}

// appendLE64 appends the little-endian 64-bit words of b to dst.
func appendLE64(dst []uint64, b []byte) []uint64 {
	for ; len(b) >= 8; b = b[8:] {
		dst = append(dst, binary.LittleEndian.Uint64(b))
	}
	return dst
}
