package interval

// Header version 4 compact frame encoding. The directory layout is
// unchanged from version 3 (same magic, metadata checksum, and
// per-frame payload CRC over the encoded bytes); only the bytes inside
// each frame differ. Instead of fixed-width records, a v4 frame holds:
//
//	dictCount   uvarint
//	dictionary  dictCount × (type, bebits, cpu, node, thread, nExtras), all uvarint
//	baseStart   varint (zigzag) — the minimum start time in the frame
//	records     × (dictIdx uvarint, startDelta uvarint, duration varint,
//	               nExtras × extra uvarint,
//	               [vecCount uvarint + vecCount × elem uvarint])
//
// The dictionary deduplicates the (type, bebits, cpu, node, thread)
// tuples that repeat across a frame's records; nExtras lives in the
// dictionary because the fixed-width encoding derives the scalar extras
// count from the payload length, so it must be stated explicitly once
// lengths are variable. The vector field (present exactly when
// events.VectorField(type) is non-empty) keeps a per-record element
// count. startDelta is relative to baseStart, which is the frame
// *minimum* — records are end-time ordered, so the first record's start
// need not be the smallest. Keeping the base frame-local means window
// seeks, the parallel map-reduce engine, and salvage resync never need
// context outside one frame.
//
// In memory the dictionary is the batch's own (Batch.Dict) and dictIdx
// is the row's code: the decoder keeps the dictionary as stored and each
// index as read, and the encoder writes the dictionary the batch built
// while its rows were pushed, as it stands. The writer never stores an
// entry twice or one no row uses; a decoded frame may hold either, which
// is why codes are frame-local and never compared as keys.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/profile"
)

const (
	// minV4Record bounds the smallest encoded v4 record: dictionary
	// index, start delta, and duration at one varint byte each.
	minV4Record = 3
	// minV4DictEntry: six varint fields at one byte each.
	minV4DictEntry = 6
	// maxPayload is the largest v1-style payload AppendFramed can frame.
	// Writer.Add refuses a record over it and v4 decoding enforces it, so
	// every record in a file can be re-encoded fixed-width (Scanner.Next,
	// a Repair into header versions 1–3).
	maxPayload = 0xffff
)

// minRecordBytes is the smallest possible encoded record for a header
// version, used to validate record counts against frame and file sizes.
func minRecordBytes(version uint32) int64 {
	if version >= 4 {
		return minV4Record
	}
	return minFramedRecord
}

// appendV4 is the v4 encoder: it appends the batch's rows to dst as one
// compact frame — the batch's dictionary as it stands, the base start,
// then each row's code, times, extras and, where its entry says so, its
// vector. An empty batch encodes to nothing.
func (b *Batch) appendV4(dst []byte) []byte {
	if b.N == 0 {
		return dst
	}
	base := b.Start[0]
	for _, s := range b.Start[1:b.N] {
		base = min(base, s)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b.Dict)))
	for _, k := range b.Dict {
		for _, v := range [...]uint64{uint64(k.Type), uint64(k.Bebits), uint64(k.CPU), uint64(k.Node), uint64(k.Thread), uint64(k.NX)} {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	dst = binary.AppendVarint(dst, int64(base))
	for i, c := range b.Code[:b.N] {
		dst = binary.AppendUvarint(dst, uint64(c))
		dst = binary.AppendUvarint(dst, uint64(b.Start[i]-base))
		dst = binary.AppendVarint(dst, int64(b.Dura[i]))
		for _, e := range b.ExtraRow(i) {
			dst = binary.AppendUvarint(dst, e)
		}
		if b.Dict[c].Vec {
			vec := b.VecRow(i)
			dst = binary.AppendUvarint(dst, uint64(len(vec)))
			for _, e := range vec {
				dst = binary.AppendUvarint(dst, e)
			}
		}
	}
	return dst
}

// errVarint reports a varint that runs past the frame or past 64 bits.
var errVarint = errors.New("interval: truncated or oversized varint")

// decodeV4 is the v4 decoder: it parses and validates the frame's
// dictionary into the batch's, as stored, and the base start, then fills
// the columns straight from the varint stream, each row's code as read.
// An empty buffer is an empty frame.
//
// Every count read from the stream is bounded against the bytes that
// remain before anything is appended, so a corrupt or adversarial frame
// fails with an error instead of a huge allocation.
//
// Both loops hand-inline the one-byte varint fast path against a local
// slice, and a two-byte one where values usually need it (types are
// 0x200 and up; dictionary indexes pass 127 on a wide machine): a wide
// machine's frames carry nearly one dictionary entry per record, so the
// dictionary is as hot as the rows, and at ~9 stream values per record
// it pays to keep the per-value cost at a bounds check and a compare.
// Whether a type carries the vector field is looked up once per
// dictionary entry (Key.Vec), not per record.
func (b *Batch) decodeV4(s []byte) error {
	if len(s) == 0 {
		return nil
	}
	nd, n := binary.Uvarint(s)
	if n <= 0 {
		return errVarint
	}
	s = s[n:]
	if nd == 0 || nd > uint64(len(s)/minV4DictEntry) {
		return fmt.Errorf("interval: v4 frame dictionary of %d entries cannot fit in %d bytes", nd, len(s))
	}
	dict := slices.Grow(b.Dict[:0], int(nd))[:nd]
	var v uint64
	for i := 0; i < int(nd); i++ {
		var f [6]uint64 // type, bebits, cpu, node, thread, nExtras
		for k := range f {
			if len(s) != 0 && s[0] < 0x80 {
				v, s = uint64(s[0]), s[1:]
			} else if len(s) > 1 && s[1] < 0x80 {
				v, s = uint64(s[0]&0x7f)|uint64(s[1])<<7, s[2:]
			} else if v, n = binary.Uvarint(s); n > 0 {
				s = s[n:]
			} else {
				return errVarint
			}
			f[k] = v
		}
		if f[0] > 0xffff || f[1] > 0xff || f[2] > 0xffff || f[3] > 0xffff || f[4] > 0xffff {
			return fmt.Errorf("interval: v4 dictionary entry %d field out of range", i)
		}
		// Every extra costs at least one stream byte, and the record must
		// stay re-encodable as a fixed-width payload.
		if nx := f[5]; nx > uint64(len(s)) || profile.CommonSize+8*nx > maxPayload {
			return fmt.Errorf("interval: v4 dictionary entry %d claims %d extras", i, nx)
		}
		typ := events.Type(f[0])
		dict[i] = Key{typ, profile.Bebits(f[1]), uint16(f[2]), uint16(f[3]), uint16(f[4]), uint16(f[5]), events.VectorField(typ) != ""}
	}
	b.Dict = dict
	bv, n := binary.Varint(s)
	if n <= 0 {
		return errVarint
	}
	base := clock.Time(bv)
	s = s[n:]
	if len(s) == 0 {
		return fmt.Errorf("interval: v4 frame has a dictionary but no records")
	}
	for len(s) > 0 {
		// Dictionary index.
		if s[0] < 0x80 {
			v, s = uint64(s[0]), s[1:]
		} else if len(s) > 1 && s[1] < 0x80 {
			v, s = uint64(s[0]&0x7f)|uint64(s[1])<<7, s[2:]
		} else if v, n = binary.Uvarint(s); n > 0 {
			s = s[n:]
		} else {
			return errVarint
		}
		if v >= uint64(len(dict)) {
			return fmt.Errorf("interval: v4 record dictionary index %d out of range (%d entries)", v, len(dict))
		}
		code, nx, dv := uint32(v), int(dict[v].NX), dict[v].Vec
		// Start delta.
		if len(s) != 0 && s[0] < 0x80 {
			v, s = uint64(s[0]), s[1:]
		} else if v, n = binary.Uvarint(s); n > 0 {
			s = s[n:]
		} else {
			return errVarint
		}
		start := base + clock.Time(v)
		// Duration (zigzag).
		if len(s) != 0 && s[0] < 0x80 {
			v, s = uint64(s[0]), s[1:]
		} else if v, n = binary.Uvarint(s); n > 0 {
			s = s[n:]
		} else {
			return errVarint
		}
		b.pushRow(start, clock.Time(int64(v>>1)^-int64(v&1)), code)
		x := b.Extras
		for i := 0; i < nx; i++ {
			if len(s) != 0 && s[0] < 0x80 {
				v, s = uint64(s[0]), s[1:]
			} else if v, n = binary.Uvarint(s); n > 0 {
				s = s[n:]
			} else {
				return errVarint
			}
			x = append(x, v)
		}
		b.Extras = x
		if dv {
			if len(s) != 0 && s[0] < 0x80 {
				v, s = uint64(s[0]), s[1:]
			} else if v, n = binary.Uvarint(s); n > 0 {
				s = s[n:]
			} else {
				return errVarint
			}
			if v > uint64(len(s)) || profile.CommonSize+8*uint64(nx)+2+8*v > maxPayload {
				return fmt.Errorf("interval: v4 record claims a %d-element vector", v)
			}
			for nv := int(v); nv > 0; nv-- {
				if len(s) != 0 && s[0] < 0x80 {
					v, s = uint64(s[0]), s[1:]
				} else if v, n = binary.Uvarint(s); n > 0 {
					s = s[n:]
				} else {
					return errVarint
				}
				b.Vecs = append(b.Vecs, v)
			}
		}
		b.closeRow()
	}
	return nil
}
