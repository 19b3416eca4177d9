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

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/profile"
)

// dictEntry is one row of a v4 frame dictionary, and doubles as the
// writer's deduplication key (it is comparable, and hashes from its
// fields packed into two words).
type dictEntry struct {
	typ    events.Type
	bebits profile.Bebits
	cpu    uint16
	node   uint16
	thread uint16
	nx     int // scalar extras count
}

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

// v4EncState is the writer's per-frame encode scratch, reused across
// frames so steady-state encoding allocates nothing.
type v4EncState struct {
	dict []dictEntry
	// slots is the dictionary's probe table: open addressing over a
	// power-of-two array of dictionary index+1 (0 = empty), cleared per
	// frame and kept at most half full.
	slots []uint32
	idx   []uint32 // per-row dictionary index
}

// hash mixes the entry's fields, packed into two words; the multiply
// leaves the entropy in the high bits, so they are folded down for
// callers that mask off the low ones.
func (d *dictEntry) hash() uint64 {
	w0 := uint64(d.typ)<<48 | uint64(d.cpu)<<32 | uint64(d.node)<<16 | uint64(d.thread)
	w1 := uint64(d.nx)<<8 | uint64(d.bebits)
	h := (w0 ^ w1*0x9e3779b97f4a7c15) * 0xff51afd7ed558ccd
	return h ^ h>>32
}

// lookup returns key's dictionary index, appending key to the
// dictionary on first appearance.
func (st *v4EncState) lookup(key *dictEntry) uint32 {
	mask := uint64(len(st.slots) - 1)
	i := key.hash() & mask
	for ; st.slots[i] != 0; i = (i + 1) & mask {
		if di := st.slots[i] - 1; st.dict[di] == *key {
			return di
		}
	}
	st.dict = append(st.dict, *key)
	st.slots[i] = uint32(len(st.dict))
	if 2*len(st.dict) > len(st.slots) {
		st.rehash(2 * len(st.slots))
	}
	return uint32(len(st.dict) - 1)
}

// rehash makes the probe table size slots wide (a power of two) and
// re-enters the dictionary.
func (st *v4EncState) rehash(size int) {
	st.slots = make([]uint32, size)
	mask := uint64(size - 1)
	for di := range st.dict {
		i := st.dict[di].hash() & mask
		for st.slots[i] != 0 {
			i = (i + 1) & mask
		}
		st.slots[i] = uint32(di + 1)
	}
}

// appendV4 is the v4 encoder: it appends the batch's rows to dst as one
// compact frame. One walk over the columns builds the dictionary (in
// first-appearance order) and finds the base start, a second emits the
// rows. An empty batch encodes to nothing.
func (b *Batch) appendV4(dst []byte, st *v4EncState) []byte {
	if b.N == 0 {
		return dst
	}
	st.dict = st.dict[:0]
	st.idx = st.idx[:0]
	if st.slots == nil {
		st.rehash(64)
	} else {
		clear(st.slots)
	}
	base := b.Start[0]
	for i := 0; i < b.N; i++ {
		key := dictEntry{b.Type[i], b.Bebits[i], b.CPU[i], b.Node[i], b.Thread[i],
			int(b.ExtraOff[i+1] - b.ExtraOff[i])}
		st.idx = append(st.idx, st.lookup(&key))
		if b.Start[i] < base {
			base = b.Start[i]
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(st.dict)))
	for _, d := range st.dict {
		dst = binary.AppendUvarint(dst, uint64(d.typ))
		dst = binary.AppendUvarint(dst, uint64(d.bebits))
		dst = binary.AppendUvarint(dst, uint64(d.cpu))
		dst = binary.AppendUvarint(dst, uint64(d.node))
		dst = binary.AppendUvarint(dst, uint64(d.thread))
		dst = binary.AppendUvarint(dst, uint64(d.nx))
	}
	dst = binary.AppendVarint(dst, int64(base))
	for i := 0; i < b.N; i++ {
		dst = binary.AppendUvarint(dst, uint64(st.idx[i]))
		dst = binary.AppendUvarint(dst, uint64(b.Start[i]-base))
		dst = binary.AppendVarint(dst, int64(b.Dura[i]))
		for _, e := range b.ExtraRow(i) {
			dst = binary.AppendUvarint(dst, e)
		}
		if events.VectorField(b.Type[i]) != "" {
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

// uvarint reads one varint off the front of s (the frame-header fields;
// the row loop in decodeV4 inlines its own).
func uvarint(s []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(s)
	if n <= 0 {
		return 0, s, errVarint
	}
	return v, s[n:], nil
}

// decodeV4 is the v4 decoder: it parses and validates the frame's
// dictionary and base start, then fills the columns straight from the
// varint stream. An empty buffer is an empty frame.
//
// Every count read from the stream is bounded against the bytes that
// remain before anything is appended, so a corrupt or adversarial frame
// fails with an error instead of a huge allocation.
func (b *Batch) decodeV4(s []byte) error {
	if len(s) == 0 {
		return nil
	}
	nd, s, err := uvarint(s)
	if err != nil {
		return err
	}
	if nd == 0 || nd > uint64(len(s)/minV4DictEntry) {
		return fmt.Errorf("interval: v4 frame dictionary of %d entries cannot fit in %d bytes", nd, len(s))
	}
	dict := b.dict[:0]
	for i := 0; i < int(nd); i++ {
		var f [6]uint64 // type, bebits, cpu, node, thread, nExtras
		for k := range f {
			if f[k], s, err = uvarint(s); err != nil {
				return err
			}
		}
		if f[0] > 0xffff || f[1] > 0xff || f[2] > 0xffff || f[3] > 0xffff || f[4] > 0xffff {
			return fmt.Errorf("interval: v4 dictionary entry %d field out of range", i)
		}
		// Every extra costs at least one stream byte, and the record must
		// stay re-encodable as a fixed-width payload.
		if nx := f[5]; nx > uint64(len(s)) || profile.CommonSize+8*nx > maxPayload {
			return fmt.Errorf("interval: v4 dictionary entry %d claims %d extras", i, nx)
		}
		dict = append(dict, dictEntry{
			typ:    events.Type(f[0]),
			bebits: profile.Bebits(f[1]),
			cpu:    uint16(f[2]),
			node:   uint16(f[3]),
			thread: uint16(f[4]),
			nx:     int(f[5]),
		})
	}
	b.dict = dict
	bv, n := binary.Varint(s)
	if n <= 0 {
		return errVarint
	}
	base := clock.Time(bv)
	s = s[n:]
	if len(s) == 0 {
		return fmt.Errorf("interval: v4 frame has a dictionary but no records")
	}
	// The row loop hand-inlines the one-byte varint fast path against a
	// local slice — at ~9 stream values per record this is the decode hot
	// path, so it pays to keep the per-value cost at a bounds check and a
	// compare.
	var v uint64
	for len(s) > 0 {
		// Dictionary index.
		if s[0] < 0x80 {
			v, s = uint64(s[0]), s[1:]
		} else if v, n = binary.Uvarint(s); n > 0 {
			s = s[n:]
		} else {
			return errVarint
		}
		if v >= uint64(len(dict)) {
			return fmt.Errorf("interval: v4 record dictionary index %d out of range (%d entries)", v, len(dict))
		}
		d := dict[v]
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
		b.pushCommon(d.typ, d.bebits, start, clock.Time(int64(v>>1)^-int64(v&1)), d.cpu, d.node, d.thread)
		for i := 0; i < d.nx; i++ {
			if len(s) != 0 && s[0] < 0x80 {
				v, s = uint64(s[0]), s[1:]
			} else if v, n = binary.Uvarint(s); n > 0 {
				s = s[n:]
			} else {
				return errVarint
			}
			b.Extras = append(b.Extras, v)
		}
		if events.VectorField(d.typ) != "" {
			if len(s) != 0 && s[0] < 0x80 {
				v, s = uint64(s[0]), s[1:]
			} else if v, n = binary.Uvarint(s); n > 0 {
				s = s[n:]
			} else {
				return errVarint
			}
			if v > uint64(len(s)) || profile.CommonSize+8*uint64(d.nx)+2+8*v > maxPayload {
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
