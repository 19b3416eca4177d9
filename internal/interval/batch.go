package interval

// Columnar frame decode. A Batch holds one frame's records as parallel
// column vectors instead of a []Record: start and duration are flat
// arrays, each row's (type, bebits, cpu, node, thread) prefix is one
// uint32 code into the frame's dictionary of distinct keys, and the
// variable-length extras and vector elements are flattened into two
// shared backing columns addressed by prefix-sum offsets. The dictionary
// is the one a v4 frame stores (decodeV4 writes the codes it reads, and
// appendV4 writes the dictionary as it stands); rows pushed by the
// writer or read from a fixed-width frame intern their keys through one
// probe table, in first-appearance order. Whatever depends on the key
// alone — a predicate over state, a group slot, a summary row — is
// resolved once per entry and read per row by code. Every column is a
// plain reusable slice, so a pooled batch decodes with zero allocations
// once its columns have grown to frame size. A Batch is the only
// in-memory form of a frame, in both directions: the Writer accumulates
// its open frame in one and encodes from the columns, and the map-reduce
// engine (MapFrames), the frame source, every Scanner and the summary
// planner's edge decodes all hand out batches; record-at-a-time
// consumers read them through Row.

import (
	"fmt"
	"slices"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/profile"
)

// Key is one entry of a frame's dictionary: a row's common prefix
// (type, bebits, cpu, node, thread), the count of scalar extras its rows
// carry, and whether its type carries the vector field. A v4 frame
// stores each distinct key once; a batch keeps that dictionary and gives
// each row a code into it.
type Key struct {
	Type   events.Type
	Bebits profile.Bebits
	CPU    uint16
	Node   uint16
	Thread uint16
	NX     uint16 // scalar extras per row; a payload's 65 535 bytes hold at most 8 188
	Vec    bool   // events.VectorField(Type) != ""
}

// Batch is one frame of records in columnar form. Row i's key is
// Dict[Code[i]]; its scalar extras are Extras[ExtraOff[i]:ExtraOff[i+1]]
// and its vector elements Vecs[VecOff[i]:VecOff[i+1]]; both offset
// columns hold N+1 entries so the slicing needs no per-row length column.
//
// Codes are frame-local: they index this batch's Dict and nothing else.
// A decoded v4 batch holds the frame's own dictionary as stored (a frame
// the writer did not make may repeat an entry or hold one no row uses),
// so two codes may name equal keys: compare Dict entries, not codes.
//
// Every batch a reader hands out — through a MapFrames Frame or a
// FrameSource's compute — is read-only and recycled by the engine once
// its frame is done; ReadFrameBatch returns a batch of the caller's own.
// MapFrames and FrameSource state how long theirs stay valid.
type Batch struct {
	N     int
	Start []clock.Time
	Dura  []clock.Time
	Code  []uint32
	Dict  []Key

	ExtraOff []uint32
	Extras   []uint64
	VecOff   []uint32
	Vecs     []uint64

	// slots is Dict's probe table while rows are interned (push and the
	// fixed-width decoder): open addressing over a power-of-two array of
	// code+1 (0 = empty), kept at most half full and cleared by the first
	// intern after a reset.
	slots []uint32
}

// reset empties the batch, keeping every column's capacity.
func (b *Batch) reset() {
	b.N = 0
	b.Start = b.Start[:0]
	b.Dura = b.Dura[:0]
	b.Code = b.Code[:0]
	b.Dict = b.Dict[:0]
	b.ExtraOff = append(b.ExtraOff[:0], 0)
	b.Extras = b.Extras[:0]
	b.VecOff = append(b.VecOff[:0], 0)
	b.Vecs = b.Vecs[:0]
}

// Key returns row i's dictionary entry.
func (b *Batch) Key(i int) *Key { return &b.Dict[b.Code[i]] }

// PerEntry resolves f once per entry of b's dictionary, into dst's
// storage: row i's value is the result's [b.Code[i]].
func PerEntry[T any](dst []T, b *Batch, f func(*Key) T) []T {
	dst = slices.Grow(dst[:0], len(b.Dict))[:len(b.Dict)]
	for c := range b.Dict {
		dst[c] = f(&b.Dict[c])
	}
	return dst
}

// End returns row i's end time, the file sort key.
func (b *Batch) End(i int) clock.Time { return b.Start[i] + b.Dura[i] }

// ExtraRow returns row i's scalar extras, aliasing the batch and
// capacity-clamped so an append can never reach the next row.
func (b *Batch) ExtraRow(i int) []uint64 {
	lo, hi := b.ExtraOff[i], b.ExtraOff[i+1]
	return b.Extras[lo:hi:hi]
}

// VecRow returns row i's vector elements, aliasing the batch and
// capacity-clamped like ExtraRow.
func (b *Batch) VecRow(i int) []uint64 {
	lo, hi := b.VecOff[i], b.VecOff[i+1]
	return b.Vecs[lo:hi:hi]
}

// Row materializes row i as a Record whose Extra and Vec alias the
// batch's backing columns: read-only, and valid exactly as long as the
// batch is.
func (b *Batch) Row(i int) Record {
	k := b.Key(i)
	r := Record{
		Type:   k.Type,
		Bebits: k.Bebits,
		Start:  b.Start[i],
		Dura:   b.Dura[i],
		CPU:    k.CPU,
		Node:   k.Node,
		Thread: k.Thread,
	}
	if x := b.ExtraRow(i); len(x) > 0 {
		r.Extra = x
	}
	if v := b.VecRow(i); len(v) > 0 {
		r.Vec = v
	}
	return r
}

// rowPayloadSize returns the length of what AppendRowPayload appends for
// row i, matching Record.payloadSize.
func (b *Batch) rowPayloadSize(i int) int {
	n := profile.CommonSize + 8*int(b.ExtraOff[i+1]-b.ExtraOff[i])
	if b.Key(i).Vec {
		n += 2 + 8*int(b.VecOff[i+1]-b.VecOff[i])
	}
	return n
}

// EncodedRowSize returns the length-prefixed fixed-width size row i
// would have on disk, matching Record.EncodedSize without materializing
// the record.
func (b *Batch) EncodedRowSize(i int) int {
	n := b.rowPayloadSize(i)
	if n <= 255 {
		return 1 + n
	}
	return 3 + n
}

// AppendRowPayload appends row i's standard-profile payload (no length
// prefix) straight from the columns: Record.AppendPayload of Row(i)
// without building the record.
func (b *Batch) AppendRowPayload(dst []byte, i int) []byte {
	k := b.Key(i)
	return appendPayload(dst, k.Type, k.Bebits, b.Start[i], b.Dura[i], k.CPU, k.Node, k.Thread, b.ExtraRow(i), b.VecRow(i))
}

// hash mixes the key's fields, packed into two words; the multiply
// leaves the entropy in the high bits, so they are folded down for
// callers that mask off the low ones. Vec is a function of Type.
func (k *Key) hash() uint64 {
	w0 := uint64(k.Type)<<48 | uint64(k.CPU)<<32 | uint64(k.Node)<<16 | uint64(k.Thread)
	w1 := uint64(k.NX)<<8 | uint64(k.Bebits)
	h := (w0 ^ w1*0x9e3779b97f4a7c15) * 0xff51afd7ed558ccd
	return h ^ h>>32
}

// intern returns k's code, entering k in the dictionary on first
// sight, so Dict holds each key once, in first-appearance order — the
// order that fixes every encoded byte of a v4 frame.
func (b *Batch) intern(k *Key) uint32 {
	if len(b.Dict) == 0 {
		clear(b.slots)
		if b.slots == nil {
			b.slots = make([]uint32, 64)
		}
	}
	mask := uint64(len(b.slots) - 1)
	i := k.hash() & mask
	for ; b.slots[i] != 0; i = (i + 1) & mask {
		if c := b.slots[i] - 1; b.Dict[c] == *k {
			return c
		}
	}
	b.Dict = append(b.Dict, *k)
	b.slots[i] = uint32(len(b.Dict))
	if 2*len(b.Dict) > len(b.slots) {
		// Double the table and re-enter the dictionary, each entry at
		// its own code.
		old := b.Dict
		b.slots, b.Dict = make([]uint32, 2*len(b.slots)), b.Dict[:0]
		for c := range old {
			b.intern(&old[c])
		}
	}
	return uint32(len(b.Dict) - 1)
}

// pushRow appends one row's start, duration and code; the caller
// appends the extras/vecs and closes the offset columns.
func (b *Batch) pushRow(start, dura clock.Time, code uint32) {
	b.Start = append(b.Start, start)
	b.Dura = append(b.Dura, dura)
	b.Code = append(b.Code, code)
	b.N++
}

// closeRow finalizes the variable-length offset columns for the row
// pushRow just appended.
func (b *Batch) closeRow() {
	b.ExtraOff = append(b.ExtraOff, uint32(len(b.Extras)))
	b.VecOff = append(b.VecOff, uint32(len(b.Vecs)))
}

// push appends r as the batch's last row, interning its key and copying
// its extras and — for types declaring a vector field, the only ones
// that encode one — its vector elements.
func (b *Batch) push(r *Record) {
	k := Key{r.Type, r.Bebits, r.CPU, r.Node, r.Thread, uint16(len(r.Extra)), events.VectorField(r.Type) != ""}
	b.pushRow(r.Start, r.Dura, b.intern(&k))
	b.Extras = append(b.Extras, r.Extra...)
	if k.Vec {
		b.Vecs = append(b.Vecs, r.Vec...)
	}
	b.closeRow()
}

// Clone returns a right-sized deep copy: every column's capacity equals
// its length and no decode scratch is carried over, so the copy keeps
// nothing resident beyond its records. ReadFrameBatch returns clones of
// pooled decode batches.
func (b *Batch) Clone() *Batch {
	return &Batch{
		N:        b.N,
		Start:    cloneExact(b.Start),
		Dura:     cloneExact(b.Dura),
		Code:     cloneExact(b.Code),
		Dict:     cloneExact(b.Dict),
		ExtraOff: cloneExact(b.ExtraOff),
		Extras:   cloneExact(b.Extras),
		VecOff:   cloneExact(b.VecOff),
		Vecs:     cloneExact(b.Vecs),
	}
}

// cloneExact copies s into a slice whose capacity is len(s) (append and
// slices.Clone round capacity up to an allocator size class).
func cloneExact[T any](s []T) []T {
	c := make([]T, len(s))
	copy(c, s)
	return c
}

// Decode fills the batch from a frame's raw (checksum-verified) payload
// bytes — the compact stream from header version 4 on (decodeV4),
// length-prefixed fixed-width records below it — and cross-checks the
// record count claimed by the directory entry. It is the one frame
// decoder: readers, scanners, Validate, salvage and Repair all go
// through it, so a frame either decodes whole or not at all.
func (b *Batch) Decode(version uint32, fe FrameEntry, buf []byte) error {
	b.reset()
	var err error
	if version >= 4 {
		err = b.decodeV4(buf)
	} else {
		err = b.decodeFixed(buf)
	}
	if err != nil {
		return err
	}
	if b.N != int(fe.Records) {
		return fmt.Errorf("interval: frame claims %d records, found %d", fe.Records, b.N)
	}
	return nil
}

// decodeFixed parses length-prefixed fixed-width records (header
// versions 1–3) straight into columns, interning each row's key as the
// writer does, so the batch's dictionary is the one a v4 frame of the
// same rows would store.
func (b *Batch) decodeFixed(buf []byte) error {
	for len(buf) > 0 {
		payload, n, err := NextFramed(buf)
		if err != nil {
			return err
		}
		buf = buf[n:]
		r, extras, vec, err := splitPayload(payload)
		if err != nil {
			return err
		}
		k := Key{r.Type, r.Bebits, r.CPU, r.Node, r.Thread, uint16(len(extras) / 8), events.VectorField(r.Type) != ""}
		b.pushRow(r.Start, r.Dura, b.intern(&k))
		b.Extras = appendLE64(b.Extras, extras)
		b.Vecs = appendLE64(b.Vecs, vec)
		b.closeRow()
	}
	return nil
}

// appendFixed is the fixed-width frame encoder (header versions 1–3):
// every row length-prefixed, encoded from the columns.
func (b *Batch) appendFixed(dst []byte) []byte {
	for i := 0; i < b.N; i++ {
		dst = b.AppendRowPayload(appendFrameLen(dst, b.rowPayloadSize(i)), i)
	}
	return dst
}

// ReadFrameBatch reads and decodes fe into a new right-sized batch that
// is never recycled, so it — and any Row taken from it — stays valid for
// as long as the caller holds it. The decode runs in pooled scratch; only
// the exact copy is allocated.
func (f *File) ReadFrameBatch(fe FrameEntry) (*Batch, error) {
	b := batchPool.Get().(*Batch)
	defer batchPool.Put(b)
	if err := f.DecodeFrameBatch(fe, b); err != nil {
		return nil, err
	}
	return b.Clone(), nil
}

// DecodeFrameBatch reads fe and columnar-decodes it into the caller's
// batch, reusing its column capacity — the one frame decode every read
// path shares. Concurrent calls are safe.
func (f *File) DecodeFrameBatch(fe FrameEntry, b *Batch) error {
	pb := getBuf()
	defer putBuf(pb)
	buf, err := f.ReadFrame(fe, *pb)
	if err != nil {
		return err
	}
	*pb = buf[:0]
	return b.Decode(f.Header.HeaderVersion, fe, buf)
}
