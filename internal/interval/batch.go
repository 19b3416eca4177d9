package interval

// Columnar frame decode. A Batch holds one frame's records as parallel
// column vectors instead of a []Record: the common fields become flat
// arrays, and the variable-length extras and vector elements are
// flattened into two shared backing columns addressed by prefix-sum
// offsets. Filling a batch straight from the v4 delta-varint stream
// skips per-record materialization entirely — no Record structs, no
// per-record Extra/Vec slice headers — and because every column is a
// plain reusable slice, a pooled batch decodes with zero allocations
// once its columns have grown to frame size. A Batch is the only
// in-memory form of a frame, in both directions: the Writer accumulates
// its open frame in one and encodes from the columns, and the map-reduce
// engine (MapFrames), the frame source, every Scanner and the summary
// planner's edge decodes all hand out batches; record-at-a-time
// consumers read them through Row.

import (
	"fmt"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/profile"
)

// Batch is one frame of records in columnar form. Row i's scalar extras
// are Extras[ExtraOff[i]:ExtraOff[i+1]] and its vector elements
// Vecs[VecOff[i]:VecOff[i+1]]; both offset columns hold N+1 entries so
// the slicing needs no per-row length column.
//
// Every batch a reader hands out — through a MapFrames Frame or a
// FrameSource's compute — is read-only and recycled by the engine once
// its frame is done; ReadFrameBatch returns a batch of the caller's own.
// MapFrames and FrameSource state how long theirs stay valid.
type Batch struct {
	N      int
	Start  []clock.Time
	Dura   []clock.Time
	Type   []events.Type
	Bebits []profile.Bebits
	CPU    []uint16
	Node   []uint16
	Thread []uint16

	ExtraOff []uint32
	Extras   []uint64
	VecOff   []uint32
	Vecs     []uint64

	// v4 decode dictionary scratch, reused across frames: the entries and
	// whether each one's type carries a vector field.
	dict    []dictEntry
	dictVec []bool
}

// reset empties the batch, keeping every column's capacity.
func (b *Batch) reset() {
	b.N = 0
	b.Start = b.Start[:0]
	b.Dura = b.Dura[:0]
	b.Type = b.Type[:0]
	b.Bebits = b.Bebits[:0]
	b.CPU = b.CPU[:0]
	b.Node = b.Node[:0]
	b.Thread = b.Thread[:0]
	b.ExtraOff = append(b.ExtraOff[:0], 0)
	b.Extras = b.Extras[:0]
	b.VecOff = append(b.VecOff[:0], 0)
	b.Vecs = b.Vecs[:0]
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
	r := Record{
		Type:   b.Type[i],
		Bebits: b.Bebits[i],
		Start:  b.Start[i],
		Dura:   b.Dura[i],
		CPU:    b.CPU[i],
		Node:   b.Node[i],
		Thread: b.Thread[i],
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
	if events.VectorField(b.Type[i]) != "" {
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
	return appendPayload(dst, b.Type[i], b.Bebits[i], b.Start[i], b.Dura[i], b.CPU[i], b.Node[i], b.Thread[i], b.ExtraRow(i), b.VecRow(i))
}

// pushCommon appends one row's fixed-width fields; the caller appends
// the extras/vecs and closes the offset columns.
func (b *Batch) pushCommon(typ events.Type, be profile.Bebits, start, dura clock.Time, cpu, node, thread uint16) {
	b.Start = append(b.Start, start)
	b.Dura = append(b.Dura, dura)
	b.Type = append(b.Type, typ)
	b.Bebits = append(b.Bebits, be)
	b.CPU = append(b.CPU, cpu)
	b.Node = append(b.Node, node)
	b.Thread = append(b.Thread, thread)
	b.N++
}

// closeRow finalizes the variable-length offset columns for the row
// whose common fields pushCommon just appended.
func (b *Batch) closeRow() {
	b.ExtraOff = append(b.ExtraOff, uint32(len(b.Extras)))
	b.VecOff = append(b.VecOff, uint32(len(b.Vecs)))
}

// push appends r as the batch's last row, copying its extras and — for
// types declaring a vector field, the only ones that encode one — its
// vector elements.
func (b *Batch) push(r *Record) {
	b.pushCommon(r.Type, r.Bebits, r.Start, r.Dura, r.CPU, r.Node, r.Thread)
	b.Extras = append(b.Extras, r.Extra...)
	if events.VectorField(r.Type) != "" {
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
		Type:     cloneExact(b.Type),
		Bebits:   cloneExact(b.Bebits),
		CPU:      cloneExact(b.CPU),
		Node:     cloneExact(b.Node),
		Thread:   cloneExact(b.Thread),
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
// versions 1–3) straight into columns.
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
		b.pushCommon(r.Type, r.Bebits, r.Start, r.Dura, r.CPU, r.Node, r.Thread)
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

// FrameBatch is ReadFrameBatch: fe's records in a batch of the caller's
// own.
func (f *File) FrameBatch(fe FrameEntry) (*Batch, error) { return f.ReadFrameBatch(fe) }

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
// batch, reusing its column capacity.
// The read is positioned (never moving the file's seek offset) whenever
// the underlying reader supports it, so concurrent calls are safe on
// such files.
func (f *File) DecodeFrameBatch(fe FrameEntry, b *Batch) error {
	pb := getBuf()
	defer putBuf(pb)
	var buf []byte
	var err error
	if f.ra != nil {
		buf, err = f.ReadFrameAt(fe, *pb)
	} else {
		buf, err = f.readFrameInto(fe, *pb)
	}
	if err != nil {
		return err
	}
	*pb = buf[:0]
	return b.Decode(f.Header.HeaderVersion, fe, buf)
}
