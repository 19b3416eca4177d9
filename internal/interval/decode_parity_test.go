package interval

import (
	"encoding/binary"
	"fmt"
	"testing"

	"tracefw/internal/events"
)

// v4Frame assembles a hand-built v4 frame body from varint fields, each
// either a value (encoded minimally) or raw bytes (a non-minimal or
// malformed varint spelled out).
func v4Frame(fields ...any) []byte {
	var b []byte
	for _, f := range fields {
		switch f := f.(type) {
		case int:
			b = binary.AppendUvarint(b, uint64(f))
		case []byte:
			b = append(b, f...)
		default:
			panic(fmt.Sprintf("v4Frame: %T", f))
		}
	}
	return b
}

// padded spells v in exactly n varint bytes (n >= its minimal length):
// continuation bits on every byte but the last, which may be a zero
// carrying nothing.
func padded(v uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(v & 0x7f)
		v >>= 7
		if i < n-1 {
			b[i] |= 0x80
		}
	}
	return b
}

// batchColumns prints every column of b, so a decode is pinned as one
// string.
func batchColumns(b *Batch) string {
	return fmt.Sprintf("N=%d start=%d dura=%d type=%d bebits=%d cpu=%d node=%d thread=%d extraOff=%d extras=%d vecOff=%d vecs=%d",
		b.N, b.Start, b.Dura, b.Type, b.Bebits, b.CPU, b.Node, b.Thread, b.ExtraOff, b.Extras, b.VecOff, b.Vecs)
}

// TestV4DecodeParity pins what the v4 decoder makes of hand-built
// frames — the columns of a frame it accepts, the error text of one it
// refuses — including the varint spellings the encoder never writes
// (padded, overlong) and a frame whose rows outrun the directory's
// count. The expectations are literal: a faster decoder must decode the
// same frames to the same columns and refuse the same frames with the
// same words.
func TestV4DecodeParity(t *testing.T) {
	waitall, send := int(events.EvMPIWaitall), int(events.EvMPISend)
	if events.VectorField(events.EvMPIWaitall) == "" || events.VectorField(events.EvMPISend) != "" {
		t.Fatal("fixture assumes MPI_Waitall carries the vector field and MPI_Send does not")
	}
	for _, tc := range []struct {
		name    string
		frame   []byte
		records uint32 // the directory's claim
		want    string // batchColumns, or the error text
	}{
		{
			// Dictionary fields spelled in 1, 2 or 10 bytes: the
			// dictionary reads values, not spellings.
			name: "padded-dictionary",
			frame: v4Frame(2,
				padded(uint64(send), 2), padded(1, 2), padded(3, 10), padded(300, 2), padded(5, 1), padded(2, 10),
				padded(uint64(send), 10), padded(0, 10), padded(0, 2), padded(7, 1), padded(1, 10), padded(0, 1),
				[]byte{0x14}, // base start 10, zigzag
				0, 4, 6, 9, 1<<20,
				1, padded(0, 2), []byte{0x03}, // duration -2
				0, 0, 0, 127, 128),
			records: 3,
			want:    "N=3 start=[14 10 10] dura=[3 -2 0] type=[513 513 513] bebits=[1 0 1] cpu=[3 0 3] node=[300 7 300] thread=[5 1 5] extraOff=[0 2 2 4] extras=[9 1048576 127 128] vecOff=[0 0 0 0] vecs=[]",
		},
		{
			name: "overlong-dictionary-varint",
			frame: v4Frame(1, send, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
				0, 0, 0, 0, 0, 0, 0, 0),
			records: 1,
			want:    "interval: truncated or oversized varint",
		},
		{
			// The second entry stops after two fields; the bytes left
			// would have held both entries at one byte a field.
			name:    "dictionary-cut-mid-entry",
			frame:   v4Frame(2, send, 0, padded(1, 10), 0, 0, 0, send, 0),
			records: 1,
			want:    "interval: truncated or oversized varint",
		},
		{
			// The cut lands inside a multi-byte varint.
			name:    "dictionary-cut-mid-varint",
			frame:   v4Frame(2, send, 0, padded(1, 10), 0, 0, 0, send, 0, 0, []byte{0x80, 0x80}),
			records: 1,
			want:    "interval: truncated or oversized varint",
		},
		{
			// A vector type and a scalar type in one frame: only the
			// vector type's rows read an element count.
			name: "vector-and-scalar",
			frame: v4Frame(2,
				waitall, 3, 1, 2, 0, 1,
				send, 3, 1, 2, 0, 2,
				0,
				0, 5, 10, 42, 3, 7, 8, padded(9, 2),
				1, 6, 2, 1, 2,
				0, 7, 0, 0, 0),
			records: 3,
			want:    "N=3 start=[5 6 7] dura=[5 1 0] type=[518 513 518] bebits=[3 3 3] cpu=[1 1 1] node=[2 2 2] thread=[0 0 0] extraOff=[0 1 3 4] extras=[42 1 2 0] vecOff=[0 3 3 3] vecs=[7 8 9]",
		},
		{
			name:    "vector-count-past-frame",
			frame:   v4Frame(1, waitall, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 1, 2),
			records: 1,
			want:    "interval: v4 record claims a 4-element vector",
		},
		{
			// Rows the directory does not count: the decode reads them
			// all, and the count check refuses the frame.
			name:    "rows-past-count",
			frame:   v4Frame(1, send, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0),
			records: 1,
			want:    "interval: frame claims 1 records, found 3",
		},
		{
			name:    "dictionary-index-out-of-range",
			frame:   v4Frame(1, send, 0, 0, 0, 0, 0, 0, 1, 0, 0),
			records: 1,
			want:    "interval: v4 record dictionary index 1 out of range (1 entries)",
		},
		{
			name:    "dictionary-field-out-of-range",
			frame:   v4Frame(1, send, 256, 0, 0, 0, 0, 0, 0, 0, 0),
			records: 1,
			want:    "interval: v4 dictionary entry 0 field out of range",
		},
		{
			name:    "dictionary-too-large",
			frame:   v4Frame(3, send, 0, 0, 0, 0, 0, 0, 0, 0, 0),
			records: 1,
			want:    "interval: v4 frame dictionary of 3 entries cannot fit in 11 bytes",
		},
		{
			name:    "dictionary-only",
			frame:   v4Frame(1, send, 0, 0, 0, 0, 0, 0),
			records: 0,
			want:    "interval: v4 frame has a dictionary but no records",
		},
		{
			name:    "row-cut-mid-extras",
			frame:   v4Frame(1, send, 0, 0, 0, 0, 3, 0, 0, 0, 0, 1, 2),
			records: 1,
			want:    "interval: truncated or oversized varint",
		},
	} {
		var b Batch
		got := "<nil>"
		if err := b.Decode(4, FrameEntry{Records: tc.records}, tc.frame); err != nil {
			got = err.Error()
		} else {
			got = batchColumns(&b)
		}
		if got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
