// Package faultfs provides deterministic fault injection for testing
// the corruption tolerance of the trace file formats. An Injector
// derives every fault from a seeded PRNG, so any failing scenario is
// reproducible from its seed alone. The package also provides I/O
// wrappers that model media- and process-level failures: unreadable
// byte ranges (BadSectorFile) and a writer killed before its tail
// reached disk (TornWriter).
//
// Injector methods never mutate their input: each returns a damaged
// copy plus a Fault describing exactly which bytes were touched, so a
// differential harness can compare salvage output against the pristine
// original.
package faultfs

import (
	"errors"
	"fmt"
	"io"

	"tracefw/internal/xrand"
)

// Kind enumerates the fault classes the Injector produces.
type Kind int

const (
	// Truncate cuts the file short at an arbitrary offset, as a killed
	// job or a full filesystem would.
	Truncate Kind = iota
	// FlipBit inverts a single bit, as decaying media or a bad transfer
	// would.
	FlipBit
	// TearZero zeroes a byte range, modeling a torn write: space was
	// allocated but the data never reached it.
	TearZero
)

func (k Kind) String() string {
	switch k {
	case Truncate:
		return "truncate"
	case FlipBit:
		return "flip-bit"
	case TearZero:
		return "tear-zero"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Range is a half-open byte range [Off, Off+Len).
type Range struct {
	Off, Len int64
}

// Overlaps reports whether the range intersects [off, off+n).
func (r Range) Overlaps(off, n int64) bool {
	return r.Len > 0 && n > 0 && r.Off < off+n && off < r.Off+r.Len
}

// Fault describes one injected fault. For Truncate, Range covers every
// removed byte (Off is the new file length). For FlipBit, Range is the
// single affected byte and Bit is the inverted bit index.
type Fault struct {
	Kind  Kind
	Range Range
	Bit   uint
}

func (f Fault) String() string {
	switch f.Kind {
	case FlipBit:
		return fmt.Sprintf("flip-bit @%d bit %d", f.Range.Off, f.Bit)
	default:
		return fmt.Sprintf("%s [%d,+%d)", f.Kind, f.Range.Off, f.Range.Len)
	}
}

// Injector produces deterministic faults from a seed.
type Injector struct {
	rng *xrand.Rand
}

// New returns an Injector whose faults are fully determined by seed.
func New(seed uint64) *Injector {
	return &Injector{rng: xrand.New(seed)}
}

// Truncate returns a copy of data cut at a random offset in
// [min, len(data)). It panics if that interval is empty.
func (in *Injector) Truncate(data []byte, min int64) ([]byte, Fault) {
	if min < 0 || min >= int64(len(data)) {
		panic(fmt.Sprintf("faultfs: Truncate min %d outside file of %d bytes", min, len(data)))
	}
	cut := min + in.rng.Int63n(int64(len(data))-min)
	out := append([]byte(nil), data[:cut]...)
	return out, Fault{Kind: Truncate, Range: Range{Off: cut, Len: int64(len(data)) - cut}}
}

// FlipBit returns a copy of data with one random bit inverted at or
// after offset min.
func (in *Injector) FlipBit(data []byte, min int64) ([]byte, Fault) {
	if min < 0 || min >= int64(len(data)) {
		panic(fmt.Sprintf("faultfs: FlipBit min %d outside file of %d bytes", min, len(data)))
	}
	off := min + in.rng.Int63n(int64(len(data))-min)
	bit := uint(in.rng.Intn(8))
	out := append([]byte(nil), data...)
	out[off] ^= 1 << bit
	return out, Fault{Kind: FlipBit, Range: Range{Off: off, Len: 1}, Bit: bit}
}

// FlipBitIn flips one random bit inside the byte range [lo, hi).
func (in *Injector) FlipBitIn(data []byte, lo, hi int64) ([]byte, Fault) {
	if lo < 0 || lo >= hi || hi > int64(len(data)) {
		panic(fmt.Sprintf("faultfs: FlipBitIn [%d,%d) outside file of %d bytes", lo, hi, len(data)))
	}
	off := lo + in.rng.Int63n(hi-lo)
	bit := uint(in.rng.Intn(8))
	out := append([]byte(nil), data...)
	out[off] ^= 1 << bit
	return out, Fault{Kind: FlipBit, Range: Range{Off: off, Len: 1}, Bit: bit}
}

// TearZero returns a copy of data with a random range of 1..maxLen
// bytes zeroed, starting at or after min. The range never extends past
// the end of the file.
func (in *Injector) TearZero(data []byte, min, maxLen int64) ([]byte, Fault) {
	if min < 0 || min >= int64(len(data)) {
		panic(fmt.Sprintf("faultfs: TearZero min %d outside file of %d bytes", min, len(data)))
	}
	if maxLen < 1 {
		maxLen = 1
	}
	off := min + in.rng.Int63n(int64(len(data))-min)
	n := 1 + in.rng.Int63n(maxLen)
	if off+n > int64(len(data)) {
		n = int64(len(data)) - off
	}
	out := append([]byte(nil), data...)
	for i := off; i < off+n; i++ {
		out[i] = 0
	}
	return out, Fault{Kind: TearZero, Range: Range{Off: off, Len: n}}
}

// ErrBadSector is returned (wrapped) by BadSectorFile reads that touch
// a poisoned range.
var ErrBadSector = errors.New("faultfs: unreadable sector")

// BadSectorFile is an in-memory file whose poisoned byte ranges fail to
// read, the way a disk with bad sectors fails: the data is the right
// length, but reads intersecting a bad range return an error. It
// implements io.ReaderAt and io.Seeker, what the interval reader reads
// through, and io.Reader.
type BadSectorFile struct {
	data []byte
	bad  []Range
	pos  int64
}

// NewBadSector returns a BadSectorFile over data with the given
// poisoned ranges.
func NewBadSector(data []byte, bad ...Range) *BadSectorFile {
	return &BadSectorFile{data: data, bad: bad}
}

func (f *BadSectorFile) check(off, n int64) error {
	for _, r := range f.bad {
		if r.Overlaps(off, n) {
			return fmt.Errorf("%w at [%d,+%d)", ErrBadSector, r.Off, r.Len)
		}
	}
	return nil
}

func (f *BadSectorFile) Read(p []byte) (int, error) {
	if f.pos >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[f.pos:])
	if err := f.check(f.pos, int64(n)); err != nil {
		return 0, err
	}
	f.pos += int64(n)
	return n, nil
}

func (f *BadSectorFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("faultfs: negative ReadAt offset %d", off)
	}
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	if err := f.check(off, int64(len(p))); err != nil {
		return 0, err
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *BadSectorFile) Seek(offset int64, whence int) (int64, error) {
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		base = int64(len(f.data))
	default:
		return 0, fmt.Errorf("faultfs: bad whence %d", whence)
	}
	if base+offset < 0 {
		return 0, fmt.Errorf("faultfs: negative seek position")
	}
	f.pos = base + offset
	return f.pos, nil
}

// TornWriter is an in-memory io.WriteSeeker that models a writer killed
// mid-run: every byte destined for an offset at or beyond the horizon
// is silently dropped, while writes below it (including backward
// patches) land normally. Write still reports full success — the
// process never learned its tail was lost. Bytes never reached by a
// surviving write read as zero, like a sparse allocation.
type TornWriter struct {
	buf     []byte
	pos     int64
	horizon int64
}

// NewTornWriter returns a TornWriter dropping all bytes at or beyond
// horizon.
func NewTornWriter(horizon int64) *TornWriter {
	if horizon < 0 {
		horizon = 0
	}
	return &TornWriter{horizon: horizon}
}

func (t *TornWriter) Write(p []byte) (int, error) {
	end := t.pos + int64(len(p))
	keep := end
	if keep > t.horizon {
		keep = t.horizon
	}
	if keep > int64(len(t.buf)) {
		t.buf = append(t.buf, make([]byte, keep-int64(len(t.buf)))...)
	}
	if t.pos < keep {
		copy(t.buf[t.pos:keep], p[:keep-t.pos])
	}
	t.pos = end
	return len(p), nil
}

func (t *TornWriter) Seek(offset int64, whence int) (int64, error) {
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = t.pos
	case io.SeekEnd:
		base = int64(len(t.buf))
	default:
		return 0, fmt.Errorf("faultfs: bad whence %d", whence)
	}
	if base+offset < 0 {
		return 0, fmt.Errorf("faultfs: negative seek position")
	}
	t.pos = base + offset
	return t.pos, nil
}

// Bytes returns the file content as it would appear on disk after the
// crash: everything below the horizon that a write reached, zeros in
// the gaps.
func (t *TornWriter) Bytes() []byte { return t.buf }
