package interval

// Multi-resolution summary pyramid (FORMATS.md §5). A pyramid is a
// sidecar index over one interval file: the time axis is cut into
// dyadic cells — level 0 cells are BaseWidth (a power of two)
// nanoseconds wide and aligned to absolute time zero, every higher
// level doubles the width — and each cell stores a small summary of the
// records overlapping it: busy time by type, busy time by lane, and the
// peak concurrency of busy intervals. Window queries
// (SummarizeWindow) answer from O(cells) summaries instead of
// O(records) frame decodes; only window edges that fall inside a base
// cell descend to frame decode, so aligned windows decode no frames at
// all.
//
// The pyramid is strictly advisory: it lives next to the trace as
// <trace>.pyr, is bound to the trace by a source signature over the
// frame directory, and every load error — missing file, bad magic, CRC
// mismatch, stale signature — silently degrades to the scan engine.
// Nothing in the pyramid can prevent opening or scanning the trace, and
// a trace may legitimately have none (SidecarOutweighs).
//
// Cell summary semantics (the exactness contract the differential
// suite enforces; see SummarizeWindow):
//
//   - ByType: for every record r = [s, s+dura) with dura > 0, the
//     overlap min(e, cellHi) - max(s, cellLo) is added to r's type.
//     All types are included (Running and GlobalClock too); consumers
//     filter at query time. Overlap is additive over any partition of
//     the window, which is what makes pyramid sums byte-identical to
//     scan sums.
//   - ByLane: like ByType but summed per (node, cpu) lane and
//     restricted to busy intervals — every type except Running and
//     GlobalClock — matching the stats load-balance table.
//   - MaxConc: the peak number of busy intervals simultaneously open
//     at any instant in [cellLo, cellHi), computed from the global
//     event sweep. A parent's peak is the max of its children's, so
//     this is exact at every level.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"

	"tracefw/internal/clock"
	"tracefw/internal/events"
)

const (
	pyrMagic = "UTEPYR1\x00"
	// PyramidVersion is the sidecar format version written by Encode and
	// the only one DecodePyramid accepts.
	PyramidVersion = 2
	// pyrHeaderSize is the fixed header: magic, version, flags,
	// baseWidth, levels, signature (records, frames, start, end, dirSum),
	// headerSum.
	pyrHeaderSize = 8 + 4 + 4 + 8 + 4 + 8 + 8 + 8 + 8 + 4 + 4
	// pyrLevelHeaderSize precedes each level's cell payload: firstCell,
	// cellCount, payload length, payload CRC.
	pyrLevelHeaderSize = 8 + 4 + 4 + 4
	// pyrMaxLevels bounds the level count a decoder will accept; with
	// doubling widths, 48 levels cover any int64 time axis from a
	// one-nanosecond base.
	pyrMaxLevels = 48
)

// Lane identifies a (node, cpu) execution lane.
type Lane struct {
	Node uint16
	CPU  uint16
}

func (l Lane) key() uint32 { return uint32(l.Node)<<16 | uint32(l.CPU) }

// TypeBusy is one per-type busy-time histogram entry of a cell.
type TypeBusy struct {
	Type events.Type
	Busy clock.Time
}

// LaneBusy is one per-lane busy-time entry of a cell.
type LaneBusy struct {
	Lane Lane
	Busy clock.Time
}

// PyramidCell is one time cell's summary. Zero value = empty cell.
type PyramidCell struct {
	MaxConc int
	ByType  []TypeBusy // strictly ascending Type
	ByLane  []LaneBusy // strictly ascending (Node, CPU)
}

// PyramidLevel holds the cells of one resolution level. Cell i (an
// absolute index: cell i covers [i*Width, (i+1)*Width)) is stored at
// Cells[i-First]; indices outside [First, First+len(Cells)) are empty.
type PyramidLevel struct {
	Width clock.Time
	First int64
	Cells []PyramidCell
}

// Cell returns the summary of absolute cell index i, or nil when the
// index is outside the stored range (an empty cell).
func (l *PyramidLevel) Cell(i int64) *PyramidCell {
	if i < l.First || i >= l.First+int64(len(l.Cells)) {
		return nil
	}
	return &l.Cells[i-l.First]
}

// PyramidSig binds a pyramid to the exact frame directory it was built
// from. A mismatch means the trace was rewritten after the pyramid:
// the pyramid is stale and is ignored.
type PyramidSig struct {
	Records uint64
	Frames  uint64
	Start   clock.Time
	End     clock.Time
	// DirSum is a CRC-32C over every frame entry (offset, bytes,
	// records, start, end, payload sum) in file order.
	DirSum uint32
}

// Pyramid is a decoded multi-resolution summary index. Levels[0] is
// the finest (BaseWidth); each next level doubles the cell width.
type Pyramid struct {
	BaseWidth clock.Time
	Sig       PyramidSig
	Levels    []PyramidLevel
}

// PyramidPath returns the sidecar path for a trace path.
func PyramidPath(tracePath string) string { return tracePath + ".pyr" }

// Signature computes the pyramid source signature of the file's
// current frame directory.
func (f *File) Signature() (PyramidSig, error) {
	fes, err := f.Frames()
	if err != nil {
		return PyramidSig{}, err
	}
	var sig PyramidSig
	sig.Frames = uint64(len(fes))
	var ent [40]byte
	sum := uint32(0)
	for i, fe := range fes {
		if i == 0 || fe.Start < sig.Start {
			sig.Start = fe.Start
		}
		if fe.End > sig.End {
			sig.End = fe.End
		}
		sig.Records += uint64(fe.Records)
		binary.LittleEndian.PutUint64(ent[0:], uint64(fe.Offset))
		binary.LittleEndian.PutUint32(ent[8:], fe.Bytes)
		binary.LittleEndian.PutUint32(ent[12:], fe.Records)
		binary.LittleEndian.PutUint64(ent[16:], uint64(fe.Start))
		binary.LittleEndian.PutUint64(ent[24:], uint64(fe.End))
		binary.LittleEndian.PutUint32(ent[32:], fe.Sum)
		binary.LittleEndian.PutUint32(ent[36:], 0)
		sum = crc32.Update(sum, crcTable, ent[:])
	}
	sig.DirSum = sum
	return sig, nil
}

// Encode serializes the pyramid in the sidecar format.
func (p *Pyramid) Encode() []byte {
	buf := make([]byte, 0, p.encodedSizeHint())
	buf = append(buf, pyrMagic...)
	buf = appendU32(buf, PyramidVersion)
	buf = appendU32(buf, 0) // flags
	buf = appendU64(buf, uint64(p.BaseWidth))
	buf = appendU32(buf, uint32(len(p.Levels)))
	buf = appendU64(buf, p.Sig.Records)
	buf = appendU64(buf, p.Sig.Frames)
	buf = appendU64(buf, uint64(p.Sig.Start))
	buf = appendU64(buf, uint64(p.Sig.End))
	buf = appendU32(buf, p.Sig.DirSum)
	buf = appendU32(buf, crc32.Checksum(buf[8:], crcTable))
	for li := range p.Levels {
		// Cells go straight into buf behind a reserved level header whose
		// byte length and checksum are patched in once they are known.
		l := &p.Levels[li]
		buf = appendU64(buf, uint64(l.First))
		buf = appendU32(buf, uint32(len(l.Cells)))
		buf = appendU64(buf, 0) // payload length, payload checksum
		pay := len(buf)
		for ci := range l.Cells {
			buf = appendCell(buf, &l.Cells[ci])
		}
		binary.LittleEndian.PutUint32(buf[pay-8:], uint32(len(buf)-pay))
		binary.LittleEndian.PutUint32(buf[pay-4:], crc32.Checksum(buf[pay:], crcTable))
	}
	return buf
}

// encodedSizeHint estimates Encode's output from item counts at typical
// varint widths, a little high, so the buffer is allocated once; a low
// guess only costs a regrowth.
func (p *Pyramid) encodedSizeHint() int {
	n := pyrHeaderSize + len(p.Levels)*pyrLevelHeaderSize
	for li := range p.Levels {
		for ci := range p.Levels[li].Cells {
			c := &p.Levels[li].Cells[ci]
			n += 4 + 5*len(c.ByType) + 5*len(c.ByLane)
		}
	}
	return n
}

func appendCell(dst []byte, c *PyramidCell) []byte {
	dst = binary.AppendUvarint(dst, uint64(c.MaxConc))
	dst = binary.AppendUvarint(dst, uint64(len(c.ByType)))
	prevT := uint64(0)
	for i, tb := range c.ByType {
		v := uint64(tb.Type)
		if i == 0 {
			dst = binary.AppendUvarint(dst, v)
		} else {
			// Strict ascent lets the delta store v-prev-1, so the
			// decoder rejects unsorted or duplicate entries for free.
			dst = binary.AppendUvarint(dst, v-prevT-1)
		}
		prevT = v
		dst = binary.AppendUvarint(dst, uint64(tb.Busy))
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.ByLane)))
	prevL := uint64(0)
	for i, lb := range c.ByLane {
		v := uint64(lb.Lane.key())
		if i == 0 {
			dst = binary.AppendUvarint(dst, v)
		} else {
			dst = binary.AppendUvarint(dst, v-prevL-1)
		}
		prevL = v
		dst = binary.AppendUvarint(dst, uint64(lb.Busy))
	}
	return dst
}

// pyrCursor decodes the varint cell stream with bounds checks.
type pyrCursor struct {
	buf []byte
}

func (c *pyrCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.buf)
	if n <= 0 {
		return 0, fmt.Errorf("interval: pyramid cell stream: bad uvarint")
	}
	c.buf = c.buf[n:]
	return v, nil
}

// count reads a length prefix and bounds it by the remaining bytes — an
// entry, a key and a busy time, takes at least 2 — so corrupt counts
// cannot trigger huge allocations.
func (c *pyrCursor) count() (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(c.buf)/2) {
		return 0, fmt.Errorf("interval: pyramid cell stream: count %d exceeds remaining bytes", v)
	}
	return int(v), nil
}

// decodeCell decodes and validates one cell: entries strictly ascending
// and every busy time positive, as the encoder writes them.
func (c *pyrCursor) decodeCell(out *PyramidCell) error {
	mc, err := c.uvarint()
	if err != nil {
		return err
	}
	if mc > uint64(1)<<31 {
		return fmt.Errorf("interval: pyramid cell claims concurrency %d", mc)
	}
	out.MaxConc = int(mc)
	nt, err := c.count()
	if err != nil {
		return err
	}
	if nt > 0 {
		out.ByType = make([]TypeBusy, 0, nt)
	}
	prev := uint64(0)
	for i := 0; i < nt; i++ {
		d, err := c.uvarint()
		if err != nil {
			return err
		}
		v := d
		if i > 0 {
			v = prev + 1 + d
		}
		if v > uint64(^uint16(0)) {
			return fmt.Errorf("interval: pyramid cell type %d out of range", v)
		}
		prev = v
		busy, err := c.uvarint()
		if err != nil {
			return err
		}
		if busy == 0 || busy > uint64(1)<<62 {
			return fmt.Errorf("interval: pyramid cell has non-positive busy time")
		}
		out.ByType = append(out.ByType, TypeBusy{Type: events.Type(v), Busy: clock.Time(busy)})
	}
	nl, err := c.count()
	if err != nil {
		return err
	}
	if nl > 0 {
		out.ByLane = make([]LaneBusy, 0, nl)
	}
	prev = 0
	for i := 0; i < nl; i++ {
		d, err := c.uvarint()
		if err != nil {
			return err
		}
		v := d
		if i > 0 {
			v = prev + 1 + d
		}
		if v > uint64(^uint32(0)) {
			return fmt.Errorf("interval: pyramid cell lane %d out of range", v)
		}
		prev = v
		busy, err := c.uvarint()
		if err != nil {
			return err
		}
		if busy == 0 || busy > uint64(1)<<62 {
			return fmt.Errorf("interval: pyramid cell has non-positive lane busy time")
		}
		out.ByLane = append(out.ByLane, LaneBusy{
			Lane: Lane{Node: uint16(v >> 16), CPU: uint16(v)},
			Busy: clock.Time(busy),
		})
	}
	return nil
}

// DecodePyramid parses and validates a sidecar. Every offset, count,
// and payload is bounds-checked and CRC-verified before use — like the
// frame directory, the decoder trusts nothing it has not verified, so
// arbitrary bytes can never panic it or yield cells the encoder could
// not have produced. Only PyramidVersion is accepted: an older sidecar
// fails like any other damaged one, and a rebuild replaces it.
func DecodePyramid(data []byte) (*Pyramid, error) {
	if len(data) < pyrHeaderSize {
		return nil, fmt.Errorf("interval: pyramid sidecar too short (%d bytes)", len(data))
	}
	if string(data[:8]) != pyrMagic {
		return nil, fmt.Errorf("interval: bad pyramid magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != PyramidVersion {
		return nil, fmt.Errorf("interval: unsupported pyramid version %d", v)
	}
	if got, want := crc32.Checksum(data[8:pyrHeaderSize-4], crcTable), binary.LittleEndian.Uint32(data[pyrHeaderSize-4:]); got != want {
		return nil, fmt.Errorf("interval: pyramid header fails checksum")
	}
	p := &Pyramid{BaseWidth: clock.Time(binary.LittleEndian.Uint64(data[16:]))}
	nLevels := int(binary.LittleEndian.Uint32(data[24:]))
	p.Sig.Records = binary.LittleEndian.Uint64(data[28:])
	p.Sig.Frames = binary.LittleEndian.Uint64(data[36:])
	p.Sig.Start = clock.Time(binary.LittleEndian.Uint64(data[44:]))
	p.Sig.End = clock.Time(binary.LittleEndian.Uint64(data[52:]))
	p.Sig.DirSum = binary.LittleEndian.Uint32(data[60:])
	if p.BaseWidth <= 0 || bits.OnesCount64(uint64(p.BaseWidth)) != 1 {
		return nil, fmt.Errorf("interval: pyramid base width %d is not a positive power of two", p.BaseWidth)
	}
	if nLevels > pyrMaxLevels || int64(nLevels)+int64(bits.TrailingZeros64(uint64(p.BaseWidth))) > 62 {
		return nil, fmt.Errorf("interval: pyramid claims %d levels over base width %d", nLevels, p.BaseWidth)
	}
	off := pyrHeaderSize
	if nLevels > 0 {
		p.Levels = make([]PyramidLevel, 0, nLevels)
	}
	for li := 0; li < nLevels; li++ {
		if len(data)-off < pyrLevelHeaderSize {
			return nil, fmt.Errorf("interval: pyramid level %d header truncated", li)
		}
		first := int64(binary.LittleEndian.Uint64(data[off:]))
		count := binary.LittleEndian.Uint32(data[off+8:])
		payLen := binary.LittleEndian.Uint32(data[off+12:])
		paySum := binary.LittleEndian.Uint32(data[off+16:])
		off += pyrLevelHeaderSize
		if int64(payLen) > int64(len(data)-off) {
			return nil, fmt.Errorf("interval: pyramid level %d claims %d payload bytes beyond sidecar size", li, payLen)
		}
		// Every cell takes at least 3 bytes, so the count is bounded by
		// the payload length before any allocation happens.
		if count > payLen/3+1 || (count > 0 && payLen == 0) {
			return nil, fmt.Errorf("interval: pyramid level %d claims %d cells in %d bytes", li, count, payLen)
		}
		width := p.BaseWidth << uint(li)
		maxIdx := int64(1) << uint(62-bits.TrailingZeros64(uint64(width)))
		if first < -maxIdx || first+int64(count) > maxIdx {
			return nil, fmt.Errorf("interval: pyramid level %d cell range [%d,%d) out of time axis", li, first, first+int64(count))
		}
		pay := data[off : off+int(payLen)]
		off += int(payLen)
		if crc32.Checksum(pay, crcTable) != paySum {
			return nil, fmt.Errorf("interval: pyramid level %d fails payload checksum", li)
		}
		lvl := PyramidLevel{Width: width, First: first, Cells: make([]PyramidCell, count)}
		cur := pyrCursor{buf: pay}
		for ci := range lvl.Cells {
			if err := cur.decodeCell(&lvl.Cells[ci]); err != nil {
				return nil, fmt.Errorf("interval: pyramid level %d cell %d: %w", li, ci, err)
			}
		}
		if len(cur.buf) != 0 {
			return nil, fmt.Errorf("interval: pyramid level %d has %d trailing payload bytes", li, len(cur.buf))
		}
		p.Levels = append(p.Levels, lvl)
	}
	if off != len(data) {
		return nil, fmt.Errorf("interval: pyramid has %d trailing bytes", len(data)-off)
	}
	return p, nil
}

// SidecarOutweighs is the size rule, the one predicate the build and
// the open side share: a sidecar larger than its trace is neither
// written nor read. Attaching a sidecar costs at least reading and
// checking its own bytes; the scan it would replace reads at most the
// trace's. (Per-lane cells grow with lanes × cells, not with records, so
// a wide, short trace can have a sidecar several times its own size.)
func SidecarOutweighs(sidecarBytes, traceBytes int64) bool { return sidecarBytes > traceBytes }

// writeSidecar writes the encoded sidecar atomically (temp file +
// rename), so a crash mid-write leaves either the old sidecar or none —
// never a torn one that readers would have to distrust.
func writeSidecar(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// readSidecar reads a sidecar's bytes; a variable so a test can count
// how often, and when, a sidecar is touched.
var readSidecar = os.ReadFile

// LoadPyramid reads, decodes, and signature-checks the sidecar at path
// against f. It returns an error for any defect; callers that want the
// advisory behavior (File.Pyramid) discard the error and fall back to
// scans.
func LoadPyramid(path string, f *File) (*Pyramid, error) {
	data, err := readSidecar(path)
	if err != nil {
		return nil, err
	}
	p, err := DecodePyramid(data)
	if err != nil {
		return nil, err
	}
	sig, err := f.Signature()
	if err != nil {
		return nil, err
	}
	if p.Sig != sig {
		return nil, fmt.Errorf("interval: pyramid is stale (trace rewritten since it was built)")
	}
	return p, nil
}

// Pyramid returns the summary pyramid of the sidecar Open found, or nil.
// The first call loads and signature-checks it (LoadPyramid), once,
// however many summaries arrive together; any load error — damage,
// staleness, a File closed before anyone asked — leaves nil for good, so
// queries scan: the sidecar is advisory.
func (f *File) Pyramid() *Pyramid {
	f.pyrOnce.Do(func() {
		if f.pyrPath != "" && !f.closed.Load() {
			f.pyr, _ = LoadPyramid(f.pyrPath, f)
		}
	})
	return f.pyr
}

// floorDivTime is floor division of a time by a positive power-of-two
// width, correct for negative times (so cell alignment is absolute,
// not dependent on the run's position on the time axis).
func floorDivTime(t clock.Time, w clock.Time) int64 {
	q := int64(t) / int64(w)
	if int64(t)%int64(w) != 0 && (int64(t) < 0) != (int64(w) < 0) {
		q--
	}
	return q
}
