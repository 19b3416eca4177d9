package slog

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
)

// File header layout (fixed part):
//
//	magic (8) | version u32 | bins u32 | nstates u32 | nframes u32 |
//	tStart i64 | tEnd i64 | tailOff u64 (patched) | nthreads u32 |
//	nmarkers u32
//
// followed by the thread table and marker table (interval-file layout),
// then the frames, then the tail: state table, preview matrix, frame
// index.
const slogVersion = 1

type writer struct {
	ws      io.WriteSeeker
	off     int64
	tailPos int64 // where tailOff is patched
	prev    *Preview
	index   []FrameEntry
	nframes int

	// The frame being assembled: buf holds its encoding so far (record
	// count placeholder first), reused from frame to frame.
	buf    []byte
	open   bool
	n      int // records in buf
	lo, hi clock.Time
}

func newWriter(ws io.WriteSeeker, mf *interval.File, prev *Preview, nframes int) (*writer, error) {
	w := &writer{ws: ws, prev: prev, nframes: nframes}
	var b []byte
	b = append(b, slogMagic...)
	b = appendU32(b, slogVersion)
	b = appendU32(b, uint32(len(prev.Dur[0])))
	b = appendU32(b, uint32(len(prev.States)))
	b = appendU32(b, uint32(nframes))
	b = appendU64(b, uint64(prev.TStart))
	b = appendU64(b, uint64(prev.TEnd))
	w.tailPos = int64(len(b))
	b = appendU64(b, 0) // tailOff, patched in finish
	b = appendU32(b, uint32(len(mf.Header.Threads)))
	b = appendU32(b, uint32(len(mf.Header.Markers)))
	for _, te := range mf.Header.Threads {
		b = appendU32(b, uint32(te.Task))
		b = appendU64(b, te.PID)
		b = appendU64(b, te.SysTID)
		b = appendU16(b, te.Node)
		b = appendU16(b, te.LTID)
		b = append(b, te.Type, 0, 0, 0)
	}
	ids := make([]uint64, 0, len(mf.Header.Markers))
	for id := range mf.Header.Markers {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		s := mf.Header.Markers[id]
		b = appendU64(b, id)
		b = appendU16(b, uint16(len(s)))
		b = append(b, s...)
	}
	if _, err := ws.Write(b); err != nil {
		return nil, err
	}
	w.off = int64(len(b))
	return w, nil
}

// appendRecord appends one frame record: kind, payload length, payload.
func appendRecord(b []byte, kind byte, r *interval.Record) []byte {
	b = append(b, kind, 0, 0)
	at := len(b)
	return putPayloadLen(r.AppendPayload(b), at)
}

// putPayloadLen patches the length field of the frame record whose
// payload starts at at and runs to the end of b.
func putPayloadLen(b []byte, at int) []byte {
	binary.LittleEndian.PutUint16(b[at-2:], uint16(len(b)-at))
	return b
}

// openFrame starts a frame with its pseudo-intervals: a zero-duration
// continuation at the frame start for every state trk holds open, in
// (node, thread) order, outermost first. It returns how many it wrote.
func (w *writer) openFrame(trk *interval.OpenStates, at clock.Time) int {
	w.buf = append(w.buf[:0], 0, 0, 0, 0) // record count, patched at close
	ps := trk.Pseudos(at)
	for i := range ps {
		w.buf = appendRecord(w.buf, kindPseudo, &ps[i])
	}
	w.open, w.n = true, len(ps)
	// The frame's bounds span its interval records, stretched down to the
	// frame start when pseudo-intervals sit there.
	w.lo, w.hi = clock.Time(1<<63-1), clock.Time(-1<<63)
	if w.n > 0 {
		w.lo = at
	}
	return w.n
}

// addRow appends row i of b to the open frame as an interval record,
// encoded straight from the batch's columns.
func (w *writer) addRow(b *interval.Batch, i int) {
	w.buf = append(w.buf, kindInterval, 0, 0)
	at := len(w.buf)
	w.buf = putPayloadLen(b.AppendRowPayload(w.buf, i), at)
	w.n++
	w.lo = min(w.lo, b.Start[i])
	w.hi = max(w.hi, b.End(i))
}

// closeFrame completes the open frame with its arrows — the originals
// arrows[first:end], then the crossing copies arrows[i] for i in
// crossing — writes it in one call, and indexes it.
func (w *writer) closeFrame(arrows []Arrow, first, end int, crossing []int32) error {
	for i := first; i < end; i++ {
		w.buf = appendArrow(w.buf, kindArrow, &arrows[i])
	}
	for _, i := range crossing {
		w.buf = appendArrow(w.buf, kindPseudoArrow, &arrows[i])
	}
	w.n += end - first + len(crossing)
	binary.LittleEndian.PutUint32(w.buf, uint32(w.n))
	if _, err := w.ws.Write(w.buf); err != nil {
		return err
	}
	w.index = append(w.index, FrameEntry{
		Offset:  w.off,
		Bytes:   uint32(len(w.buf)),
		Records: uint32(w.n),
		Start:   w.lo,
		End:     w.hi,
	})
	w.off += int64(len(w.buf))
	w.open = false
	return nil
}

func (w *writer) finish() error {
	if w.open || len(w.index) != w.nframes {
		return errFrameCount
	}
	tail := w.off
	var b []byte
	// State table.
	for _, ty := range w.prev.States {
		b = appendU16(b, uint16(ty))
		name := ty.Name()
		b = appendU16(b, uint16(len(name)))
		b = append(b, name...)
	}
	// Preview matrix + counters.
	for si := range w.prev.Dur {
		for _, d := range w.prev.Dur[si] {
			b = appendU64(b, uint64(d))
		}
		b = appendU64(b, uint64(w.prev.Count[si]))
	}
	// Frame index.
	for _, fe := range w.index {
		b = appendU64(b, uint64(fe.Offset))
		b = appendU32(b, fe.Bytes)
		b = appendU32(b, fe.Records)
		b = appendU64(b, uint64(fe.Start))
		b = appendU64(b, uint64(fe.End))
	}
	if _, err := w.ws.Write(b); err != nil {
		return err
	}
	// Patch tailOff.
	if _, err := w.ws.Seek(w.tailPos, io.SeekStart); err != nil {
		return err
	}
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], uint64(tail))
	if _, err := w.ws.Write(t[:]); err != nil {
		return err
	}
	_, err := w.ws.Seek(w.off+int64(len(b)), io.SeekStart)
	return err
}

// File is a parsed SLOG file ready for frame fetches.
type File struct {
	Bins    int
	TStart  clock.Time
	TEnd    clock.Time
	Threads []interval.ThreadEntry
	Markers map[uint64]string
	States  []events.Type
	Preview *Preview
	Index   []FrameEntry
	r       io.ReadSeeker
	closer  io.Closer
	nstates int
	nframes int
	tailOff int64
	size    int64
}

// Read parses an SLOG file's header, tables, preview, and frame index.
// Every offset and count is bounded by the file size so corrupted
// metadata cannot trigger unbounded allocations.
func Read(rs io.ReadSeeker) (*File, error) {
	size, err := rs.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	var fixed [8 + 4 + 4 + 4 + 4 + 8 + 8 + 8 + 4 + 4]byte
	if _, err := io.ReadFull(rs, fixed[:]); err != nil {
		return nil, fmt.Errorf("slog: reading header: %w", err)
	}
	if string(fixed[:8]) != slogMagic {
		return nil, fmt.Errorf("slog: bad magic %q", fixed[:8])
	}
	f := &File{r: rs}
	if v := binary.LittleEndian.Uint32(fixed[8:]); v != slogVersion {
		return nil, fmt.Errorf("slog: unsupported version %d", v)
	}
	f.Bins = int(binary.LittleEndian.Uint32(fixed[12:]))
	f.nstates = int(binary.LittleEndian.Uint32(fixed[16:]))
	f.nframes = int(binary.LittleEndian.Uint32(fixed[20:]))
	f.TStart = clock.Time(binary.LittleEndian.Uint64(fixed[24:]))
	f.TEnd = clock.Time(binary.LittleEndian.Uint64(fixed[32:]))
	f.tailOff = int64(binary.LittleEndian.Uint64(fixed[40:]))
	nthreads := int(binary.LittleEndian.Uint32(fixed[48:]))
	nmarkers := int(binary.LittleEndian.Uint32(fixed[52:]))
	f.size = size
	if f.tailOff < 0 || f.tailOff > size {
		return nil, fmt.Errorf("slog: tail offset %d outside file of %d bytes", f.tailOff, size)
	}
	if int64(nthreads)*28 > size || int64(nmarkers)*10 > size ||
		int64(f.nstates)*2 > size || int64(f.nframes)*32 > size ||
		int64(f.Bins) > size {
		return nil, fmt.Errorf("slog: header counts exceed file size %d", size)
	}

	tt := make([]byte, nthreads*28)
	if _, err := io.ReadFull(rs, tt); err != nil {
		return nil, err
	}
	for i := 0; i < nthreads; i++ {
		b := tt[i*28:]
		f.Threads = append(f.Threads, interval.ThreadEntry{
			Task:   int32(binary.LittleEndian.Uint32(b[0:])),
			PID:    binary.LittleEndian.Uint64(b[4:]),
			SysTID: binary.LittleEndian.Uint64(b[12:]),
			Node:   binary.LittleEndian.Uint16(b[20:]),
			LTID:   binary.LittleEndian.Uint16(b[22:]),
			Type:   b[24],
		})
	}
	f.Markers = make(map[uint64]string, nmarkers)
	for i := 0; i < nmarkers; i++ {
		var mh [10]byte
		if _, err := io.ReadFull(rs, mh[:]); err != nil {
			return nil, err
		}
		id := binary.LittleEndian.Uint64(mh[0:])
		sl := int(binary.LittleEndian.Uint16(mh[8:]))
		s := make([]byte, sl)
		if _, err := io.ReadFull(rs, s); err != nil {
			return nil, err
		}
		f.Markers[id] = string(s)
	}

	// Tail: state table, preview, index.
	if _, err := rs.Seek(f.tailOff, io.SeekStart); err != nil {
		return nil, err
	}
	br := newByteReader(rs)
	for i := 0; i < f.nstates; i++ {
		ty, err := br.u16()
		if err != nil {
			return nil, err
		}
		nl, err := br.u16()
		if err != nil {
			return nil, err
		}
		if err := br.skip(int(nl)); err != nil {
			return nil, err
		}
		f.States = append(f.States, events.Type(ty))
	}
	p := &Preview{TStart: f.TStart, TEnd: f.TEnd, States: f.States}
	for si := 0; si < f.nstates; si++ {
		row := make([]clock.Time, f.Bins)
		for b := 0; b < f.Bins; b++ {
			v, err := br.u64()
			if err != nil {
				return nil, err
			}
			row[b] = clock.Time(v)
		}
		p.Dur = append(p.Dur, row)
		cnt, err := br.u64()
		if err != nil {
			return nil, err
		}
		p.Count = append(p.Count, int64(cnt))
	}
	f.Preview = p
	for i := 0; i < f.nframes; i++ {
		off, err := br.u64()
		if err != nil {
			return nil, err
		}
		bytes, err := br.u32()
		if err != nil {
			return nil, err
		}
		n, err := br.u32()
		if err != nil {
			return nil, err
		}
		st, err := br.u64()
		if err != nil {
			return nil, err
		}
		en, err := br.u64()
		if err != nil {
			return nil, err
		}
		f.Index = append(f.Index, FrameEntry{
			Offset: int64(off), Bytes: bytes, Records: n,
			Start: clock.Time(st), End: clock.Time(en),
		})
	}
	if c, ok := rs.(io.Closer); ok {
		f.closer = c
	}
	return f, nil
}

// Open opens an SLOG file on disk.
func Open(path string) (*File, error) {
	fp, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	f, err := Read(fp)
	if err != nil {
		fp.Close()
		return nil, err
	}
	return f, nil
}

// Close closes the underlying file if the File owns one.
func (f *File) Close() error {
	if f.closer != nil {
		c := f.closer
		f.closer = nil
		return c.Close()
	}
	return nil
}

// FrameAt returns the index of the first frame whose time range ends at
// or after t — the paper's "given a time, it is easy to locate the frame
// containing that point in time". ok is false past the end of the run.
func (f *File) FrameAt(t clock.Time) (int, bool) {
	lo, hi := 0, len(f.Index)
	for lo < hi {
		mid := (lo + hi) / 2
		if f.Index[mid].End >= t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= len(f.Index) {
		return 0, false
	}
	return lo, true
}

// ReadFrame loads and decodes frame i.
func (f *File) ReadFrame(i int) (*FrameData, error) {
	if i < 0 || i >= len(f.Index) {
		return nil, fmt.Errorf("slog: frame %d out of range [0,%d)", i, len(f.Index))
	}
	fe := f.Index[i]
	if fe.Offset < 0 || int64(fe.Bytes) > f.size || fe.Offset+int64(fe.Bytes) > f.size {
		return nil, fmt.Errorf("slog: frame %d at %d (%d bytes) exceeds file size %d", i, fe.Offset, fe.Bytes, f.size)
	}
	if _, err := f.r.Seek(fe.Offset, io.SeekStart); err != nil {
		return nil, err
	}
	buf := make([]byte, fe.Bytes)
	if _, err := io.ReadFull(f.r, buf); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	fd := &FrameData{}
	for k := 0; k < n; k++ {
		if len(buf) < 3 {
			return nil, fmt.Errorf("slog: truncated frame record header")
		}
		kind := buf[0]
		pl := int(binary.LittleEndian.Uint16(buf[1:]))
		buf = buf[3:]
		if len(buf) < pl {
			return nil, fmt.Errorf("slog: truncated frame record payload")
		}
		payload := buf[:pl]
		buf = buf[pl:]
		switch kind {
		case kindInterval, kindPseudo:
			r, err := interval.DecodePayload(payload)
			if err != nil {
				return nil, err
			}
			if kind == kindInterval {
				fd.Intervals = append(fd.Intervals, r)
			} else {
				fd.Pseudo = append(fd.Pseudo, r)
			}
		case kindArrow, kindPseudoArrow:
			a, err := decodeArrow(payload)
			if err != nil {
				return nil, err
			}
			if kind == kindArrow {
				fd.Arrows = append(fd.Arrows, a)
			} else {
				fd.Crossing = append(fd.Crossing, a)
			}
		default:
			return nil, fmt.Errorf("slog: unknown record kind %d", kind)
		}
	}
	return fd, nil
}

// byteReader provides checked little-endian primitive reads.
type byteReader struct{ r io.Reader }

func newByteReader(r io.Reader) *byteReader { return &byteReader{r: r} }

func (b *byteReader) u16() (uint16, error) {
	var t [2]byte
	if _, err := io.ReadFull(b.r, t[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(t[:]), nil
}

func (b *byteReader) u32() (uint32, error) {
	var t [4]byte
	if _, err := io.ReadFull(b.r, t[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(t[:]), nil
}

func (b *byteReader) u64() (uint64, error) {
	var t [8]byte
	if _, err := io.ReadFull(b.r, t[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(t[:]), nil
}

func (b *byteReader) skip(n int) error {
	_, err := io.CopyN(io.Discard, b.r, int64(n))
	return err
}

func appendU16(b []byte, v uint16) []byte {
	var t [2]byte
	binary.LittleEndian.PutUint16(t[:], v)
	return append(b, t[:]...)
}

func appendU32(b []byte, v uint32) []byte {
	var t [4]byte
	binary.LittleEndian.PutUint32(t[:], v)
	return append(b, t[:]...)
}

func appendU64(b []byte, v uint64) []byte {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], v)
	return append(b, t[:]...)
}
