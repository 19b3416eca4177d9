package interval

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"tracefw/internal/clock"
)

// FrameEntry describes one frame (paper §2.3.3): "Each entry contains a
// frame pointer indicating the starting offset of the frame, the size of
// the frame, the number of records in the frame, and the start time and
// end time of the frame."
type FrameEntry struct {
	Offset  int64
	Bytes   uint32
	Records uint32
	Start   clock.Time
	End     clock.Time
	// Sum is the CRC-32C of the frame's record bytes, stored by header
	// version 3; zero on older files. Frame reads verify it.
	Sum uint32
}

// FrameDir is one frame directory with its position and links.
type FrameDir struct {
	Offset int64
	Prev   int64 // 0 = none
	Next   int64 // 0 = none
	// Start/End/Records aggregate the directory's frames. Header
	// version 2 stores them in the directory header, so a reader can
	// pass over a directory without its entries; for version-1 files
	// they are reconstructed from the entries when the directory is
	// read.
	Start   clock.Time
	End     clock.Time
	Records int64
	Entries []FrameEntry
}

// Overlaps reports whether the directory's frames can intersect the
// window [lo, hi]. An empty directory overlaps nothing.
func (d *FrameDir) Overlaps(lo, hi clock.Time) bool {
	return d.Records > 0 && d.End >= lo && d.Start <= hi
}

// File provides random and sequential access to an interval file.
type File struct {
	Header   Header
	FirstDir int64
	// Size is the total file size, used to bound every offset and length
	// read from the file so corrupted metadata cannot trigger huge
	// allocations. For a live-tail snapshot (WithLiveTail) it is the
	// sealed prefix length, which may be shorter than the on-disk file.
	Size int64

	// live marks a WithLiveTail snapshot: a directory whose next link
	// equals Size is the (speculative) end of the chain, and a chain
	// that would start exactly at Size is an empty trace. Both
	// conditions are impossible on a closed file, where the final link
	// has been patched to 0.
	live bool

	// ra is the file's bytes: every read is positioned, so concurrent
	// reads need no lock and share no offset.
	ra     io.ReaderAt
	closer io.Closer
	// closed flips once on the first Close; every read path checks it so
	// a closed File fails with ErrClosed instead of an os-level error
	// from a dead handle.
	closed atomic.Bool
	// skipSums switches off per-frame payload checksum verification
	// (v3+). No caller can set it: only this package's decoder-hardening
	// tests do, to hand the decoder a damaged payload the CRC would stop.
	// Salvage does not consult it.
	skipSums bool
	// src, when non-nil, memoizes values derived from a frame (the stats
	// engine's whole-frame partials): serving layers use it to answer
	// from a shared cache. Set it before the File is shared between
	// goroutines.
	src FrameSource
	// chainOnce loads the frame index (loadChain) at the first metadata
	// call or scan: dirs is the directory chain in file order, frames
	// every directory's entries flattened, chainErr what made the walk
	// fail. All three are read-only afterwards, so metadata calls need
	// no further synchronization.
	chainOnce sync.Once
	dirs      []*FrameDir
	frames    []FrameEntry
	chainErr  error
	// decoded counts frame payload reads; tests use it to assert that
	// window queries touch only the frames overlapping the window.
	decoded atomic.Int64
	// pyrPath names the sidecar Open found next to the trace and no
	// larger than it ("" = none); pyrOnce loads it into pyr at the first
	// Pyramid call. A nil pyr after that means SummarizeWindow scans.
	pyrPath string
	pyrOnce sync.Once
	pyr     *Pyramid
}

// ErrClosed is returned by reads on a File after Close. It is distinct
// from the underlying os error so servers that close traces under load
// can recognize the condition.
var ErrClosed = errors.New("interval: file already closed")

// MemoKey names a memoized value: the first 16 bytes of the SHA-256 of
// everything the value depends on besides the frame it came from.
type MemoKey [16]byte

// NewMemoKey is the key of the value described by b.
func NewMemoKey(b []byte) MemoKey {
	sum := sha256.Sum256(b)
	return MemoKey(sum[:16])
}

// FrameSource memoizes values derived from one frame of a file in a
// cache shared between readers of the same file. It holds values, not
// frames: every frame read decodes on its own.
type FrameSource interface {
	// Memo memoizes a value derived from fe's records under a
	// caller-chosen key, which must name everything the value depends on
	// besides the frame's bytes. The key is looked up before anything is
	// fetched: a kept value is returned to every later caller (reused =
	// true) without calling compute and without touching the frame. On a
	// miss the source decodes fe into scratch of its own with
	// DecodeFrameBatch and calls compute(b, store) with its records: the
	// memo keeps what the frame contributed, not the frame. b is valid
	// only until compute returns. store says whether the memo keeps the
	// value, so compute hands back a right-sized copy of size bytes when
	// it does, and may return scratch state of its own (never anything
	// aliasing b) when it does not. Memo runs compute at most once at a
	// time per key (a caller waiting on another's compute gives up when
	// ctx is done) and never keeps a value whose compute failed. A frame
	// whose value no later query is likely to share is not looked up: its
	// reader decodes it with DecodeFrameBatch.
	Memo(ctx context.Context, f *File, fe FrameEntry, key MemoKey, compute func(b *Batch, store bool) (v any, size int64, err error)) (v any, reused bool, err error)
}

// SetFrameSource installs (or, with nil, removes) the frame source. It
// must be called before the File is used from multiple goroutines; the
// field is read without synchronization.
func (f *File) SetFrameSource(s FrameSource) { f.src = s }

// FrameSource returns the installed frame source, nil when there is
// none.
func (f *File) FrameSource() FrameSource { return f.src }

// DecodedFrames returns how many frame payloads have been read from the
// file so far (every ReadFrame, and so every frame decode, counts once).
func (f *File) DecodedFrames() int64 { return f.decoded.Load() }

// readFileHeader parses the header, thread table, and marker table (the
// paper's readHeader) with positioned reads; the first frame directory
// follows them. The reader's Seek only measures its size. NewFile and
// Open wrap it with option handling.
func readFileHeader(ra io.ReaderAt, sk io.Seeker) (*File, error) {
	size, err := sk.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	r := io.NewSectionReader(ra, 0, size)
	var fixed [fixedHeaderSize]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("interval: reading header: %w", err)
	}
	if string(fixed[:8]) != fileMagic {
		return nil, fmt.Errorf("interval: bad magic %q", fixed[:8])
	}
	f := &File{ra: ra, Size: size}
	f.Header.ProfileVersion = binary.LittleEndian.Uint32(fixed[8:])
	f.Header.HeaderVersion = binary.LittleEndian.Uint32(fixed[12:])
	nThreads := binary.LittleEndian.Uint32(fixed[16:])
	f.Header.FieldMask = binary.LittleEndian.Uint16(fixed[20:])
	nMarkers := binary.LittleEndian.Uint32(fixed[24:])

	if f.Header.HeaderVersion > CurrentHeaderVersion {
		return nil, fmt.Errorf("interval: unsupported header version %d (current is %d)", f.Header.HeaderVersion, CurrentHeaderVersion)
	}
	if int64(nThreads)*threadEntrySize > size {
		return nil, fmt.Errorf("interval: thread table (%d entries) exceeds file size %d", nThreads, size)
	}
	// Each marker needs at least its 10-byte fixed header; bounding the
	// count up front turns a corrupt header into a clear error instead
	// of a long sequence of short reads.
	if int64(nThreads)*threadEntrySize+int64(nMarkers)*10 > size {
		return nil, fmt.Errorf("interval: marker table (%d entries) exceeds file size %d", nMarkers, size)
	}
	tt := make([]byte, int(nThreads)*threadEntrySize)
	if _, err := io.ReadFull(r, tt); err != nil {
		return nil, fmt.Errorf("interval: reading thread table: %w", err)
	}
	for i := 0; i < int(nThreads); i++ {
		b := tt[i*threadEntrySize:]
		f.Header.Threads = append(f.Header.Threads, ThreadEntry{
			Task:   int32(binary.LittleEndian.Uint32(b[0:])),
			PID:    binary.LittleEndian.Uint64(b[4:]),
			SysTID: binary.LittleEndian.Uint64(b[12:]),
			Node:   binary.LittleEndian.Uint16(b[20:]),
			LTID:   binary.LittleEndian.Uint16(b[22:]),
			Type:   b[24],
		})
	}
	f.Header.Markers = make(map[uint64]string, nMarkers)
	for i := 0; i < int(nMarkers); i++ {
		var mh [10]byte
		if _, err := io.ReadFull(r, mh[:]); err != nil {
			return nil, fmt.Errorf("interval: reading marker table: %w", err)
		}
		id := binary.LittleEndian.Uint64(mh[0:])
		sl := int(binary.LittleEndian.Uint16(mh[8:]))
		s := make([]byte, sl)
		if _, err := io.ReadFull(r, s); err != nil {
			return nil, fmt.Errorf("interval: reading marker string: %w", err)
		}
		f.Header.Markers[id] = string(s)
	}
	f.FirstDir, _ = r.Seek(0, io.SeekCurrent)
	if c, ok := ra.(io.Closer); ok {
		f.closer = c
	}
	return f, nil
}

// Close closes the underlying file if the File owns one. It is
// idempotent and safe to call concurrently with reads: the first call
// closes, every later call returns nil, and reads that race with or
// follow Close fail with ErrClosed.
func (f *File) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return nil
	}
	if f.closer != nil {
		return f.closer.Close()
	}
	return nil
}

// closedErr maps a read error on a closed (or concurrently closing)
// File to ErrClosed so callers see one distinct sentinel instead of an
// os-level error from a dead handle.
func (f *File) closedErr(err error) error {
	if f.closed.Load() || errors.Is(err, os.ErrClosed) {
		return ErrClosed
	}
	return err
}

// MarkerString retrieves a marker string by identifier (the paper's
// marker-table lookup routine).
func (f *File) MarkerString(id uint64) (string, bool) {
	s, ok := f.Header.Markers[id]
	return s, ok
}

// ReadFrameDir reads and validates the frame directory at offset: its
// header (entry count, links, and from header version 2 the aggregate
// bounds), its entry table, and on version 3 the checksum over both.
// For version-1 files the aggregates are reconstructed from the
// entries. Only loadChain calls it on the read path; the paper's
// readFrameDir is Dirs()[0].
func (f *File) ReadFrameDir(offset int64) (*FrameDir, error) {
	if f.closed.Load() {
		return nil, ErrClosed
	}
	if f.live && offset == f.Size {
		// Live snapshot taken before the first directory sealed:
		// synthesize the empty end-of-chain directory the writer has not
		// flushed yet.
		return &FrameDir{Offset: offset}, nil
	}
	ver := f.Header.HeaderVersion
	hdrSize, esz := dirHeaderSize(ver), entrySize(ver)
	var hb [dirHeaderV3Size]byte
	h := hb[:hdrSize]
	if err := f.readAt(h, offset); err != nil {
		return nil, f.closedErr(fmt.Errorf("interval: reading frame directory at %d: %w", offset, err))
	}
	d := &FrameDir{
		Offset: offset,
		Prev:   int64(binary.LittleEndian.Uint64(h[8:])),
		Next:   int64(binary.LittleEndian.Uint64(h[16:])),
	}
	if f.live && d.Next == f.Size {
		// The writer's speculative next link: the following directory
		// has not sealed yet, so this is the end of the chain.
		d.Next = 0
	}
	if ver >= 3 && binary.LittleEndian.Uint32(h[4:]) != dirMagic {
		return nil, fmt.Errorf("interval: directory at %d has bad magic %#x", offset, binary.LittleEndian.Uint32(h[4:]))
	}
	if d.Next < 0 || d.Next > f.Size || d.Prev < 0 || d.Prev > f.Size {
		return nil, fmt.Errorf("interval: directory at %d has out-of-file links (prev %d, next %d)", offset, d.Prev, d.Next)
	}
	n := int(binary.LittleEndian.Uint32(h[0:]))
	if offset+int64(hdrSize)+int64(n)*int64(esz) > f.Size {
		return nil, fmt.Errorf("interval: directory at %d claims %d entries beyond file size", offset, n)
	}
	if ver >= 2 {
		d.Start = clock.Time(binary.LittleEndian.Uint64(h[24:]))
		d.End = clock.Time(binary.LittleEndian.Uint64(h[32:]))
		d.Records = int64(binary.LittleEndian.Uint64(h[40:]))
		if d.Records < 0 || d.Records*minRecordBytes(ver) > f.Size {
			return nil, fmt.Errorf("interval: directory at %d claims %d records in a %d-byte file", offset, d.Records, f.Size)
		}
	}
	// The entry table lies directly behind the header.
	eb := make([]byte, n*esz)
	if err := f.readAt(eb, offset+int64(hdrSize)); err != nil {
		return nil, f.closedErr(fmt.Errorf("interval: reading %d frame entries: %w", n, err))
	}
	if ver >= 3 && dirChecksum(uint32(n), d.Start, d.End, uint64(d.Records), eb) != binary.LittleEndian.Uint32(h[48:]) {
		return nil, fmt.Errorf("interval: directory at %d fails metadata checksum", offset)
	}
	d.Entries = make([]FrameEntry, 0, n)
	for i := 0; i < n; i++ {
		b := eb[i*esz:]
		fe := FrameEntry{
			Offset:  int64(binary.LittleEndian.Uint64(b[0:])),
			Bytes:   binary.LittleEndian.Uint32(b[8:]),
			Records: binary.LittleEndian.Uint32(b[12:]),
			Start:   clock.Time(binary.LittleEndian.Uint64(b[16:])),
			End:     clock.Time(binary.LittleEndian.Uint64(b[24:])),
		}
		if ver >= 3 {
			fe.Sum = binary.LittleEndian.Uint32(b[32:])
		}
		// Reject corrupt entries here so every consumer (scanners, the
		// map-reduce engine, record preallocation from Records) sees
		// only frames that can physically exist in this file.
		if fe.Offset < 0 || fe.Offset > f.Size || int64(fe.Bytes) > f.Size || fe.Offset+int64(fe.Bytes) > f.Size {
			return nil, fmt.Errorf("interval: directory at %d entry %d: frame at %d (%d bytes) exceeds file size %d", offset, i, fe.Offset, fe.Bytes, f.Size)
		}
		if int64(fe.Records)*minRecordBytes(ver) > int64(fe.Bytes) {
			return nil, fmt.Errorf("interval: directory at %d entry %d: %d records cannot fit in %d bytes", offset, i, fe.Records, fe.Bytes)
		}
		if ver < 2 {
			if i == 0 || fe.Start < d.Start {
				d.Start = fe.Start
			}
			if i == 0 || fe.End > d.End {
				d.End = fe.End
			}
			d.Records += int64(fe.Records)
		}
		d.Entries = append(d.Entries, fe)
	}
	return d, nil
}

// loadChain follows the directory links from FirstDir to the end of the
// chain, once per File. It is the only code that follows a Next link, so
// the revisited-offset check lives here alone, and a damaged directory
// anywhere in the chain fails every metadata call and every scan with
// the same error (reading around the damage is Salvage's job).
func (f *File) loadChain() error {
	f.chainOnce.Do(func() {
		seen := map[int64]bool{}
		for off := f.FirstDir; ; {
			if seen[off] {
				f.chainErr = fmt.Errorf("interval: frame directory cycle at offset %d", off)
				return
			}
			seen[off] = true
			d, err := f.ReadFrameDir(off)
			if err != nil {
				f.chainErr = err
				return
			}
			f.dirs = append(f.dirs, d)
			f.frames = append(f.frames, d.Entries...)
			if d.Next == 0 {
				return
			}
			off = d.Next
		}
	})
	return f.chainErr
}

// Dirs returns every frame directory in file order. The chain is
// resident and shared: callers must treat it as read-only.
func (f *File) Dirs() ([]*FrameDir, error) {
	if err := f.loadChain(); err != nil {
		return nil, err
	}
	return f.dirs, nil
}

// Frames returns every frame entry in file order, read-only like Dirs.
func (f *File) Frames() ([]FrameEntry, error) {
	if err := f.loadChain(); err != nil {
		return nil, err
	}
	return f.frames, nil
}

// FramesInWindow returns the frame entries whose time range overlaps
// [lo, hi], in file order, from directory metadata alone; a directory
// whose aggregate bounds miss the window is passed over whole.
func (f *File) FramesInWindow(lo, hi clock.Time) ([]FrameEntry, error) {
	if err := f.loadChain(); err != nil {
		return nil, err
	}
	// Two passes, so the list is allocated once at its size.
	n := 0
	for _, d := range f.dirs {
		if d.Overlaps(lo, hi) {
			for _, fe := range d.Entries {
				if fe.End >= lo && fe.Start <= hi {
					n++
				}
			}
		}
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]FrameEntry, 0, n)
	for _, d := range f.dirs {
		if d.Overlaps(lo, hi) {
			for _, fe := range d.Entries {
				if fe.End >= lo && fe.Start <= hi {
					out = append(out, fe)
				}
			}
		}
	}
	return out, nil
}

// ReadFrame loads a frame's raw record bytes into buf's backing array
// when it is large enough, allocating otherwise, and verifies them
// against the frame's stored checksum. The read is positioned, so
// concurrent calls are safe.
func (f *File) ReadFrame(fe FrameEntry, buf []byte) ([]byte, error) {
	if f.closed.Load() {
		return nil, ErrClosed
	}
	if fe.Offset < 0 || int64(fe.Bytes) > f.Size || fe.Offset+int64(fe.Bytes) > f.Size {
		return nil, fmt.Errorf("interval: frame at %d (%d bytes) exceeds file size %d", fe.Offset, fe.Bytes, f.Size)
	}
	if cap(buf) < int(fe.Bytes) {
		buf = make([]byte, fe.Bytes)
	} else {
		buf = buf[:fe.Bytes]
	}
	if err := f.readAt(buf, fe.Offset); err != nil {
		return nil, f.closedErr(fmt.Errorf("interval: reading frame at %d: %w", fe.Offset, err))
	}
	// Versions before 3 store no payload checksum (Salvage runs its own).
	if !f.skipSums && f.Header.HeaderVersion >= 3 && crc32.Checksum(buf, crcTable) != fe.Sum {
		return nil, fmt.Errorf("interval: frame at %d fails payload checksum", fe.Offset)
	}
	f.decoded.Add(1)
	return buf, nil
}

// readAt fills p from off with one positioned read, failing as
// io.ReadFull does: io.EOF when nothing was read, io.ErrUnexpectedEOF
// when only part was.
func (f *File) readAt(p []byte, off int64) error {
	n, err := f.ra.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == io.EOF && n > 0 {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// FrameRecords decodes every record of a frame with a fresh read,
// ignoring any frame source. The records' Extra/Vec alias one
// batch decoded for this call alone, so they may be retained.
func (f *File) FrameRecords(fe FrameEntry) ([]Record, error) {
	b, err := f.ReadFrameBatch(fe)
	if err != nil {
		return nil, err
	}
	recs := make([]Record, b.N)
	for i := range recs {
		recs[i] = b.Row(i)
	}
	return recs, nil
}

// searchEnd returns the index of the first frame in fes whose end time
// is at or after t (len(fes) when there is none). Frames are end-time
// ordered, so it is a binary search.
func searchEnd(fes []FrameEntry, t clock.Time) int {
	return sort.Search(len(fes), func(i int) bool { return fes[i].End >= t })
}

// FrameContaining locates the first frame whose time range covers t,
// using only directory metadata — the fast seek the format exists for.
// ok is false when t is after the last frame.
func (f *File) FrameContaining(t clock.Time) (FrameEntry, bool, error) {
	if err := f.loadChain(); err != nil {
		return FrameEntry{}, false, err
	}
	i := searchEnd(f.frames, t)
	if i == len(f.frames) {
		return FrameEntry{}, false, nil
	}
	return f.frames[i], true, nil
}

// Stats aggregates frame-directory information: total elapsed time and
// total record count (paper §2.4's aggregate routines), from the
// per-directory aggregates.
func (f *File) Stats() (first, last clock.Time, records int64, err error) {
	if err := f.loadChain(); err != nil {
		return 0, 0, 0, err
	}
	any := false
	for _, d := range f.dirs {
		if len(d.Entries) == 0 {
			continue
		}
		if !any || d.Start < first {
			first = d.Start
		}
		if d.End > last {
			last = d.End
		}
		records += d.Records
		any = true
	}
	return first, last, records, nil
}

// Scanner iterates records sequentially across the frames it selected
// when it was made — all of them, or a window's — hiding the structure
// (the paper's getInterval loop).
//
// Every frame is obtained whole, as a Batch decoded for this scanner
// alone by ReadFrameBatch. It is never recycled, so records the scanner
// hands out stay valid after further calls and after the scan; and a
// frame that fails to decode fails at its first record, none of its
// records having been produced — the frame-granular contract MapFrames
// consumers have.
type Scanner struct {
	f *File
	// frames is the selection (selectFrames) and next the index of the
	// frame to load once the current batch is spent.
	frames []FrameEntry
	next   int
	err    error
	// batch is the current frame and row the next record to produce.
	batch *Batch
	row   int
	// pbuf holds the fixed-width payload Next last synthesized.
	pbuf []byte
}

// scan makes a scanner over the frames opts selects; a directory chain
// that does not load is the scanner's sticky error.
func (f *File) scan(opts MapOptions) *Scanner {
	fes, err := selectFrames(f, opts)
	return &Scanner{f: f, frames: fes, err: err}
}

// Scan returns a sequential record scanner positioned before the first
// record.
func (f *File) Scan() *Scanner { return f.scan(MapOptions{}) }

// ScanWindow returns a scanner restricted to the frames whose time
// range overlaps [lo, hi]. Frames outside the window are never decoded;
// records inside a decoded frame are all produced, including any that
// spill past the window edges, so callers filter records the same way
// they would after a full scan.
func (f *File) ScanWindow(lo, hi clock.Time) *Scanner {
	return f.scan(MapOptions{Window: true, Lo: lo, Hi: hi})
}

// SeekTime repositions the scanner immediately before the first
// selected frame whose end time is at or after t, using only directory
// metadata — the fast seek the frame directory exists for. Scanning
// then proceeds to the end of the file (or window). Seeking past the
// last frame leaves the scanner at EOF. A previous io.EOF state is
// cleared; a real error is not.
func (s *Scanner) SeekTime(t clock.Time) error {
	if s.err != nil && !errors.Is(s.err, io.EOF) {
		return s.err
	}
	s.err = nil
	s.batch, s.row = nil, 0
	s.next = searchEnd(s.frames, t)
	return nil
}

// nextRow positions the scanner on the next record, loading frames as
// needed, and returns its row in s.batch. Errors (io.EOF included) are
// sticky.
func (s *Scanner) nextRow() (int, error) {
	for s.err == nil && (s.batch == nil || s.row >= s.batch.N) {
		s.batch, s.row = nil, 0
		if s.next == len(s.frames) {
			s.err = io.EOF
		} else {
			s.batch, s.err = s.f.ReadFrameBatch(s.frames[s.next])
			s.next++
		}
	}
	if s.err != nil {
		return 0, s.err
	}
	s.row++
	return s.row - 1, nil
}

// Next returns the next record's payload bytes in the fixed-width
// encoding, or io.EOF after the last record. The payload is synthesized
// from the decoded frame, so consumers of raw payload bytes see every
// header version identically. The returned slice is valid until the
// following call.
func (s *Scanner) Next() ([]byte, error) {
	i, err := s.nextRow()
	if err != nil {
		return nil, err
	}
	r := s.batch.Row(i)
	s.pbuf = r.AppendPayload(s.pbuf[:0])
	return s.pbuf, nil
}

// NextRecord returns the next record. Its Extra/Vec slices alias the
// frame's batch: read-only, capacity-clamped so appending to one never
// overwrites another, and valid for as long as the caller holds them —
// though one retained record keeps its whole frame's extras resident, so
// long-lived holders copy.
func (s *Scanner) NextRecord() (Record, error) {
	i, err := s.nextRow()
	if err != nil {
		return Record{}, err
	}
	return s.batch.Row(i), nil
}

// All drains the scanner. The result slice is sized up front from the
// record counts of the frames still to be loaded.
func (s *Scanner) All() ([]Record, error) {
	var total int64
	for _, fe := range s.frames[s.next:] {
		total += int64(fe.Records)
	}
	recs := make([]Record, 0, total)
	for {
		r, err := s.NextRecord()
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, r)
	}
}
