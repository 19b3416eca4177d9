package interval

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"tracefw/internal/clock"
)

// ThreadEntry is one thread-table row (paper §2.3.3): "Each thread entry
// contains the MPI task ID, process ID, system thread ID, node ID, the
// logical thread ID, and a thread type."
type ThreadEntry struct {
	Task   int32 // MPI task id, -1 for non-MPI threads
	PID    uint64
	SysTID uint64
	Node   uint16
	LTID   uint16 // node-local logical thread id
	Type   uint8  // events.ThreadMPI / ThreadUser / ThreadSystem
}

// Header is the interval-file header plus the tables stored ahead of all
// interval records.
type Header struct {
	ProfileVersion uint32
	HeaderVersion  uint32
	FieldMask      uint16
	Threads        []ThreadEntry
	Markers        map[uint64]string // globally unique marker id -> string
}

// CurrentHeaderVersion is written into new files. Version 2 extends
// each frame-directory header with aggregate time bounds and a record
// count covering the directory's frames, so window queries can skip a
// whole directory without reading its entries. Version 3 additionally
// stores a magic word and a CRC-32C checksum in every directory header
// and a CRC-32C of each frame's record bytes in its entry, so damaged
// metadata is detected on read and salvage can re-synchronize on the
// directory magic. Version 4 keeps the v3 directory layout (and its
// checksums) but encodes each frame's records compactly: start times
// as varint deltas from the frame's minimum start, durations and
// extras as varints, and the repeating (type, bebits, cpu, node,
// thread) tuples through a per-frame dictionary (see frame_v4.go).
// Files at every older version remain fully readable; v1 aggregates
// are reconstructed from the frame entries when a directory is read.
const CurrentHeaderVersion uint32 = 4

const (
	fileMagic       = "UTEIVL1\x00"
	fixedHeaderSize = 8 + 4 + 4 + 4 + 2 + 2 + 4 + 4
	threadEntrySize = 4 + 8 + 8 + 2 + 2 + 1 + 3
	dirHeaderV1Size = 4 + 4 + 8 + 8
	// Version 2 appends dirStart i64, dirEnd i64, dirRecords u64 after
	// the next link and before the frame entries.
	dirHeaderV2Size = dirHeaderV1Size + 8 + 8 + 8
	// Version 3 stores dirMagic in the formerly reserved word and
	// appends a CRC-32C over the directory metadata after the
	// aggregates (see dirChecksum for exact coverage).
	dirHeaderV3Size = dirHeaderV2Size + 4
	frameEntrySize  = 8 + 4 + 4 + 8 + 8
	// Version 3 appends a CRC-32C of the frame's record bytes to each
	// directory entry.
	frameEntryV3Size = frameEntrySize + 4
	// minFramedRecord bounds how small an encoded record can be on
	// header versions below 4: a one-byte length prefix plus the fixed
	// common payload fields. Used (via minRecordBytes) to validate
	// directory record counts against frame sizes.
	minFramedRecord = 1 + 25 // 1 + profile.CommonSize
)

// dirMagic is stored in the second word of every version-3 directory
// header ("DIR3" little-endian). Salvage scans for it to find directory
// headers after the link chain is damaged.
const dirMagic uint32 = 'D' | 'I'<<8 | 'R'<<16 | '3'<<24

// crcTable is the Castagnoli polynomial used for all v3 checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// dirHeaderSize returns the directory header size for a header version.
func dirHeaderSize(headerVersion uint32) int {
	switch {
	case headerVersion >= 3:
		return dirHeaderV3Size
	case headerVersion == 2:
		return dirHeaderV2Size
	default:
		return dirHeaderV1Size
	}
}

// entrySize returns the directory entry size for a header version.
func entrySize(headerVersion uint32) int {
	if headerVersion >= 3 {
		return frameEntryV3Size
	}
	return frameEntrySize
}

// dirChecksum computes the v3 directory checksum: the entry count, the
// magic word, the three aggregate fields, then the raw entry table. The
// prev/next links are deliberately excluded — the writer patches them
// after the directory is on disk (Close rewrites the last link to 0) —
// and readers validate them structurally instead.
func dirChecksum(count uint32, start, end clock.Time, records uint64, entries []byte) uint32 {
	var cov [32]byte
	binary.LittleEndian.PutUint32(cov[0:], count)
	binary.LittleEndian.PutUint32(cov[4:], dirMagic)
	binary.LittleEndian.PutUint64(cov[8:], uint64(start))
	binary.LittleEndian.PutUint64(cov[16:], uint64(end))
	binary.LittleEndian.PutUint64(cov[24:], records)
	sum := crc32.Update(0, crcTable, cov[:])
	return crc32.Update(sum, crcTable, entries)
}

// WriterOptions tunes frame construction.
type WriterOptions struct {
	// FrameBytes closes a frame once its regular records — everything
	// but the FramePrologue records the frame opens with — reach this
	// size (default 64 KiB). "The frame size is chosen so that the
	// display of a single frame is quick" (paper §4). A frame also stays
	// open until its regular records match its prologue in both count
	// and bytes, so prologue records are at most half of any file (plus
	// the last frame's prologue) however many states are open at once;
	// without a FramePrologue the rule is simply "records reach
	// FrameBytes". The threshold is measured on the fixed-width size
	// (Record.EncodedSize) whatever encoding the header version writes,
	// so frame boundaries (and with them record-to-frame assignment) are
	// identical across header versions; v4 frames are typically much
	// smaller on disk.
	FrameBytes int
	// FramesPerDir is the number of frame entries per directory
	// (default 32).
	FramesPerDir int
	// unordered disables the ascending-end-time validation. Only this
	// package's tests set it, to write records no producer may.
	unordered bool
	// FramePrologue, if set, is invoked whenever a new frame is about to
	// receive its first record; the returned records are placed at the
	// beginning of the frame. The merge utility uses this to plant the
	// zero-duration continuation pseudo-intervals that represent the
	// nested outer states at the start of each frame (paper §3.3). The
	// writer copies the records into the open frame before returning to
	// its caller and keeps no reference, so the callback may reuse the
	// slice.
	FramePrologue func() []Record
	// OnSeal, if set, is invoked after every directory flush — the point
	// at which the frames of that directory have reached the underlying
	// writer and the file prefix of SealInfo.Size bytes is durable and
	// self-consistent (see FORMATS.md "always-valid prefix"). Streaming
	// ingest uses it to publish the live tail to readers. The callback
	// runs on the writer's goroutine; it must not call back into the
	// Writer.
	OnSeal func(SealInfo)
	// OnFrame, if set, is shown every frame as it is sealed into the
	// pending directory, in file order, as the batch it was encoded from:
	// its prologue records first, the same rows and columns a reader
	// decodes from the frame. The batch is read-only and valid only during
	// the call. utemerge's SLOG planner rides on it, so the merged file is
	// never decoded for the SLOG's first pass. Like OnSeal it runs on the
	// writer's goroutine and must not call back into the Writer.
	OnFrame func(*Batch)
}

// SealInfo describes the valid file prefix after a directory seal.
// Opening the file with WithLiveTail(Size) observes exactly Frames
// frames in Dirs directories; bytes beyond Size may not exist yet or
// may be a partially-written next directory.
type SealInfo struct {
	Size   int64      // length of the valid, durable prefix
	Frames int        // total frames sealed so far
	Dirs   int        // total directories written so far
	End    clock.Time // largest record end time sealed so far
	Final  bool       // set on the Close-time notification
}

func (o WriterOptions) frameBytes() int {
	if o.FrameBytes <= 0 {
		return 64 << 10
	}
	return o.FrameBytes
}

func (o WriterOptions) framesPerDir() int {
	if o.FramesPerDir <= 0 {
		return 32
	}
	return o.FramesPerDir
}

// Writer streams interval records into the frame/directory structure of
// Figure 4. Steady-state writing is strictly append-only: every
// directory is written with its next link speculatively pointing at the
// byte immediately after its frames — which is exactly where the next
// directory lands — so mid-stream links are never rewritten and the
// sealed prefix of a partially-written file is always valid. The
// WriteSeeker is needed only at Close, which patches the final
// directory's speculative next link to 0 when no further directory
// follows it.
type Writer struct {
	ws   io.WriteSeeker
	opts WriterOptions

	off       int64 // current file offset
	lastEnd   clock.Time
	anyRecord bool
	// fb holds the open frame's records; closeFrame encodes straight from
	// its columns. frameSize is the running sum of their
	// Record.EncodedSize, the measure the frame-full rule is stated in.
	fb           *Batch
	frameSize    int
	frameMeta    frameEntry
	group        []frameEntry // closed frames of the pending directory
	groupBytes   []byte
	prevDirOff   int64  // offset of the previous directory (-1 none)
	patchOff     int64  // where the previous directory's next field lives
	version      uint32 // directory layout version being written
	sealedFrames int    // frames flushed to directories so far
	sealedDirs   int    // directories written so far
	sealedEnd    clock.Time
	closed       bool
	err          error
	// prologueBytes/prologueRecords measure the FramePrologue records
	// at the head of the open frame.
	prologueBytes   int
	prologueRecords uint32
	// groupPB is the pooled backing buffer behind groupBytes; it and fb
	// go back to their pools on Close.
	groupPB *[]byte
}

type frameEntry struct {
	offset  int64 // filled when the group is flushed
	bytes   uint32
	records uint32
	start   clock.Time
	end     clock.Time
	sum     uint32 // CRC-32C of the frame's record bytes (v3 only)
}

// NewWriter writes the header and tables immediately and returns a
// record writer. A zero hdr.HeaderVersion is normalized to
// CurrentHeaderVersion; setting it to 1 explicitly writes the legacy
// directory layout without aggregate bounds (compatibility tests and
// old-format fixtures use this).
func NewWriter(ws io.WriteSeeker, hdr Header, opts WriterOptions) (*Writer, error) {
	if hdr.HeaderVersion == 0 {
		hdr.HeaderVersion = CurrentHeaderVersion
	}
	if hdr.HeaderVersion > CurrentHeaderVersion {
		return nil, fmt.Errorf("interval: cannot write header version %d (current is %d)", hdr.HeaderVersion, CurrentHeaderVersion)
	}
	w := &Writer{ws: ws, opts: opts, prevDirOff: -1, patchOff: -1, version: hdr.HeaderVersion}
	w.frameMeta = emptyFrameMeta()
	w.fb = batchPool.Get().(*Batch)
	w.fb.reset()
	w.groupPB = getBuf()
	w.groupBytes = *w.groupPB

	hb := getBuf()
	buf := *hb
	defer func() { *hb = buf[:0]; putBuf(hb) }()
	buf = append(buf, fileMagic...)
	buf = appendU32(buf, hdr.ProfileVersion)
	buf = appendU32(buf, hdr.HeaderVersion)
	buf = appendU32(buf, uint32(len(hdr.Threads)))
	buf = appendU16(buf, hdr.FieldMask)
	buf = appendU16(buf, 0)
	buf = appendU32(buf, uint32(len(hdr.Markers)))
	buf = appendU32(buf, 0)
	for _, te := range hdr.Threads {
		buf = appendU32(buf, uint32(te.Task))
		buf = appendU64(buf, te.PID)
		buf = appendU64(buf, te.SysTID)
		buf = appendU16(buf, te.Node)
		buf = appendU16(buf, te.LTID)
		buf = append(buf, te.Type, 0, 0, 0)
	}
	// Marker table in ascending id order for determinism.
	ids := make([]uint64, 0, len(hdr.Markers))
	for id := range hdr.Markers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s := hdr.Markers[id]
		buf = appendU64(buf, id)
		buf = appendU16(buf, uint16(len(s)))
		buf = append(buf, s...)
	}
	if _, err := ws.Write(buf); err != nil {
		return nil, fmt.Errorf("interval: writing header: %w", err)
	}
	w.off = int64(len(buf))
	return w, nil
}

func emptyFrameMeta() frameEntry {
	return frameEntry{start: clock.Time(1<<63 - 1), end: clock.Time(-1 << 63)}
}

// Add appends one record. Records must arrive in ascending end-time
// order (no caller can switch the check off). A record no reader
// would accept — its fixed-width payload over the format's 65 535-byte
// limit — fails the writer for good, as an out-of-order one does.
func (w *Writer) Add(r *Record) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("interval: Add after Close")
	}
	end := r.End()
	if !w.opts.unordered && w.anyRecord && end < w.lastEnd {
		w.err = fmt.Errorf("interval: record end %v before previous end %v (file must be end-time ordered)", end, w.lastEnd)
		return w.err
	}
	if w.opts.FramePrologue != nil && w.fb.N == 0 {
		// The frame is about to receive its first regular record: the
		// caller-supplied frame-opening records go in ahead of it.
		recs := w.opts.FramePrologue()
		for i := range recs {
			if err := w.push(&recs[i]); err != nil {
				return err
			}
		}
		w.prologueBytes, w.prologueRecords = w.frameSize, w.frameMeta.records
	}
	if err := w.push(r); err != nil {
		return err
	}
	w.lastEnd = end
	w.anyRecord = true

	// The one frame-full rule: the frame's regular records have reached
	// FrameBytes and are no fewer and no smaller than the frame's own
	// prologue. See WriterOptions.FrameBytes.
	regular := w.frameSize - w.prologueBytes
	if regular < w.opts.frameBytes() || regular < w.prologueBytes ||
		w.frameMeta.records < 2*w.prologueRecords {
		return nil
	}
	w.closeFrame()
	if len(w.group) >= w.opts.framesPerDir() {
		return w.flushGroup(false)
	}
	return nil
}

// push places one record in the open frame and accounts its size and
// time bounds.
func (w *Writer) push(r *Record) error {
	if n := r.payloadSize(); n > maxPayload {
		w.err = fmt.Errorf("interval: %s record payload is %d bytes, the format limit is %d", r.Type.Name(), n, maxPayload)
		return w.err
	}
	w.fb.push(r)
	w.frameSize += r.EncodedSize()
	w.frameMeta.records++
	if r.Start < w.frameMeta.start {
		w.frameMeta.start = r.Start
	}
	if e := r.End(); e > w.frameMeta.end {
		w.frameMeta.end = e
	}
	return nil
}

// closeFrame seals the open frame into the pending directory group,
// encoding it once, straight from the columns: the compact v4 stream
// from header version 4 on, fixed-width rows below it. The per-frame CRC
// covers the encoded bytes.
func (w *Writer) closeFrame() {
	if w.fb.N == 0 {
		return
	}
	mark := len(w.groupBytes)
	if w.version >= 4 {
		w.groupBytes = w.fb.appendV4(w.groupBytes)
	} else {
		w.groupBytes = w.fb.appendFixed(w.groupBytes)
	}
	encoded := w.groupBytes[mark:]
	w.frameMeta.bytes = uint32(len(encoded))
	if w.version >= 3 {
		w.frameMeta.sum = crc32.Checksum(encoded, crcTable)
	}
	w.group = append(w.group, w.frameMeta)
	if w.opts.OnFrame != nil {
		w.opts.OnFrame(w.fb)
	}
	w.fb.reset()
	w.frameSize, w.prologueBytes, w.prologueRecords = 0, 0, 0
	w.frameMeta = emptyFrameMeta()
}

// appendDir serializes a directory header and entry table for version,
// computing the v3 checksum when applicable.
func appendDir(buf []byte, version uint32, prev, next int64, group []frameEntry) []byte {
	buf = appendU32(buf, uint32(len(group)))
	if version >= 3 {
		buf = appendU32(buf, dirMagic)
	} else {
		buf = appendU32(buf, 0)
	}
	buf = appendU64(buf, uint64(prev))
	buf = appendU64(buf, uint64(next))
	var dirStart, dirEnd clock.Time
	var dirRecords uint64
	if len(group) > 0 {
		dirStart, dirEnd = group[0].start, group[0].end
		for _, fe := range group {
			if fe.start < dirStart {
				dirStart = fe.start
			}
			if fe.end > dirEnd {
				dirEnd = fe.end
			}
			dirRecords += uint64(fe.records)
		}
	}
	if version >= 2 {
		buf = appendU64(buf, uint64(dirStart))
		buf = appendU64(buf, uint64(dirEnd))
		buf = appendU64(buf, dirRecords)
	}
	crcAt := -1
	if version >= 3 {
		crcAt = len(buf)
		buf = appendU32(buf, 0) // checksum, patched below
	}
	entStart := len(buf)
	for _, fe := range group {
		buf = appendU64(buf, uint64(fe.offset))
		buf = appendU32(buf, fe.bytes)
		buf = appendU32(buf, fe.records)
		buf = appendU64(buf, uint64(fe.start))
		buf = appendU64(buf, uint64(fe.end))
		if version >= 3 {
			buf = appendU32(buf, fe.sum)
		}
	}
	if version >= 3 {
		sum := dirChecksum(uint32(len(group)), dirStart, dirEnd, dirRecords, buf[entStart:])
		binary.LittleEndian.PutUint32(buf[crcAt:], sum)
	}
	return buf
}

// flushGroup writes the pending directory and its frames. last marks the
// final directory (next link 0).
func (w *Writer) flushGroup(last bool) error {
	if len(w.group) == 0 {
		return nil
	}
	dirOff := w.off
	dirSize := int64(dirHeaderSize(w.version) + len(w.group)*entrySize(w.version))

	// Assign frame offsets now that the directory's size is known.
	off := dirOff + dirSize
	for i := range w.group {
		w.group[i].offset = off
		off += int64(w.group[i].bytes)
	}
	next := off
	if last {
		next = 0
	}
	prev := w.prevDirOff
	if prev < 0 {
		prev = 0
	}

	db := getBuf()
	buf := *db
	defer func() { *db = buf[:0]; putBuf(db) }()
	buf = appendDir(buf, w.version, prev, next, w.group)
	buf = append(buf, w.groupBytes...)
	if _, err := w.ws.Write(buf); err != nil {
		w.err = fmt.Errorf("interval: writing frame directory: %w", err)
		return w.err
	}
	w.off = dirOff + int64(len(buf))
	// The previous directory's next link already equals dirOff: it was
	// written speculatively as the offset just past that directory's
	// frames, and flushGroup is the only writer of file bytes. Nothing
	// to rewrite — the steady state is pure append (always-valid
	// prefix; Close patches only the final link).
	w.prevDirOff = dirOff
	w.patchOff = dirOff + 4 + 4 + 8 // next field within the dir header
	w.sealedFrames += len(w.group)
	w.sealedDirs++
	for _, fe := range w.group {
		if fe.end > w.sealedEnd {
			w.sealedEnd = fe.end
		}
	}
	w.group = w.group[:0]
	w.groupBytes = w.groupBytes[:0]
	w.notifySeal(last)
	return nil
}

// notifySeal reports the current valid prefix to the OnSeal callback.
func (w *Writer) notifySeal(final bool) {
	if w.opts.OnSeal == nil {
		return
	}
	w.opts.OnSeal(SealInfo{
		Size:   w.off,
		Frames: w.sealedFrames,
		Dirs:   w.sealedDirs,
		End:    w.sealedEnd,
		Final:  final,
	})
}

// SealedSize returns the length of the valid file prefix: the header
// plus every directory flushed so far. Opening the file with
// WithLiveTail(SealedSize()) observes exactly the sealed frames. Not
// synchronized — call from the writing goroutine or via OnSeal.
func (w *Writer) SealedSize() int64 { return w.off }

// SealedFrames returns how many frames have been flushed into
// directories so far (buffered, unflushed frames are not counted).
func (w *Writer) SealedFrames() int { return w.sealedFrames }

func (w *Writer) patchU64(off int64, v uint64) error {
	if _, err := w.ws.Seek(off, io.SeekStart); err != nil {
		w.err = err
		return err
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	if _, err := w.ws.Write(b[:]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.ws.Seek(w.off, io.SeekStart); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Close flushes the final frame and directory. A file with no records
// gets one empty directory so readers always find a first directory.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	defer w.releaseBufs()
	if w.err != nil {
		return w.err
	}
	w.closeFrame()
	if len(w.group) > 0 {
		if err := w.flushGroup(true); err != nil {
			return err
		}
	} else {
		// The final directory's speculative next link points just past
		// the end of the file; rewriting it to 0 is the only in-place
		// patch the writer ever performs (live readers treat a next link
		// equal to the sealed size the same way, so a crash before this
		// patch loses nothing).
		if w.patchOff >= 0 {
			if err := w.patchU64(w.patchOff, 0); err != nil {
				return err
			}
			w.notifySeal(true)
		} else {
			// Empty file: one directory with no entries (and, for v2+,
			// zero aggregate bounds) so readers always find a directory.
			buf := appendDir(nil, w.version, 0, 0, nil)
			if _, err := w.ws.Write(buf); err != nil {
				w.err = err
				return w.err
			}
			w.off += int64(len(buf))
			w.sealedDirs++
			w.notifySeal(true)
		}
	}
	return w.err
}

// releaseBufs returns the pooled frame batch and group buffer once the
// writer is closed; the grown backing arrays go back to their pools for
// the next writer.
func (w *Writer) releaseBufs() {
	if w.fb != nil {
		batchPool.Put(w.fb)
		w.fb = nil
	}
	if w.groupPB != nil {
		*w.groupPB = w.groupBytes[:0]
		putBuf(w.groupPB)
		w.groupPB, w.groupBytes = nil, nil
	}
}

// CreateFile opens path and returns a Writer on it plus the file handle
// for closing.
func CreateFile(path string, hdr Header, opts WriterOptions) (*Writer, *os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w, err := NewWriter(f, hdr, opts)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, f, nil
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
