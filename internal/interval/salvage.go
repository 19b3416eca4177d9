package interval

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"slices"
	"sort"

	"tracefw/internal/clock"
)

// ByteRange is a half-open byte range [Off, Off+Len) of the damaged
// file that salvage could not recover.
type ByteRange struct {
	Off, Len int64
}

// SalvageReport summarizes a best-effort recovery pass.
type SalvageReport struct {
	HeaderVersion uint32
	// DirsGood counts directories reached intact through the link
	// chain; DirsResynced counts directories recovered by scanning the
	// file after a broken link; DirsDropped counts positions where a
	// directory should have been but none could be read.
	DirsGood     int
	DirsResynced int
	DirsDropped  int
	// FramesRecovered/FramesDropped count directory entries whose
	// frames passed/failed the salvage checks; RecordsRecovered sums
	// the recovered frames' record counts.
	FramesRecovered  int
	FramesDropped    int
	RecordsRecovered int64
	// LostRanges lists the byte ranges salvage had to give up on
	// (merged and sorted); BytesLost is their total size.
	LostRanges []ByteRange
	BytesLost  int64
	// FirstGood/LastGood bound the recovered frames' time range; both
	// are zero when nothing was recovered.
	FirstGood, LastGood clock.Time
	// Truncated reports that the file ended before its directory chain
	// did (the signature of a killed writer or a cut-short copy).
	Truncated bool
}

// Clean reports whether salvage recovered the file without losing
// anything.
func (r *SalvageReport) Clean() bool {
	return r.DirsResynced == 0 && r.DirsDropped == 0 && r.FramesDropped == 0 &&
		len(r.LostRanges) == 0 && !r.Truncated
}

// SalvageResult carries the recovered frames (in file order, which for
// an undamaged region is end-time order) and the report.
type SalvageResult struct {
	Frames []FrameEntry
	Report SalvageReport
}

// Salvage walks the frame directories tolerantly and returns every
// frame that provably survived: its directory entry passes all bounds
// checks, its payload decodes completely, and the decoded records agree
// with the entry's record count and time bounds (plus, on version-3
// files, the stored CRC-32C checksums). When a directory link is broken
// Salvage re-synchronizes by scanning forward for the next plausible
// directory header — on version-3 files by its magic word, on older
// versions by structural plausibility. It never returns an error and
// never panics, and it never emits a frame whose bytes it could not
// fully verify, so no record absent from the undamaged file can appear
// in the result.
func (f *File) Salvage() (res *SalvageResult) {
	res = &SalvageResult{}
	rep := &res.Report
	rep.HeaderVersion = f.Header.HeaderVersion

	seenFrame := make(map[int64]bool)
	seenDir := make(map[int64]bool)
	// Coverage tracking drives both re-synchronization and loss
	// reporting. strictCov holds bytes accounted for by evidence that
	// cannot be faked by a misparse: payload-verified frames, directory
	// metadata that is either checksummed (v3) or had every single entry
	// verify, the empty directory an empty file legitimately starts
	// with, and regions a resync sweep already examined. Every resync
	// starts at the earliest gap in strictCov — never at a (possibly
	// far-forward) corrupt link target — so intact directories are never
	// skipped no matter how scattered the verified evidence is. looseCov
	// additionally counts the metadata of every accepted directory and
	// exists only for the report: its complement is what was lost.
	var strictCov, looseCov []ByteRange
	cover := func(cov *[]ByteRange, off, end int64) {
		if end > off {
			*cov = append(*cov, ByteRange{Off: off, Len: end - off})
		}
	}

	// Salvage is a last line of defense: a defect in it must degrade to
	// "nothing more recovered", never take down the caller.
	defer func() {
		if r := recover(); r != nil {
			rep.Truncated = true
			res.finish(f, looseCov)
		}
	}()

	// gap returns the earliest byte of the body not in strictCov, or -1
	// when the whole body is accounted for.
	gap := func() int64 {
		strictCov = mergeRanges(strictCov)
		at := f.FirstDir
		for _, r := range strictCov {
			if r.Off > at {
				break
			}
			if e := r.Off + r.Len; e > at {
				at = e
			}
		}
		if at >= f.Size {
			return -1
		}
		return at
	}
	// resync recovers from a broken chain: it sweeps the earliest
	// unaccounted bytes for the next plausible directory and reports
	// whether the walk can continue. Swept regions join strictCov and
	// already-visited directories are skipped, so repeated resyncs
	// always make forward progress.
	resync := func() (int64, bool) {
		g := gap()
		if g < 0 {
			return 0, false
		}
		cand := f.resyncDir(g, seenDir)
		if cand < 0 {
			cover(&strictCov, g, f.Size)
			return 0, false
		}
		cover(&strictCov, g, cand)
		return cand, true
	}

	pos := f.FirstDir
	viaLink := true
	for {
		bad := pos < f.FirstDir || pos >= f.Size || seenDir[pos]
		var d *rawDir
		if !bad {
			var ok bool
			d, ok = f.salvageDir(pos)
			bad = !ok
		}
		if bad {
			// The chain points at something that is not a directory (out
			// of bounds, already visited, or unparseable): sweep the
			// earliest unaccounted bytes instead.
			rep.DirsDropped++
			next, ok := resync()
			if !ok {
				rep.Truncated = true
				break
			}
			pos = next
			viaLink = false
			continue
		}
		seenDir[pos] = true
		if viaLink && d.hdrOK {
			rep.DirsGood++
		} else {
			rep.DirsResynced++
		}
		allVerified := len(d.entries) == d.n
		for _, fe := range d.entries {
			// Dedup on recovery, not on sight: a misparsed entry that
			// happens to carry a real frame's offset but fails
			// verification must not block the genuine entry later.
			if seenFrame[fe.Offset] {
				continue
			}
			if f.salvageFrame(fe) {
				seenFrame[fe.Offset] = true
				res.Frames = append(res.Frames, fe)
				rep.FramesRecovered++
				rep.RecordsRecovered += int64(fe.Records)
				cover(&strictCov, fe.Offset, fe.Offset+int64(fe.Bytes))
				cover(&looseCov, fe.Offset, fe.Offset+int64(fe.Bytes))
			} else {
				rep.FramesDropped++
				allVerified = false
			}
		}
		rep.FramesDropped += d.entriesDropped
		cover(&looseCov, d.off, d.tableEnd)
		if (f.Header.HeaderVersion >= 3 && d.hdrOK) ||
			(d.n == 0 && d.off == f.FirstDir) ||
			(d.n > 0 && allVerified) {
			cover(&strictCov, d.off, d.tableEnd)
		}
		if d.next == 0 {
			// A terminal directory accounts for the rest of the file.
			// Unaccounted bytes mean the chain was cut or overwritten —
			// sweep them for surviving directories instead of trusting
			// the zero link.
			next, ok := resync()
			if !ok {
				break // everything accounted, or the sweep came up empty
			}
			rep.DirsDropped++
			pos = next
			viaLink = false
			continue
		}
		if d.next <= pos {
			// Backward or self link: corrupt. Sweep forward past this
			// directory rather than looping.
			rep.DirsDropped++
			next, ok := resync()
			if !ok {
				rep.Truncated = true
				break
			}
			pos = next
			viaLink = false
			continue
		}
		pos = d.next
		viaLink = true
	}
	res.finish(f, looseCov)
	return res
}

// finish derives the aggregate report fields from the recovered frames
// and the coverage: everything in the body not covered by a recovered
// frame or accepted directory metadata was lost.
func (res *SalvageResult) finish(f *File, cov []ByteRange) {
	rep := &res.Report
	for i, fe := range res.Frames {
		if i == 0 || fe.Start < rep.FirstGood {
			rep.FirstGood = fe.Start
		}
		if i == 0 || fe.End > rep.LastGood {
			rep.LastGood = fe.End
		}
	}
	cov = mergeRanges(cov)
	var lost []ByteRange
	at := f.FirstDir
	for _, r := range cov {
		if r.Off > at {
			lost = append(lost, ByteRange{Off: at, Len: r.Off - at})
		}
		if e := r.Off + r.Len; e > at {
			at = e
		}
	}
	if at < f.Size {
		lost = append(lost, ByteRange{Off: at, Len: f.Size - at})
	}
	rep.LostRanges = lost
	rep.BytesLost = 0
	for _, r := range lost {
		rep.BytesLost += r.Len
	}
}

// mergeRanges sorts ranges by offset and coalesces overlaps in place.
func mergeRanges(rs []ByteRange) []ByteRange {
	if len(rs) < 2 {
		return rs
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Off < rs[j].Off })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Off <= last.Off+last.Len {
			if e := r.Off + r.Len; e > last.Off+last.Len {
				last.Len = e - last.Off
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}

// rawDir is a tolerantly-read directory: header fields plus the entries
// that individually passed the bounds checks.
type rawDir struct {
	off        int64
	n          int
	prev, next int64
	hdrOK      bool // v3 metadata checksum verified (vacuously true on v1/v2)
	entries    []FrameEntry
	// entriesDropped counts entries rejected by the per-entry bounds
	// checks before any frame bytes were read.
	entriesDropped int
	// tableEnd is the offset just past the entry table.
	tableEnd int64
}

// salvageDir reads the directory at off with only the checks needed to
// trust its shape, not its content: header bounds and, on version 3,
// the directory magic. Link fields are parsed but deliberately not
// validated — a broken link is the walk's problem, never a reason to
// drop this directory's frames. An entry table cut short by truncation
// or claiming more entries than fit is clamped to its readable prefix;
// entries failing their own bounds checks (or sitting in unreadable
// sectors) are dropped individually; a failed v3 metadata checksum
// demotes the directory to hdrOK=false but still yields its plausible
// entries (each frame is verified against its own payload before being
// accepted).
func (f *File) salvageDir(off int64) (*rawDir, bool) {
	ver := f.Header.HeaderVersion
	hdrSize := int64(dirHeaderSize(ver))
	esz := int64(entrySize(ver))
	if off < 0 || off+hdrSize > f.Size {
		return nil, false
	}
	var hb [dirHeaderV3Size]byte
	h := hb[:hdrSize]
	if !f.readRaw(off, h) {
		return nil, false
	}
	if ver >= 3 && binary.LittleEndian.Uint32(h[4:]) != dirMagic {
		return nil, false
	}
	d := &rawDir{
		off:  off,
		n:    int(binary.LittleEndian.Uint32(h[0:])),
		prev: int64(binary.LittleEndian.Uint64(h[8:])),
		next: int64(binary.LittleEndian.Uint64(h[16:])),
	}
	if d.n < 0 {
		return nil, false
	}
	nRead := d.n
	partial := false
	if maxN := (f.Size - off - hdrSize) / esz; int64(nRead) > maxN {
		// The claimed table runs past EOF (truncation, or a corrupt
		// count): salvage its readable prefix.
		nRead = int(maxN)
		partial = true
	}
	d.tableEnd = off + hdrSize + int64(nRead)*esz
	d.hdrOK = !partial
	// A corrupt count can claim billions of entries; report at most as
	// many dropped frames as the file could physically hold.
	d.entriesDropped = d.n - nRead
	if most := int(f.Size / minRecordBytes(ver)); d.entriesDropped > most {
		d.entriesDropped = most
	}
	if nRead == 0 {
		return d, true
	}
	eb := make([]byte, int64(nRead)*esz)
	ebOK := f.readRaw(off+hdrSize, eb)
	var entryOK []bool
	if !ebOK {
		// A bad sector somewhere in the table: fall back to per-entry
		// reads so entries clear of the damage still salvage.
		entryOK = make([]bool, nRead)
		for i := range entryOK {
			entryOK[i] = f.readRaw(off+hdrSize+int64(i)*esz, eb[int64(i)*esz:int64(i+1)*esz])
		}
	}
	if ver >= 3 {
		if !ebOK || partial {
			d.hdrOK = false
		} else {
			start := clock.Time(binary.LittleEndian.Uint64(h[24:]))
			end := clock.Time(binary.LittleEndian.Uint64(h[32:]))
			records := binary.LittleEndian.Uint64(h[40:])
			sum := binary.LittleEndian.Uint32(h[48:])
			d.hdrOK = dirChecksum(uint32(d.n), start, end, records, eb) == sum
		}
	}
	// Frames always sit past their own directory's header; the exact
	// table end is not trusted here because the entry count itself may
	// be corrupt — per-frame payload verification carries the burden.
	frameFloor := off + hdrSize
	for i := 0; i < nRead; i++ {
		if entryOK != nil && !entryOK[i] {
			d.entriesDropped++
			continue
		}
		b := eb[int64(i)*esz:]
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
		// A frame sits inside the file after its directory header, holds
		// at least one record, and cannot claim more records than fit in
		// its bytes.
		if fe.Offset < frameFloor || int64(fe.Bytes) > f.Size-fe.Offset ||
			fe.Records < 1 || int64(fe.Records)*minRecordBytes(ver) > int64(fe.Bytes) ||
			fe.Start > fe.End {
			d.entriesDropped++
			continue
		}
		d.entries = append(d.entries, fe)
	}
	return d, true
}

// salvageFrame verifies a frame's bytes against its directory entry:
// the payload checksum on version 3 and above, then a full decode
// cross-checked against the entry's record count and time bounds, with
// record end times nondecreasing inside the frame. On v4 frames the
// decode is the compact varint stream (dictionary, base start, then
// records): the frame is recovered only if that stream decodes exactly
// to the entry's record count with no trailing bytes. Only frames
// passing every check are recovered, which is what keeps salvage from
// ever inventing a record.
func (f *File) salvageFrame(fe FrameEntry) bool {
	buf := make([]byte, fe.Bytes)
	if !f.readRaw(fe.Offset, buf) {
		return false
	}
	if f.Header.HeaderVersion >= 3 && crc32.Checksum(buf, crcTable) != fe.Sum {
		return false
	}
	b := batchPool.Get().(*Batch)
	defer batchPool.Put(b)
	if b.Decode(f.Header.HeaderVersion, fe, buf) != nil || b.N == 0 {
		return false
	}
	for i := 1; i < b.N; i++ {
		if b.End(i) < b.End(i-1) {
			return false
		}
	}
	// Ends are nondecreasing, so the last row carries the frame's end.
	return slices.Min(b.Start) == fe.Start && b.End(b.N-1) == fe.End
}

// resyncDir scans forward from off for the next plausible directory
// header, returning its offset or -1. Version 3 looks for the
// directory magic; older versions fall back on layout invariants (a
// sane entry count whose first entry points exactly past the entry
// table, backward prev and forward next links). The scan reads the
// file in chunks so a multi-gigabyte recovery does not buffer the
// whole tail.
func (f *File) resyncDir(off int64, skip map[int64]bool) int64 {
	ver := f.Header.HeaderVersion
	hdrSize := int64(dirHeaderSize(ver))
	const chunk = 1 << 20
	buf := make([]byte, 0, chunk+dirHeaderV3Size)
	for base := off; base+hdrSize <= f.Size; {
		want := int64(chunk) + hdrSize
		if base+want > f.Size {
			want = f.Size - base
		}
		buf = buf[:want]
		f.readRawSparse(base, buf)
		for i := int64(0); i+hdrSize <= int64(len(buf)); i++ {
			cand := base + i
			if skip[cand] {
				continue
			}
			if ver >= 3 {
				if binary.LittleEndian.Uint32(buf[i+4:]) != dirMagic {
					continue
				}
			} else if !f.plausibleDirHeader(cand, buf[i:i+hdrSize]) {
				continue
			}
			if _, ok := f.salvageDir(cand); ok {
				return cand
			}
		}
		base += int64(chunk)
	}
	return -1
}

// plausibleDirHeader applies the v1/v2 structural heuristics to a
// candidate directory header at cand: non-zero sane entry count, prev
// strictly behind, next zero or strictly ahead, and (v2) in-bounds
// aggregates. The caller re-validates the winner with salvageDir, which
// additionally requires the first entry to point exactly past the entry
// table — the layout every writer of this format produces.
func (f *File) plausibleDirHeader(cand int64, h []byte) bool {
	ver := f.Header.HeaderVersion
	hdrSize := int64(dirHeaderSize(ver))
	esz := int64(entrySize(ver))
	n := int64(binary.LittleEndian.Uint32(h[0:]))
	if n < 1 || cand+hdrSize+n*esz+n*minFramedRecord > f.Size {
		return false
	}
	prev := int64(binary.LittleEndian.Uint64(h[8:]))
	next := int64(binary.LittleEndian.Uint64(h[16:]))
	if prev < 0 || prev >= cand {
		return false
	}
	if next != 0 && (next <= cand || next > f.Size) {
		return false
	}
	if ver >= 2 {
		start := int64(binary.LittleEndian.Uint64(h[24:]))
		end := int64(binary.LittleEndian.Uint64(h[32:]))
		records := int64(binary.LittleEndian.Uint64(h[40:]))
		if start > end || records < n || records*minFramedRecord > f.Size {
			return false
		}
	}
	// The entry table must be followed immediately by its first frame.
	var e0 [8]byte
	if !f.readRaw(cand+hdrSize, e0[:]) {
		return false
	}
	return int64(binary.LittleEndian.Uint64(e0[:])) == cand+hdrSize+n*esz
}

// readRaw reads len(p) bytes at off, reporting success instead of an
// error — salvage treats any read failure (truncation, bad sector) as
// damage.
func (f *File) readRaw(off int64, p []byte) bool {
	return off >= 0 && off+int64(len(p)) <= f.Size && f.readAt(p, off) == nil
}

// readRawSparse fills p from off, bisecting around media errors and
// zeroing only the bytes that genuinely cannot be read. Zeroed bytes
// can never look like a directory header (no magic on v3, a zero entry
// count on v1/v2), so the resync scan stays byte-precise around bad
// sectors; any candidate it does surface is re-read and re-validated by
// salvageDir.
func (f *File) readRawSparse(off int64, p []byte) {
	if len(p) == 0 || f.readRaw(off, p) {
		return
	}
	if len(p) == 1 {
		p[0] = 0
		return
	}
	mid := len(p) / 2
	f.readRawSparse(off, p[:mid])
	f.readRawSparse(off+int64(mid), p[mid:])
}

// RepairReport summarizes a Repair pass.
type RepairReport struct {
	FramesWritten  int
	FramesSkipped  int // salvaged frames dropped to preserve end-time order
	RecordsWritten int64
}

// Repair writes the salvaged frames to dst as a fresh, fully valid
// interval file with the same header (and header version) as the
// source. Every frame is decoded and its records re-added, which
// reproduces the record content exactly at every header version, while
// directory metadata and checksums are rebuilt by the writer. Frames
// that would break the format's global end-time ordering (possible only
// when salvage had to resync around damage) are skipped and counted, as
// are frames that no longer read or decode — the file degraded between
// salvage and repair, or a bad sector fired only now.
func Repair(f *File, sv *SalvageResult, dst io.WriteSeeker, opts WriterOptions) (*RepairReport, error) {
	w, err := NewWriter(dst, f.Header, opts)
	if err != nil {
		return nil, err
	}
	rep := &RepairReport{}
	var lastEnd clock.Time
	var b Batch
	for _, fe := range sv.Frames {
		// Salvage verified intra-frame ordering: the frame's first record
		// carries its minimum end time, its last the maximum.
		if f.DecodeFrameBatch(fe, &b) != nil || b.N == 0 ||
			(rep.RecordsWritten > 0 && b.End(0) < lastEnd) {
			rep.FramesSkipped++
			continue
		}
		for i := 0; i < b.N; i++ {
			r := b.Row(i)
			if err := w.Add(&r); err != nil {
				return nil, err
			}
		}
		lastEnd = b.End(b.N - 1)
		rep.RecordsWritten += int64(b.N)
		rep.FramesWritten++
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return rep, nil
}
