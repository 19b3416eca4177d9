package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"tracefw/internal/events"
)

// FileInfo is the decoded raw trace file header.
type FileInfo struct {
	Node    int
	NumCPUs int
	Enabled events.Mask
}

// readWindow is the size of a Reader's window, and so of the slabs it
// asks its source for, unless a single record outgrows it.
const readWindow = 64 << 10

// windows recycles readWindow-sized windows: a reader takes one at its
// first record and gives it back when its source is spent, so a
// conversion of many small traces (two passes over each node of a wide
// sweep cell) does not allocate and zero 64 KiB per pass.
var windows = sync.Pool{New: func() any { return new([readWindow]byte) }}

// Reader iterates over the records of one raw trace file. It owns one
// read window: the source is asked to fill whatever room the window has,
// a record's extent is found from its hookword, and the record is
// decoded from the window where it lies; the unread tail is slid to the
// front and the window refilled only when it runs short.
type Reader struct {
	Info FileInfo

	src    io.Reader
	closer io.Closer
	win    []byte // the window; win[pos:end] is read from src and not yet consumed
	pos    int
	end    int
	err    error  // what src last returned; reported once the window runs short
	cur    []byte // image of the record the last step stopped on (aliases win)
	rec    Record // Next's in-place record
}

// NewReader parses the raw trace header from r and returns a record
// iterator. The window is taken at the first record, so a reader opened
// only for its Info costs nothing more than the header.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [rawHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading raw header: %w", err)
	}
	if string(hdr[:8]) != rawMagic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:8])
	}
	rd := &Reader{
		Info: FileInfo{
			Node:    int(binary.LittleEndian.Uint32(hdr[8:])),
			NumCPUs: int(binary.LittleEndian.Uint32(hdr[12:])),
			Enabled: events.Mask(binary.LittleEndian.Uint32(hdr[16:])),
		},
		src: r,
	}
	if c, ok := r.(io.Closer); ok {
		rd.closer = c
	}
	return rd, nil
}

// OpenFile opens the named raw trace file.
func OpenFile(name string) (*Reader, error) {
	fp, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	rd, err := NewReader(fp)
	if err != nil {
		fp.Close()
		return nil, err
	}
	return rd, nil
}

// step advances over the next record and returns its image, which
// aliases the window and is valid until the next step. It returns io.EOF
// only when the source ends on a record boundary; an end inside a record
// is io.ErrUnexpectedEOF wrapped with the part that was cut.
func (rd *Reader) step() ([]byte, error) {
	for {
		b := rd.win[rd.pos:rd.end]
		n, part := RecordSize(b)
		if len(b) >= n {
			rd.pos += n
			rd.cur = b[:n]
			return rd.cur, nil
		}
		if err := rd.more(n); err != nil {
			atBoundary := rd.pos == rd.end
			rd.release()
			if err == io.EOF {
				if atBoundary {
					return nil, io.EOF
				}
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("trace: reading %s: %w", part, err)
		}
	}
}

// more slides the unread tail to the front of the window and reads from
// the source until at least n unread bytes are there, growing the window
// for a record that outgrows it. It returns the source's error when the
// source ends first.
func (rd *Reader) more(n int) error {
	if rd.err != nil {
		return rd.err // the source is spent: what is in the window is all there is
	}
	switch {
	case rd.win == nil:
		rd.win = windows.Get().(*[readWindow]byte)[:]
	case n > len(rd.win):
		grown := make([]byte, n)
		end := copy(grown, rd.win[rd.pos:rd.end])
		rd.release()
		rd.win, rd.end = grown, end
	}
	rd.end = copy(rd.win, rd.win[rd.pos:rd.end])
	rd.pos = 0
	for empty := 0; rd.end < n; {
		if rd.err != nil {
			return rd.err
		}
		var m int
		m, rd.err = rd.src.Read(rd.win[rd.end:])
		rd.end += m
		if m == 0 && rd.err == nil {
			if empty++; empty == 100 {
				rd.err = io.ErrNoProgress
			}
		}
	}
	return nil
}

// release gives the window back once nothing more will be decoded from
// it (a window grown for an outsized record is left to the collector).
func (rd *Reader) release() {
	if len(rd.win) == readWindow {
		windows.Put((*[readWindow]byte)(rd.win))
	}
	rd.win, rd.cur = nil, nil
	rd.pos, rd.end = 0, 0
}

// NextInto decodes the next record into rec, in place: rec.Args is
// refilled reusing its capacity and is valid until the next call on the
// same rec (see DecodeInto). It returns io.EOF after the last record.
func (rd *Reader) NextInto(rec *Record) error {
	img, err := rd.step()
	if err != nil {
		return err
	}
	_, err = DecodeInto(rec, img)
	return err
}

// NextHeader is the header-only step: it fills rec's Type, Edge, TID and
// Time and leaves its payload empty. The payload is bounds-checked (a
// record cut short fails here exactly as in NextInto) and skipped; a
// caller that wants it after seeing the type calls Payload.
func (rd *Reader) NextHeader(rec *Record) error {
	img, err := rd.step()
	if err != nil {
		return err
	}
	decodeHeader(rec, img)
	return nil
}

// Payload decodes the whole of the record the last NextHeader stopped
// on into rec, as NextInto would have.
func (rd *Reader) Payload(rec *Record) error {
	_, err := DecodeInto(rec, rd.cur)
	return err
}

// Next returns the next record, or io.EOF after the last one. It is the
// owning form — the in-place step plus one copy of Args — for callers
// that keep records.
func (rd *Reader) Next() (Record, error) {
	if err := rd.NextInto(&rd.rec); err != nil {
		return Record{}, err
	}
	rec := rd.rec
	rec.Args = append([]uint64(nil), rec.Args...)
	return rec, nil
}

// ReadAll drains the reader, returning every remaining record.
func (rd *Reader) ReadAll() ([]Record, error) {
	var recs []Record
	for {
		r, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, r)
	}
}

// Close closes the underlying file if the reader owns one.
func (rd *Reader) Close() error {
	rd.release()
	if rd.closer != nil {
		c := rd.closer
		rd.closer = nil
		return c.Close()
	}
	return nil
}
