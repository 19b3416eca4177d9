package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"tracefw/internal/events"
)

// FileInfo is the decoded raw trace file header.
type FileInfo struct {
	Node    int
	NumCPUs int
	Enabled events.Mask
}

// Reader iterates over the records of one raw trace file.
type Reader struct {
	Info FileInfo

	r      io.Reader
	closer io.Closer
	buf    []byte // staging buffer for one record's byte image
}

// NewReader parses the raw trace header from r and returns a record
// iterator. An in-memory source (*bytes.Reader) is read directly;
// anything else goes through a 64 KiB read buffer.
func NewReader(r io.Reader) (*Reader, error) {
	br := r
	if _, inMemory := r.(*bytes.Reader); !inMemory {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	var hdr [rawHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
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
		r: br,
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

// Next returns the next record, or io.EOF after the last one.
func (rd *Reader) Next() (Record, error) {
	// Assemble the record's contiguous byte image in the reused staging
	// buffer and hand it to Decode (which copies what it keeps), so the
	// two code paths cannot diverge.
	img, err := rd.fill(0, recHeaderSize)
	if err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("trace: reading record header: %w", err)
	}
	hook := binary.LittleEndian.Uint32(img)
	rest := 8 * int(hook&0xfff)
	hasStr := hook&strBit != 0
	if hasStr {
		rest += 2
	}
	if img, err = rd.fill(len(img), rest); err != nil {
		return Record{}, fmt.Errorf("trace: reading record body: %w", err)
	}
	if hasStr {
		sl := int(binary.LittleEndian.Uint16(img[len(img)-2:]))
		if img, err = rd.fill(len(img), sl); err != nil {
			return Record{}, fmt.Errorf("trace: reading string payload: %w", err)
		}
	}
	rec, _, err := Decode(img)
	return rec, err
}

// fill reads n more bytes after the first have bytes of the staging
// buffer and returns the have+n byte image.
func (rd *Reader) fill(have, n int) ([]byte, error) {
	if cap(rd.buf) < have+n {
		rd.buf = append(make([]byte, 0, have+n+256), rd.buf[:have]...)
	}
	rd.buf = rd.buf[:have+n]
	_, err := io.ReadFull(rd.r, rd.buf[have:])
	return rd.buf, err
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
	if rd.closer != nil {
		c := rd.closer
		rd.closer = nil
		return c.Close()
	}
	return nil
}
