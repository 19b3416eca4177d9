package main

import (
	"encoding/binary"
	"fmt"
)

// The raw trace file layout is the documented on-disk format
// (FORMATS.md §1): a 24-byte header, then records of
// hookword u32 | tid u32 | time i64 | nargs × u64 | [u16 len, bytes].
// The ingest driver needs only the record framing and two event types.
const (
	rawHeaderSize   = 24
	rawRecHeader    = 16
	rawStrBit       = 1 << 15
	evThreadInfo    = 0x0103
	evMarkerDefine  = 0x0401
	ingestBatchSize = 64 << 10
)

// cutBatches splits one node's raw stream the way the ingest contract
// wants it posted: batch 0 is the preamble — the header plus whole
// records through the last thread-info or marker definition — and the
// rest goes in 64 KiB pieces (later batches may split records).
func cutBatches(raw []byte) ([][]byte, error) {
	if len(raw) < rawHeaderSize || string(raw[:6]) != "UTRAW1" {
		return nil, fmt.Errorf("not a raw trace file")
	}
	off, cut := rawHeaderSize, rawHeaderSize
	for off < len(raw) {
		if len(raw)-off < rawRecHeader {
			return nil, fmt.Errorf("truncated record header at %d", off)
		}
		hook := binary.LittleEndian.Uint32(raw[off:])
		n := rawRecHeader + 8*int(hook&0xfff)
		if hook&rawStrBit != 0 {
			if len(raw)-off < n+2 {
				return nil, fmt.Errorf("truncated string length at %d", off)
			}
			n += 2 + int(binary.LittleEndian.Uint16(raw[off+n:]))
		}
		if len(raw)-off < n {
			return nil, fmt.Errorf("truncated record at %d", off)
		}
		off += n
		if t := hook >> 16; t == evThreadInfo || t == evMarkerDefine {
			cut = off
		}
	}
	batches := [][]byte{raw[:cut]}
	for rest := raw[cut:]; len(rest) > 0; {
		c := min(ingestBatchSize, len(rest))
		batches, rest = append(batches, rest[:c]), rest[c:]
	}
	return batches, nil
}
