// Package slog implements the SLOG (scalable log) file format of the
// paper's §4: the format consumed by the Jumpshot-style viewer. An SLOG
// file divides the run's time into frames with a time-based frame index
// (so the viewer can locate the frame containing any instant), adds
// pseudo-interval records to each frame supplying the data that was
// logged outside the frame but is needed to draw it (enclosing states,
// message arrows that span frames), and carries a preview histogram —
// state counters with proportional allocation of durations to a fixed
// number of time bins — that lets the viewer draw the whole run at once.
package slog

import (
	"encoding/binary"
	"fmt"
	"slices"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
)

const (
	slogMagic = "UTESLOG1"
	// Record kinds within a frame.
	kindInterval    = 1
	kindPseudo      = 2
	kindArrow       = 3
	kindPseudoArrow = 4

	arrowPayloadSize = 8 + 8 + 2 + 2 + 2 + 2 + 8 + 4 + 8
)

// Arrow is one message arrow: it connects the start of a send interval
// to the end of the matching receive interval, matched by the per-pair
// sequence numbers the tracing library plants.
type Arrow struct {
	SendTime  clock.Time // start of the send interval
	RecvTime  clock.Time // end of the receive interval
	SrcNode   uint16
	SrcThread uint16
	DstNode   uint16
	DstThread uint16
	Bytes     uint64
	Tag       uint32
	Seqno     uint64
}

// appendArrow appends one frame record holding a: kind, payload length,
// payload.
func appendArrow(dst []byte, kind byte, a *Arrow) []byte {
	var rec [3 + arrowPayloadSize]byte
	rec[0] = kind
	binary.LittleEndian.PutUint16(rec[1:], arrowPayloadSize)
	b := rec[3:]
	binary.LittleEndian.PutUint64(b[0:], uint64(a.SendTime))
	binary.LittleEndian.PutUint64(b[8:], uint64(a.RecvTime))
	binary.LittleEndian.PutUint16(b[16:], a.SrcNode)
	binary.LittleEndian.PutUint16(b[18:], a.SrcThread)
	binary.LittleEndian.PutUint16(b[20:], a.DstNode)
	binary.LittleEndian.PutUint16(b[22:], a.DstThread)
	binary.LittleEndian.PutUint64(b[24:], a.Bytes)
	binary.LittleEndian.PutUint32(b[32:], a.Tag)
	binary.LittleEndian.PutUint64(b[36:], a.Seqno)
	return append(dst, rec[:]...)
}

func decodeArrow(b []byte) (Arrow, error) {
	if len(b) < arrowPayloadSize {
		return Arrow{}, fmt.Errorf("slog: truncated arrow (%d bytes)", len(b))
	}
	return Arrow{
		SendTime:  clock.Time(binary.LittleEndian.Uint64(b[0:])),
		RecvTime:  clock.Time(binary.LittleEndian.Uint64(b[8:])),
		SrcNode:   binary.LittleEndian.Uint16(b[16:]),
		SrcThread: binary.LittleEndian.Uint16(b[18:]),
		DstNode:   binary.LittleEndian.Uint16(b[20:]),
		DstThread: binary.LittleEndian.Uint16(b[22:]),
		Bytes:     binary.LittleEndian.Uint64(b[24:]),
		Tag:       binary.LittleEndian.Uint32(b[32:]),
		Seqno:     binary.LittleEndian.Uint64(b[36:]),
	}, nil
}

// FrameData is one decoded frame.
type FrameData struct {
	Intervals []interval.Record // records whose end lies in this frame
	Pseudo    []interval.Record // zero-duration continuations for enclosing states
	Arrows    []Arrow           // arrows received in this frame
	Crossing  []Arrow           // pseudo copies of arrows spanning this frame
}

// FrameEntry locates one frame in the file and in time.
type FrameEntry struct {
	Offset  int64
	Bytes   uint32
	Records uint32
	Start   clock.Time
	End     clock.Time
}

// Preview is the whole-run summary drawn before any frame is fetched
// (paper Figure 7, the smaller window).
type Preview struct {
	TStart, TEnd clock.Time
	States       []events.Type
	// Dur[s][b] is the total duration of state States[s] allocated
	// proportionally to time bin b.
	Dur [][]clock.Time
	// Count[s] is the total number of state s intervals (counting calls,
	// not pieces: records with a begin edge).
	Count []int64
}

// BinBounds returns the time range [lo, hi) of bin b, from the bin ruler
// (interval.BinEdge) the preview was summed by.
func (p *Preview) BinBounds(b int) (clock.Time, clock.Time) {
	n := len(p.Dur[0])
	return interval.BinEdge(p.TStart, p.TEnd, n, b), interval.BinEdge(p.TStart, p.TEnd, n, b+1)
}

// stateTable maps a record type to its preview row, -1 for types the
// preview does not chart: a dense table over the type codes, consulted
// once per record.
type stateTable []int8

func stateIndex() stateTable {
	t := make(stateTable, slices.Max(events.StateTypes)+1)
	for i := range t {
		t[i] = -1
	}
	for i, ty := range events.StateTypes {
		t[ty] = int8(i)
	}
	return t
}

func (t stateTable) of(ty events.Type) int {
	if int(ty) < len(t) {
		return int(t[ty])
	}
	return -1
}
