// Package convert implements the paper's convert utility (§3.1): it
// turns a set of per-node raw event trace files into per-node interval
// files. A begin event is matched with its end event to create an
// interval; if other events intervene — thread dispatch events, user
// marker events, nested MPI calls — the interval is divided into
// multiple pieces typed by bebits (begin / continuation / end /
// complete). The converter also synthesizes the default Running state
// for dispatched time outside any MPI routine or marker region, carries
// global-clock pair records into the interval file for the merge
// utility, and re-assigns globally unique identifiers to user marker
// strings across all tasks.
//
// A conversion allocates nothing per event: the table pass steps over
// records by their headers (payloads decoded for thread-info and marker
// records only), the record pass loops on one trace.Record refilled in
// place and builds every outgoing piece in one converter-owned
// interval.Record. Two short lifetimes follow: a raw record's Args are
// valid for the one event call that receives them, and an emitted
// record — with its Extra and Vec, which may be those very Args — for
// the one sink call that receives it (see converter.sink). Batch and
// streaming conversion share the converter and the parse routine.
package convert

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/profile"
	"tracefw/internal/trace"
)

// MarkerRegistry assigns globally unique marker identifiers to marker
// strings across every trace file of a run. Identifiers start at 1 in
// first-seen order. The registry is safe for concurrent use; the
// parallel conversion path pre-assigns every identifier in a canonical
// order before workers start, so identifiers never depend on goroutine
// schedule.
type MarkerRegistry struct {
	mu   sync.Mutex
	ids  map[string]uint64
	strs map[uint64]string
}

// NewMarkerRegistry returns an empty registry.
func NewMarkerRegistry() *MarkerRegistry {
	return &MarkerRegistry{ids: make(map[string]uint64), strs: make(map[uint64]string)}
}

// ID returns the global identifier for a marker string, assigning the
// next one on first sight.
func (m *MarkerRegistry) ID(s string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id, ok := m.ids[s]; ok {
		return id
	}
	id := uint64(len(m.ids) + 1)
	m.ids[s] = id
	m.strs[id] = s
	return id
}

// Lookup returns the identifier already assigned to a marker string,
// without assigning one. Streaming ingest uses it to enforce the frozen
// post-barrier registry: a define for an unknown string must be
// rejected, not assigned an id the already-written header lacks.
func (m *MarkerRegistry) Lookup(s string) (uint64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id, ok := m.ids[s]
	return id, ok
}

// Len returns how many marker strings have been assigned identifiers.
func (m *MarkerRegistry) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.ids)
}

// Table returns a copy of the id → string table for interval headers.
func (m *MarkerRegistry) Table() map[uint64]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[uint64]string, len(m.strs))
	for k, v := range m.strs {
		out[k] = v
	}
	return out
}

// Options configures a conversion.
type Options struct {
	Writer interval.WriterOptions
	// Markers shares global marker identifiers across the files of one
	// run; nil creates a private registry.
	Markers *MarkerRegistry
	// Tolerant accepts traces that start mid-stream (the facility's wrap
	// mode evicts the oldest records): unmatched exits, undispatches of
	// never-dispatched threads, and marker events whose definitions were
	// evicted are skipped and counted instead of failing the conversion.
	Tolerant bool
	// Parallel bounds the worker pool of ConvertAll and ConvertBuffers:
	// 0 means runtime.GOMAXPROCS(0), 1 forces the sequential path, and
	// any value is capped by the input count. Outputs are byte-identical
	// at every setting: marker identifiers are canonicalized in
	// node-then-first-seen order before the record pass starts.
	Parallel int
	// headerMarkers, when non-nil, overrides the marker table written to
	// this file's header. ConvertAll uses it to reproduce, under any
	// worker schedule, exactly the tables a sequential node-order loop
	// of Convert calls would have written.
	headerMarkers map[uint64]string
}

// Result summarizes one converted file.
type Result struct {
	Node       int
	Events     int64 // raw event records processed
	Records    int64 // interval records emitted
	Skipped    int64 // events skipped in tolerant mode
	ClockPairs []clock.Pair
}

// openState is one entry of a thread's state stack. Only the top state
// accumulates time; the states below are suspended, their current pieces
// already emitted.
type openState struct {
	ty         events.Type
	pieces     int // pieces emitted so far
	pieceStart clock.Time
	extra      []uint64  // known extras; zero until the closing event for MPI
	vec        []uint64  // trailing vector field (final piece only)
	markerID   uint64    // task-local marker id (marker states)
	marker     [3]uint64 // backing of a marker state's extra
}

type threadState struct {
	tid        int32
	cpu        uint16
	dispatched bool
	stack      []*openState
	task       int32 // MPI task, -1 unknown/non-MPI
}

type converter struct {
	node int
	// sink receives every emitted interval record in end-time order. The
	// batch path points it at an interval.Writer's Add; the streaming
	// path (Stream) at the ingest pipeline's adjust-and-enqueue stage.
	// The record and its Extra and Vec are the converter's (out, scratch,
	// a closing state's or the raw record's words), rewritten by the next
	// event: a sink copies what it keeps before returning and may
	// scribble on the rest (Writer.Add copies into batch columns;
	// ingest's gate and merge.LiveSource.Push clone Extra and Vec).
	sink     func(*interval.Record) error
	out      interval.Record // the record being emitted
	scratch  []uint64        // extras of a piece cut before its state closes
	free     []*openState    // popped states, reused by open
	markers  *MarkerRegistry
	tolerant bool
	threads  map[int32]*threadState
	// localMarker maps (task, task-local id) -> global id.
	localMarker map[[2]int64]uint64
	lastTime    clock.Time // latest local timestamp processed
	lastEmitEnd clock.Time // end time of the last emitted record
	res         Result
}

// markerEv is one marker-relevant raw event retained by the table pass
// so the tolerant-mode placeholder markers can be discovered (and
// assigned identifiers) before the record pass runs.
type markerEv struct {
	tid     int32
	define  bool
	localID uint64
}

// tablePass holds everything the first scan of a raw trace learns: the
// node id, the thread table, the distinct marker strings in first-seen
// order, and — for tolerant conversions of wrapped traces — the
// placeholder strings the record pass will synthesize for markers whose
// define records were evicted, in first-orphan order.
type tablePass struct {
	node         int
	threads      []interval.ThreadEntry
	defines      []string
	placeholders []string
}

// scanTables performs the table pass over a raw trace (the former
// pass 1 of Convert, factored out so ConvertAll can run it for every
// input before any record pass starts).
func scanTables(src io.ReadSeeker) (*tablePass, error) {
	if _, err := src.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	rd, err := trace.NewReader(src)
	if err != nil {
		return nil, err
	}
	tp := &tablePass{node: rd.Info.Node}
	haveInfo := map[int32]bool{}
	seenTID := map[int32]bool{}
	definedStr := map[string]bool{}
	var evs []markerEv
	var rec trace.Record
	for {
		// Header-only step: of a whole trace only the few dozen
		// thread-info and marker records have a payload this pass reads.
		err := rd.NextHeader(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if rec.TID >= 0 && !seenTID[rec.TID] {
			seenTID[rec.TID] = true
		}
		switch rec.Type {
		case events.EvThreadInfo, events.EvMarkerDefine, events.EvMarkerBegin:
			if err := rd.Payload(&rec); err != nil {
				return nil, err
			}
		}
		switch rec.Type {
		case events.EvThreadInfo:
			if len(rec.Args) < 4 {
				return nil, fmt.Errorf("convert: thread-info record with %d args (want 4)", len(rec.Args))
			}
			haveInfo[rec.TID] = true
			tp.threads = append(tp.threads, interval.ThreadEntry{
				Task:   int32(uint32(rec.Args[2])),
				PID:    rec.Args[0],
				SysTID: rec.Args[1],
				Node:   uint16(tp.node),
				LTID:   uint16(rec.TID),
				Type:   uint8(rec.Args[3]),
			})
		case events.EvMarkerDefine:
			if len(rec.Args) < 1 {
				return nil, fmt.Errorf("convert: marker-define record with no args")
			}
			if !definedStr[rec.Str] {
				definedStr[rec.Str] = true
				tp.defines = append(tp.defines, rec.Str)
			}
			evs = append(evs, markerEv{tid: rec.TID, define: true, localID: rec.Args[0]})
		case events.EvMarkerBegin:
			if len(rec.Args) < 1 {
				return nil, fmt.Errorf("convert: marker-begin record with no args")
			}
			evs = append(evs, markerEv{tid: rec.TID, localID: rec.Args[0]})
		}
	}
	// Threads whose info records were evicted (wrap mode) still get a
	// table entry so views and statistics can label them.
	for tid := range seenTID {
		if !haveInfo[tid] {
			tp.threads = append(tp.threads, interval.ThreadEntry{
				Task: -1, Node: uint16(tp.node), LTID: uint16(tid), Type: events.ThreadSystem,
			})
		}
	}
	sort.Slice(tp.threads, func(i, j int) bool { return tp.threads[i].LTID < tp.threads[j].LTID })

	// Replay the marker events against the completed thread table to
	// find orphan begins, mirroring exactly how the record pass resolves
	// (task, local id): the first begin with no prior define synthesizes
	// a placeholder, later defines of the same key do not.
	taskOf := make(map[int32]int32, len(tp.threads))
	for _, te := range tp.threads {
		taskOf[int32(te.LTID)] = te.Task
	}
	defined := map[[2]int64]bool{}
	for _, ev := range evs {
		task := int64(-1)
		if t, ok := taskOf[ev.tid]; ok {
			task = int64(t)
		}
		k := [2]int64{task, int64(ev.localID)}
		if ev.define {
			defined[k] = true
		} else if !defined[k] {
			defined[k] = true
			tp.placeholders = append(tp.placeholders, placeholderName(task, ev.localID))
		}
	}
	return tp, nil
}

// placeholderName is the stable name tolerant conversions give a marker
// whose define record was evicted by the wrap-mode trace buffer.
func placeholderName(task int64, localID uint64) string {
	return fmt.Sprintf("marker#%d:%d", task, localID)
}

// Convert reads the raw trace in src (twice: a table pass and a record
// pass) and writes one interval file to dst.
func Convert(src io.ReadSeeker, dst io.WriteSeeker, opts Options) (*Result, error) {
	markers := opts.Markers
	if markers == nil {
		markers = NewMarkerRegistry()
	}
	tp, err := scanTables(src)
	if err != nil {
		return nil, err
	}
	for _, s := range tp.defines {
		markers.ID(s)
	}
	hdrMarkers := opts.headerMarkers
	if hdrMarkers == nil {
		hdrMarkers = markers.Table()
	}
	return convertRecords(src, dst, opts, tp, markers, hdrMarkers)
}

// convertRecords is the record pass: it writes the interval-file header
// from the table pass's results and converts every raw event. markers
// must already hold identifiers for all of tp's define strings (and, in
// tolerant mode under ConvertAll, its placeholder strings too).
func convertRecords(src io.ReadSeeker, dst io.WriteSeeker, opts Options, tp *tablePass, markers *MarkerRegistry, hdrMarkers map[uint64]string) (*Result, error) {
	hdr := interval.Header{
		ProfileVersion: profile.StdVersion,
		HeaderVersion:  interval.CurrentHeaderVersion,
		FieldMask:      profile.MaskIndividual,
		Threads:        tp.threads,
		Markers:        hdrMarkers,
	}
	w, err := interval.NewWriter(dst, hdr, opts.Writer)
	if err != nil {
		return nil, err
	}

	c := newConverter(tp.node, tp.threads, markers, w.Add)
	c.tolerant = opts.Tolerant

	if _, err := src.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	rd, err := trace.NewReader(src)
	if err != nil {
		return nil, err
	}
	var rec trace.Record
	for {
		err := rd.NextInto(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		c.res.Events++
		if err := c.event(&rec); err != nil {
			return nil, err
		}
	}
	// Threads still live at end of trace: close their open states so the
	// file accounts for all observed time.
	if err := c.finish(); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return &c.res, nil
}

// newConverter builds the record-pass state for one node from its
// table-pass thread table; the batch and the streaming path share it.
func newConverter(node int, threads []interval.ThreadEntry, markers *MarkerRegistry, sink func(*interval.Record) error) *converter {
	c := &converter{
		node:        node,
		sink:        sink,
		markers:     markers,
		threads:     make(map[int32]*threadState),
		localMarker: make(map[[2]int64]uint64),
		lastTime:    clock.Time(-1 << 62),
		lastEmitEnd: clock.Time(-1 << 62), // local clocks may start negative
		res:         Result{Node: node},
	}
	for _, te := range threads {
		c.threads[int32(te.LTID)] = &threadState{tid: int32(te.LTID), task: te.Task}
	}
	return c
}

func (c *converter) thread(tid int32) *threadState {
	ts := c.threads[tid]
	if ts == nil {
		ts = &threadState{tid: tid, task: -1}
		c.threads[tid] = ts
	}
	return ts
}

// event converts one raw record. rec and its Args are only valid for the
// call (the in-place reader refills them): nothing may keep them past it.
func (c *converter) event(rec *trace.Record) error {
	now := rec.Time
	if now > c.lastTime {
		c.lastTime = now
	}
	// Arity guard for the argument words indexed below; a well-formed
	// tracer always emits them, but the streaming ingest path feeds this
	// converter untrusted wire bytes.
	need := 0
	switch rec.Type {
	case events.EvGlobalClock, events.EvDispatch, events.EvMarkerDefine:
		need = 1
	case events.EvMarkerBegin, events.EvMarkerEnd:
		need = 2
	}
	if len(rec.Args) < need {
		return fmt.Errorf("convert: %s record with %d args (want %d)", rec.Type.Name(), len(rec.Args), need)
	}
	switch rec.Type {
	case events.EvThreadInfo:
		return nil // consumed in pass 1
	case events.EvGlobalClock:
		// The pair keeps the raw local reading (the merge utility's
		// estimators want it, outliers included); the emitted record's
		// position is clamped so a de-schedule-delayed reading cannot
		// break the file's end-time ordering.
		c.res.ClockPairs = append(c.res.ClockPairs, clock.Pair{
			Global: clock.Time(rec.Args[0]), Local: now,
		})
		at := now
		if at < c.lastEmitEnd {
			at = c.lastEmitEnd
		}
		return c.emit(events.EvGlobalClock, profile.Complete, at, 0, 0, 0, rec.Args[:1], nil)
	case events.EvDispatch:
		ts := c.thread(rec.TID)
		ts.dispatched = true
		ts.cpu = uint16(rec.Args[0])
		if len(ts.stack) == 0 {
			ts.stack = append(ts.stack, c.open(events.EvRunning, now))
		}
		c.top(ts).pieceStart = now
		return nil
	case events.EvUndispatch:
		ts := c.thread(rec.TID)
		if !ts.dispatched {
			if c.tolerant {
				c.res.Skipped++
				return nil
			}
			return fmt.Errorf("convert: undispatch of idle thread %d at %v", rec.TID, now)
		}
		if len(ts.stack) > 0 {
			if err := c.closePiece(ts, now, false); err != nil {
				return err
			}
		}
		ts.dispatched = false
		if len(rec.Args) > 1 && rec.Args[1] == events.UndispatchExit {
			return c.closeAll(ts, now)
		}
		return nil
	case events.EvMarkerDefine:
		ts := c.thread(rec.TID)
		gid := c.markers.ID(rec.Str)
		c.localMarker[[2]int64{int64(ts.task), int64(rec.Args[0])}] = gid
		return nil
	case events.EvMarkerBegin:
		ts := c.thread(rec.TID)
		gid, ok := c.localMarker[[2]int64{int64(ts.task), int64(rec.Args[0])}]
		if !ok {
			if !c.tolerant {
				return fmt.Errorf("convert: marker %d used before definition on task %d", rec.Args[0], ts.task)
			}
			// The define record was evicted (wrap mode): synthesize a
			// stable placeholder name.
			gid = c.markers.ID(placeholderName(int64(ts.task), rec.Args[0]))
			c.localMarker[[2]int64{int64(ts.task), int64(rec.Args[0])}] = gid
		}
		st := c.open(events.EvMarkerState, now)
		st.marker = [3]uint64{gid, rec.Args[1], 0}
		st.extra = st.marker[:]
		st.markerID = rec.Args[0]
		return c.push(ts, st)
	case events.EvMarkerEnd:
		ts := c.thread(rec.TID)
		top := c.top(ts)
		if top == nil || top.ty != events.EvMarkerState || top.markerID != rec.Args[0] {
			if c.tolerant {
				c.res.Skipped++
				return nil
			}
			return fmt.Errorf("convert: marker end %d does not match open state on thread %d", rec.Args[0], rec.TID)
		}
		top.extra[2] = rec.Args[1] // endAddr
		return c.pop(ts, now)
	}
	if rec.Type == events.EvPageMiss {
		// Point event: a zero-duration complete interval that does not
		// split the enclosing state.
		ts := c.thread(rec.TID)
		return c.emit(events.EvPageMiss, profile.Complete, now, 0, ts.cpu, uint16(rec.TID), rec.Args, nil)
	}
	if events.IsMPI(rec.Type) || events.IsIO(rec.Type) {
		ts := c.thread(rec.TID)
		switch rec.Edge {
		case events.Entry:
			return c.push(ts, c.open(rec.Type, now))
		case events.Exit:
			top := c.top(ts)
			if top == nil || top.ty != rec.Type {
				if c.tolerant {
					c.res.Skipped++
					return nil
				}
				return fmt.Errorf("convert: %s exit without matching entry on thread %d at %v", rec.Type.Name(), rec.TID, now)
			}
			// Aliasing the caller's words is legal only because the pop
			// below, in this same call, emits and retires the state.
			top.extra = rec.Args
			// Types with a trailing vector field carry it after the fixed
			// extras in the raw record's args.
			if events.VectorField(rec.Type) != "" {
				if nx := len(events.ExtraFields(rec.Type)); len(rec.Args) >= nx {
					top.extra = rec.Args[:nx]
					top.vec = rec.Args[nx:]
				}
			}
			return c.pop(ts, now)
		}
		return fmt.Errorf("convert: state event %s with point edge", rec.Type.Name())
	}
	return fmt.Errorf("convert: unhandled event type %s", rec.Type.Name())
}

// open returns a fresh state of type ty whose first piece starts at
// start, off the free list when a popped one is waiting there.
func (c *converter) open(ty events.Type, start clock.Time) *openState {
	n := len(c.free)
	if n == 0 {
		return &openState{ty: ty, pieceStart: start}
	}
	st := c.free[n-1]
	c.free = c.free[:n-1]
	*st = openState{ty: ty, pieceStart: start}
	return st
}

// drop removes the top state of ts and hands it to the free list.
func (c *converter) drop(ts *threadState) {
	n := len(ts.stack) - 1
	c.free = append(c.free, ts.stack[n])
	ts.stack = ts.stack[:n]
}

func (c *converter) top(ts *threadState) *openState {
	if len(ts.stack) == 0 {
		return nil
	}
	return ts.stack[len(ts.stack)-1]
}

// push suspends the current top state's piece at st's start and makes
// st the new active state.
func (c *converter) push(ts *threadState, st *openState) error {
	now := st.pieceStart
	if !ts.dispatched {
		if c.tolerant {
			// Wrap mode evicted the dispatch: treat the thread as
			// dispatched on an unknown CPU from this point.
			ts.dispatched = true
			if len(ts.stack) == 0 {
				ts.stack = append(ts.stack, c.open(events.EvRunning, now))
			}
		} else {
			return fmt.Errorf("convert: state %s opened on undispatched thread %d at %v", st.ty.Name(), ts.tid, now)
		}
	}
	if top := c.top(ts); top != nil {
		if err := c.closePiece(ts, now, false); err != nil {
			return err
		}
	}
	ts.stack = append(ts.stack, st)
	return nil
}

// pop closes the top state (emitting its last piece) and resumes the
// state below it.
func (c *converter) pop(ts *threadState, now clock.Time) error {
	if err := c.closePiece(ts, now, true); err != nil {
		return err
	}
	c.drop(ts)
	if below := c.top(ts); below != nil && ts.dispatched {
		below.pieceStart = now
	} else if below == nil && ts.dispatched {
		// Back to the default Running state.
		ts.stack = append(ts.stack, c.open(events.EvRunning, now))
	}
	return nil
}

// closePiece emits the top state's current piece ending now. last marks
// the state's final piece (end or complete).
func (c *converter) closePiece(ts *threadState, now clock.Time, last bool) error {
	st := c.top(ts)
	if st == nil {
		return fmt.Errorf("convert: no open state on thread %d", ts.tid)
	}
	var bb profile.Bebits
	switch {
	case last && st.pieces == 0:
		bb = profile.Complete
	case last:
		bb = profile.End
	case st.pieces == 0:
		bb = profile.Begin
	default:
		bb = profile.Continuation
	}
	extra := st.extra
	if want := len(events.ExtraFields(st.ty)); len(extra) != want || !last {
		// Pieces emitted before the closing event carry zeroed extras of
		// the profile-declared width; sums over pieces stay correct
		// because only the final piece carries the real values. What a
		// state knows earlier (a marker's) is copied, not lent: the sink
		// may scribble on its record, and the state lives on.
		if cap(c.scratch) < want {
			c.scratch = make([]uint64, want)
		}
		extra = c.scratch[:want]
		clear(extra)
		copy(extra, st.extra)
	}
	var vec []uint64
	if last {
		vec = st.vec
	}
	st.pieces++
	return c.emit(st.ty, bb, st.pieceStart, now-st.pieceStart, ts.cpu, uint16(ts.tid), extra, vec)
}

// closeAll force-closes every open state of an exiting thread, top down.
// Each state's running piece was already closed (by the undispatch or by
// being suspended), so every state gets a zero-length final piece at now.
func (c *converter) closeAll(ts *threadState, now clock.Time) error {
	for len(ts.stack) > 0 {
		c.top(ts).pieceStart = now
		if err := c.closePiece(ts, now, true); err != nil {
			return err
		}
		c.drop(ts)
	}
	return nil
}

// emit fills c.out — field by field, so no temporary record is built and
// copied — and hands it to the sink.
func (c *converter) emit(ty events.Type, bb profile.Bebits, start, dura clock.Time, cpu, thread uint16, extra, vec []uint64) error {
	r := &c.out
	r.Type, r.Bebits = ty, bb
	r.Start, r.Dura = start, dura
	r.CPU, r.Node, r.Thread = cpu, uint16(c.node), thread
	r.Extra, r.Vec = extra, vec
	c.res.Records++
	if e := start + dura; e > c.lastEmitEnd {
		c.lastEmitEnd = e
	}
	return c.sink(r)
}

// finish closes states of threads that are still live when the trace
// ends (tracing stopped mid-run). Dispatched threads get their running
// piece extended to the last timestamp seen in the trace; every open
// state then receives a final piece there, keeping the file's end-time
// ordering intact.
func (c *converter) finish() error {
	tids := make([]int32, 0, len(c.threads))
	for tid := range c.threads {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		ts := c.threads[tid]
		if len(ts.stack) == 0 {
			continue
		}
		if ts.dispatched {
			if err := c.closePiece(ts, c.lastTime, false); err != nil {
				return err
			}
		}
		if err := c.closeAll(ts, c.lastTime); err != nil {
			return err
		}
	}
	return nil
}
