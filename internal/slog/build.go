package slog

import (
	"errors"
	"io"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/profile"
)

// Options tunes SLOG construction.
type Options struct {
	// FrameBytes is the target frame payload size (default 64 KiB); "the
	// frame size is chosen so that the display of a single frame is
	// quick".
	FrameBytes int
	// noCrossingCopies disables pseudo copies of frame-spanning arrows
	// (the viewer then misses arrows in middle frames), and bins sets the
	// preview's bin count (0: interval.DefaultBins). Only this package's
	// tests set them (export_test.go).
	noCrossingCopies bool
	bins             int
	// Parallel is the frame-decode worker count for both build passes
	// (<= 0 means GOMAXPROCS). The output is byte-identical for every
	// worker count: frames decode concurrently, while the rest —
	// frame partitioning, arrow matching, the preview's sums and
	// serialization — runs in the engine's deterministic frame-order
	// reduce.
	Parallel int
}

func (o Options) frameBytes() int {
	if o.FrameBytes <= 0 {
		return 64 << 10
	}
	return o.FrameBytes
}

func (o Options) binCount() int {
	if o.bins <= 0 {
		return interval.DefaultBins
	}
	return o.bins
}

// BuildResult summarizes a build.
type BuildResult struct {
	Frames  int
	Records int64
	Arrows  int64
	Pseudo  int64 // pseudo intervals + crossing arrow copies
}

// partitioner reproduces the frame boundaries deterministically from the
// record stream: a frame closes when its payload reaches FrameBytes.
type partitioner struct {
	limit int
	size  int
}

// add accounts one record of encoded size sz; it returns true when the
// record CLOSES the current frame (the record still belongs to it).
func (p *partitioner) add(sz int) bool {
	p.size += sz
	if p.size >= p.limit {
		p.size = 0
		return true
	}
	return false
}

// arrowKey matches sends and receives: sequence numbers are unique per
// directed (source task, destination task) pair.
type arrowKey struct {
	srcTask, dstTask int32
	seqno            uint64
}

// taskTable maps (node, logical thread) to the owning MPI task.
type taskTable map[[2]uint16]int32

func newTaskTable(threads []interval.ThreadEntry) taskTable {
	t := make(taskTable, len(threads))
	for _, te := range threads {
		t[[2]uint16{te.Node, te.LTID}] = te.Task
	}
	return t
}

func (t taskTable) of(r *interval.Record) int32 {
	if task, ok := t[[2]uint16{r.Node, r.Thread}]; ok {
		return task
	}
	return -1
}

// frameInfo is what pass 1 learns about one SLOG frame: the index of its
// last record, its time bounds, and how many arrows had been matched when
// it closed. An arrow belongs to the frame open when its receive
// completed, so frame f's own arrows are the contiguous run
// arrows[frames[f-1].arrowEnd:frames[f].arrowEnd].
type frameInfo struct {
	lastIdx  int64
	lo, hi   clock.Time
	arrowEnd int
}

// Planner is the SLOG build's first pass: from the merged record stream,
// shown to Observe one frame's batch at a time in file order, it cuts the
// SLOG's frames and matches the message arrows. Build feeds it from its
// own pass over the merged file; MergeFiles feeds it the merge writer's
// frames as they are sealed (interval.WriterOptions.OnFrame), so the file
// is never decoded for it. Either way Write is the second pass.
type Planner struct {
	opts   Options
	part   partitioner
	frames []frameInfo
	cur    frameInfo
	m      *matcher
	idx    int64 // records observed
	// arrow is, per entry of the observed batch's dictionary, whether
	// its rows are final pieces the matcher takes.
	arrow []bool
}

// openFrameInfo is the frameInfo of a frame no record has reached yet.
var openFrameInfo = frameInfo{lastIdx: -1, lo: clock.Time(1<<63 - 1), hi: clock.Time(-1 << 63)}

// NewPlanner returns a first pass for a merged file whose thread table is
// threads.
func NewPlanner(threads []interval.ThreadEntry, opts Options) *Planner {
	return &Planner{
		opts: opts,
		part: partitioner{limit: opts.frameBytes()},
		cur:  openFrameInfo,
		m: &matcher{
			tasks: newTaskTable(threads),
			sends: map[arrowKey]sendHalf{},
			recvs: map[arrowKey]recvHalf{},
		},
	}
}

// Observe accounts the next frame of the merged file. It reads the batch
// in place — the matcher keeps only the halves it waits on — so the batch
// may be recycled as soon as Observe returns.
func (p *Planner) Observe(b *interval.Batch) {
	p.arrow = interval.PerEntry(p.arrow, b, func(k *interval.Key) bool {
		return (k.Bebits == profile.Complete || k.Bebits == profile.End) && matcherType(k.Type)
	})
	for i := 0; i < b.N; i++ {
		// Arrow matching on final pieces of p2p and wait operations, at
		// exactly the position a record-at-a-time pass would see them.
		if p.arrow[b.Code[i]] {
			r := b.Row(i)
			p.m.observe(&r)
		}
		p.cur.lo = min(p.cur.lo, b.Start[i])
		p.cur.hi = max(p.cur.hi, b.End(i))
		p.cur.lastIdx = p.idx
		if p.part.add(b.EncodedRowSize(i)) {
			p.cur.arrowEnd = len(p.m.arrows)
			p.frames = append(p.frames, p.cur)
			p.cur = openFrameInfo
		}
		p.idx++
	}
}

// Build converts a merged interval file into an SLOG file: a Planner fed
// from one pass over mf, then Write.
func Build(mf *interval.File, ws io.WriteSeeker, opts Options) (*BuildResult, error) {
	p := NewPlanner(mf.Header.Threads, opts)
	err := interval.MapFrames([]*interval.File{mf}, interval.MapOptions{Parallel: opts.Parallel}, passBatch,
		func(_ int, _ interval.FrameEntry, b *interval.Batch) error {
			p.Observe(b)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return p.Write(mf, ws, nil)
}

// passBatch is both passes' map: frames decode concurrently, and the
// reduce, in frame order, does the rest.
func passBatch(_ int, fr *interval.Frame) (*interval.Batch, error) {
	return fr.Batch()
}

// Write is the SLOG build's second pass: one pass over mf — the merged
// file the planner observed, whole — that accumulates the preview and
// serializes the SLOG file into ws. tap, when non-nil, is shown every
// batch of that pass in file order, under the same lifetime as Observe's
// (MergeFiles hangs the pyramid builder on it). Call it once.
//
// The pass runs off interval.Batch columns under MapFrames'
// batch-lifetime contract: nothing is copied out of a batch except the
// Begin rows the open-state tracker retains across frames. The file is
// written one frame at a time, each frame encoded into one reused buffer
// and handed to ws in a single Write.
func (p *Planner) Write(mf *interval.File, ws io.WriteSeeker, tap func(*interval.Batch)) (*BuildResult, error) {
	frames, m := p.frames, p.m
	if p.cur.lastIdx >= 0 {
		p.cur.arrowEnd = len(m.arrows)
		frames = append(frames, p.cur)
	}
	arrows := m.arrows
	res := &BuildResult{Frames: len(frames), Records: p.idx, Arrows: int64(len(arrows))}

	// Crossing pseudo copies go to every frame before an arrow's own that
	// the arrow spans in time. Frame hi bounds are nondecreasing (records
	// arrive end-time ordered), so the backward scan per arrow stops as
	// soon as a frame ends before the send — total work is proportional to
	// the copies produced. Two sweeps of the same scan, count then fill,
	// lay the copies out as one flat list with per-frame offsets:
	// crossing[crossOff[f]:crossOff[f+1]] is frame f's, in arrow order.
	crossOff := make([]int, len(frames)+1)
	var crossing []int32
	if !p.opts.noCrossingCopies {
		eachCrossing := func(visit func(f, ai int)) {
			rf := 0
			for ai := range arrows {
				for frames[rf].arrowEnd <= ai {
					rf++
				}
				for f := rf - 1; f >= 0; f-- {
					if frames[f].hi <= arrows[ai].SendTime {
						break
					}
					if arrows[ai].RecvTime > frames[f].lo {
						visit(f, ai)
					}
				}
			}
		}
		eachCrossing(func(f, _ int) { crossOff[f+1]++ })
		for f := range frames {
			crossOff[f+1] += crossOff[f]
		}
		crossing = make([]int32, crossOff[len(frames)])
		fill := append([]int(nil), crossOff[:len(frames)]...)
		eachCrossing(func(f, ai int) {
			crossing[fill[f]] = int32(ai)
			fill[f]++
		})
	}

	// Everything runs in the frame-order reduce; the map only decodes. Each
	// row is encoded straight from its batch into the open frame's buffer,
	// and a state record's overlap with each preview bin — the ruler
	// SummarizeWindow bins by, so the stored preview is render.BuildPreview's
	// — is added up as it streams by. A frame's pseudo-intervals are written
	// when it opens — the tracker has seen every earlier record by then,
	// which is all they depend on — its interval records as they stream by,
	// and its arrows when it closes.
	tStart, tEnd, _, err := mf.Stats()
	if err != nil {
		return nil, err
	}
	if tEnd <= tStart {
		tEnd = tStart + 1
	}
	grid := interval.NewBinGrid(tStart, tEnd, p.opts.binCount())
	sidx := stateIndex()
	prev := &Preview{
		TStart: tStart,
		TEnd:   tEnd,
		States: events.StateTypes,
		Dur:    make([][]clock.Time, len(events.StateTypes)),
		Count:  make([]int64, len(events.StateTypes)),
	}
	for si := range prev.Dur {
		prev.Dur[si] = make([]clock.Time, grid.Bins())
	}
	w, err := newWriter(ws, mf, prev, len(frames))
	if err != nil {
		return nil, err
	}
	trk := interval.NewOpenStates(mf.Header.Threads)
	fi := 0
	var idx int64
	frameStartStamp := tStart
	var ent []rowEntry
	err = interval.MapFrames([]*interval.File{mf}, interval.MapOptions{Parallel: p.opts.Parallel}, passBatch,
		func(_ int, _ interval.FrameEntry, b *interval.Batch) error {
			ent = interval.PerEntry(ent, b, func(k *interval.Key) rowEntry {
				return rowEntry{sidx.of(k.Type), k.Bebits == profile.Begin || k.Bebits == profile.Complete, k.MovesOpenStates()}
			})
			for ri := 0; ri < b.N; ri++ {
				if fi >= len(frames) {
					return errFrameCount
				}
				e := ent[b.Code[ri]]
				if si := e.state; si >= 0 {
					if e.starts {
						prev.Count[si]++
					}
					row := prev.Dur[si]
					for o := grid.Overlaps(b.Start[ri], b.End(ri)); o.Next(); {
						row[o.Bin] += o.Dur
					}
				}
				if !w.open {
					res.Pseudo += int64(w.openFrame(trk, frameStartStamp))
				}
				w.addRow(b, ri)
				if e.moves {
					r := b.Row(ri)
					trk.Observe(&r)
				}
				if idx == frames[fi].lastIdx {
					firstArrow := 0
					if fi > 0 {
						firstArrow = frames[fi-1].arrowEnd
					}
					cross := crossing[crossOff[fi]:crossOff[fi+1]]
					res.Pseudo += int64(len(cross))
					if err := w.closeFrame(arrows, firstArrow, frames[fi].arrowEnd, cross); err != nil {
						return err
					}
					fi++
					frameStartStamp = b.End(ri)
				}
				idx++
			}
			if tap != nil {
				tap(b)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	if err := w.finish(); err != nil {
		return nil, err
	}
	return res, nil
}

// matcherType reports whether the arrow matcher inspects records of
// this type (the types m.observe switches on). Pass 1 only shows it
// records of these types.
// rowEntry is what the SLOG's second pass reads of one dictionary entry
// of a merged frame, resolved once per entry: the preview state its rows
// add to (-1 none), whether a row starts one (a Begin or Complete piece,
// which the preview counts), and whether it opens or closes a state.
type rowEntry struct {
	state         int
	starts, moves bool
}

func matcherType(t events.Type) bool {
	switch t {
	case events.EvMPISend, events.EvMPIIsend, events.EvMPISendrecv,
		events.EvMPIRecv, events.EvMPIIrecv, events.EvMPIWait, events.EvMPIWaitall:
		return true
	}
	return false
}

// sendHalf is a send record waiting for its receive completion: the
// fields an arrow takes from the send side, and nothing else of the
// record.
type sendHalf struct {
	start        clock.Time
	node, thread uint16
	bytes        uint64
	tag          uint32
}

// recvHalf is a receive completion waiting for its send record.
type recvHalf struct {
	end          clock.Time
	node, thread uint16
}

// matcher pairs send records with receive completions by (source task,
// destination task, sequence number). Receive completions come from
// blocking MPI_Recv records, from MPI_Wait records carrying the matched
// envelope of an Irecv, and from the receive half of MPI_Sendrecv. It
// keeps nothing of a record it is shown beyond a sendHalf or recvHalf, so
// callers may hand it rows aliasing a batch.
type matcher struct {
	tasks  taskTable
	sends  map[arrowKey]sendHalf
	recvs  map[arrowKey]recvHalf
	arrows []Arrow // in the order their later half was observed
}

func (m *matcher) observe(r *interval.Record) {
	switch r.Type {
	case events.EvMPISend, events.EvMPIIsend, events.EvMPISendrecv:
		seq, _ := r.Field(events.FieldSeqno)
		if seq != 0 {
			dst, _ := r.Field(events.FieldPeer)
			m.send(r, int32(dst), seq)
		}
		if r.Type == events.EvMPISendrecv {
			rseq, _ := r.Field(events.FieldRecvSeqno)
			if rseq != 0 {
				src, _ := r.Field(events.FieldRecvPeer)
				m.recv(r, int32(src), rseq)
			}
		}
	case events.EvMPIRecv, events.EvMPIIrecv:
		seq, _ := r.Field(events.FieldSeqno)
		if seq != 0 {
			src, _ := r.Field(events.FieldPeer)
			m.recv(r, int32(src), seq)
		}
	case events.EvMPIWait:
		seq, _ := r.Field(events.FieldRecvSeqno)
		if seq != 0 {
			src, _ := r.Field(events.FieldRecvPeer)
			m.recv(r, int32(src), seq)
		}
	case events.EvMPIWaitall:
		// The vector field holds (peer, seqno, bytes) envelope triples,
		// one per completed receive request.
		for i := 0; i+2 < len(r.Vec); i += 3 {
			if r.Vec[i+1] != 0 {
				m.recv(r, int32(uint32(r.Vec[i])), r.Vec[i+1])
			}
		}
	}
}

func (m *matcher) send(r *interval.Record, dstTask int32, seq uint64) {
	k := arrowKey{srcTask: m.tasks.of(r), dstTask: dstTask, seqno: seq}
	if k.srcTask < 0 {
		return
	}
	bytes, _ := r.Field(events.FieldMsgSizeSent)
	tag, _ := r.Field(events.FieldTag)
	sh := sendHalf{start: r.Start, node: r.Node, thread: r.Thread, bytes: bytes, tag: uint32(tag)}
	if rh, ok := m.recvs[k]; ok {
		delete(m.recvs, k)
		m.emit(sh, rh, seq)
		return
	}
	m.sends[k] = sh
}

func (m *matcher) recv(r *interval.Record, srcTask int32, seq uint64) {
	k := arrowKey{srcTask: srcTask, dstTask: m.tasks.of(r), seqno: seq}
	if k.dstTask < 0 {
		return
	}
	rh := recvHalf{end: r.End(), node: r.Node, thread: r.Thread}
	if sh, ok := m.sends[k]; ok {
		delete(m.sends, k)
		m.emit(sh, rh, seq)
		return
	}
	m.recvs[k] = rh
}

func (m *matcher) emit(sh sendHalf, rh recvHalf, seq uint64) {
	m.arrows = append(m.arrows, Arrow{
		SendTime: sh.start, RecvTime: rh.end,
		SrcNode: sh.node, SrcThread: sh.thread,
		DstNode: rh.node, DstThread: rh.thread,
		Bytes: sh.bytes, Tag: sh.tag, Seqno: seq,
	})
}

var errFrameCount = errors.New("slog: the frames written differ from the frame count the header declares")
