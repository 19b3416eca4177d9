package interval

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/faultfs"
	"tracefw/internal/profile"
	"tracefw/internal/xrand"
)

// writePyrFile is writeRandomFile with a type mix that exercises every
// pyramid code path: busy MPI/IO states, the non-busy Running background
// and GlobalClock records, markers, zero-duration records, and exact
// duplicate tuples.
func writePyrFile(t *testing.T, seed uint64, n int, hdrVersion uint32) (*SeekBuffer, []Record) {
	t.Helper()
	rng := xrand.New(seed)
	types := []events.Type{
		events.EvRunning, events.EvRunning, events.EvGlobalClock,
		events.EvMarkerState, events.EvMPISend, events.EvMPIRecv,
		events.EvMPIAllreduce, events.EvMPIBarrier, events.EvIORead,
	}
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		r := Record{
			Type:   types[rng.Intn(len(types))],
			Bebits: profile.Complete,
			Start:  clock.Time(rng.Int63n(int64(100 * clock.Millisecond))),
			Dura:   clock.Time(rng.Int63n(int64(5 * clock.Millisecond))),
			CPU:    uint16(rng.Intn(4)),
			Node:   uint16(rng.Intn(2)),
			Thread: uint16(rng.Intn(8)),
			Extra:  []uint64{rng.Uint64() % 1000, 7, uint64(i), 0, 0, 0},
		}
		if rng.Intn(10) == 0 {
			r.Dura = 0
		}
		recs = append(recs, r)
		if rng.Intn(16) == 0 {
			recs = append(recs, r) // identical tuple
			i++
		}
	}
	return writePyrRecords(t, recs, hdrVersion), recs
}

// writePyrRecords writes recs, end-ordered in place, in writePyrFile's
// small frames and directories.
func writePyrRecords(t *testing.T, recs []Record, hdrVersion uint32) *SeekBuffer {
	t.Helper()
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].End() < recs[j].End() })
	hdr := testHeader()
	hdr.HeaderVersion = hdrVersion
	sb := NewSeekBuffer()
	w, err := NewWriter(sb, hdr, WriterOptions{FrameBytes: 512, FramesPerDir: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Add(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sb
}

// openPair writes the trace in sb to disk, builds its sidecar, and
// opens it twice: with the sidecar attached and without. What is
// attached is the only thing that selects SummarizeWindow's engine, so
// the pair is how every differential case gets both answers. A fixture
// whose sidecar the size rule declines is a broken fixture (shrink
// BaseCells), not a reason to bypass the rule.
func openPair(t *testing.T, sb *SeekBuffer, opts PyramidOptions) (with, without *File) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.ute")
	if err := os.WriteFile(path, sb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := BuildPyramidSidecar(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if b.Declined() {
		t.Fatalf("fixture sidecar (%d bytes) outweighs its trace (%d bytes)", b.Bytes, b.TraceBytes)
	}
	open := func(o ...Option) *File {
		f, err := Open(path, o...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	with, without = open(), open(WithPyramid(false))
	if with.Pyramid() == nil || without.Pyramid() != nil {
		t.Fatalf("sidecar attachment: with=%v without=%v", with.Pyramid() != nil, without.Pyramid() != nil)
	}
	return with, without
}

// summarize runs SummarizeWindow on one file and requires the named
// engine to have answered, so a silent fallback cannot pass as a
// pyramid answer.
func summarize(t *testing.T, label string, f *File, o WindowSummaryOptions, engine string) *WindowSummary {
	t.Helper()
	ws, err := SummarizeWindow([]*File{f}, o)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if ws.Engine != engine {
		t.Fatalf("%s: answered by %q, want %q", label, ws.Engine, engine)
	}
	return ws
}

// stripMeta zeroes the fields the two engines legitimately differ on.
func stripMeta(ws *WindowSummary) WindowSummary {
	c := *ws
	c.Engine, c.CellsUsed, c.FramesDecoded = "", 0, 0
	return c
}

func assertSummariesEqual(t *testing.T, label string, pyr, scan *WindowSummary) {
	t.Helper()
	p, s := stripMeta(pyr), stripMeta(scan)
	if reflect.DeepEqual(p, s) {
		return
	}
	if len(p.Bins) == len(s.Bins) {
		for i := range p.Bins {
			if !reflect.DeepEqual(p.Bins[i], s.Bins[i]) {
				t.Errorf("%s: bin %d differs:\n  pyramid %+v\n  scan    %+v", label, i, p.Bins[i], s.Bins[i])
			}
		}
	}
	if !reflect.DeepEqual(p.Lanes, s.Lanes) {
		t.Errorf("%s: lanes differ: pyramid %v scan %v", label, p.Lanes, s.Lanes)
	}
	t.Fatalf("%s: pyramid and scan summaries differ", label)
}

func TestPyramidEncodeDecodeRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 50, 1200} {
		sb, _ := writePyrFile(t, uint64(n)+3, n, CurrentHeaderVersion)
		f := openFile(t, sb)
		p, err := BuildPyramid(f, PyramidOptions{BaseCells: 64})
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodePyramid(p.Encode())
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("n=%d: roundtrip mismatch\n got %+v\nwant %+v", n, got, p)
		}
	}
}

func TestPyramidLevelGeometry(t *testing.T) {
	sb, _ := writePyrFile(t, 11, 2000, CurrentHeaderVersion)
	f := openFile(t, sb)
	p, err := BuildPyramid(f, PyramidOptions{BaseCells: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Levels) < 2 {
		t.Fatalf("want a multi-level pyramid, got %d levels", len(p.Levels))
	}
	for i, lvl := range p.Levels {
		if want := p.BaseWidth << uint(i); lvl.Width != want {
			t.Fatalf("level %d width %d, want %d", i, lvl.Width, want)
		}
		if i > 0 {
			child := p.Levels[i-1]
			if lvl.First != child.First>>1 {
				t.Fatalf("level %d first %d, child first %d", i, lvl.First, child.First)
			}
		}
	}
	if top := p.Levels[len(p.Levels)-1]; len(top.Cells) != 1 {
		t.Fatalf("top level has %d cells, want 1", len(top.Cells))
	}
}

// TestPyramidStraddlesTimeZero: a converted trace can start before time
// zero. Its levels fold down to the two cells either side of zero, which
// no cell of a grid anchored there holds, and its sidecar loads and
// answers like any other.
func TestPyramidStraddlesTimeZero(t *testing.T) {
	_, recs := writePyrFile(t, 19, 1200, CurrentHeaderVersion)
	for i := range recs {
		recs[i].Start -= 50 * clock.Millisecond
	}
	f, bare := openPair(t, writePyrRecords(t, recs, CurrentHeaderVersion), PyramidOptions{BaseCells: 64})
	p := f.Pyramid()
	top := p.Levels[len(p.Levels)-1]
	if top.First != -1 || len(top.Cells) != 2 {
		t.Fatalf("top level holds cells [%d .. %d), want the two either side of zero", top.First, top.First+int64(len(top.Cells)))
	}
	first, last, _, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []WindowSummaryOptions{
		{Bins: 1, Lo: first, Hi: last},
		{Bins: 7, Lo: first + 3, Hi: last - 5},
		{Bins: 2, Lo: -top.Width, Hi: top.Width},
	} {
		label := fmt.Sprintf("[%v, %v)/%d", o.Lo, o.Hi, o.Bins)
		assertSummariesEqual(t, label, summarize(t, label, f, o, "pyramid"), summarize(t, label, bare, o, "scan"))
	}
}

// TestSummarizeDifferential is the byte-identity suite: the pyramid
// engine must answer exactly what the scan engine answers, for every
// header version (v1-v4 pyramids are backfilled by a scan build), over
// a grid of aligned, unaligned, interior, and overhanging windows and
// bin counts.
func TestSummarizeDifferential(t *testing.T) {
	for hv := uint32(1); hv <= CurrentHeaderVersion; hv++ {
		hv := hv
		t.Run(fmt.Sprintf("v%d", hv), func(t *testing.T) {
			for _, seed := range []uint64{1, 7, 42} {
				sb, _ := writePyrFile(t, seed, 1500, hv)
				f, bare := openPair(t, sb, PyramidOptions{BaseCells: 128})
				first, last, _, err := f.Stats()
				if err != nil {
					t.Fatal(err)
				}
				span := last - first
				windows := []struct {
					name   string
					lo, hi clock.Time
				}{
					{"full", first, last},
					{"interior", first + span/3, first + 2*span/3},
					{"odd", first + 7, first + 2*span/3 + 13},
					{"left-overhang", first - span/2, first + span/2},
					{"right-overhang", first + span/2, last + span/2},
					{"outside", last + span, last + 2*span},
					{"prefix", first, first + span/7},
				}
				for _, win := range windows {
					for _, bins := range []int{1, 3, 7, 64, 250} {
						label := fmt.Sprintf("v%d/seed%d/%s/bins%d", hv, seed, win.name, bins)
						o := WindowSummaryOptions{Bins: bins, Lo: win.lo, Hi: win.hi}
						scan := summarize(t, label, bare, o, "scan")
						assertSummariesEqual(t, label, summarize(t, label, f, o, "pyramid"), scan)
						// The scan is the same summary at any width.
						o.Parallel = 4
						assertSummariesEqual(t, label+"/j4", summarize(t, label, bare, o, "scan"), scan)
					}
				}
			}
		})
	}
}

// writeWideFile is writePyrFile's type mix on a wide machine: nodes ×
// cpus lanes, each record on a random one, so a cell and a bin see
// hundreds of lanes.
func writeWideFile(t *testing.T, seed uint64, n, nodes, cpus int) *SeekBuffer {
	t.Helper()
	rng := xrand.New(seed)
	types := []events.Type{
		events.EvRunning, events.EvGlobalClock, events.EvMarkerState,
		events.EvMPISend, events.EvMPIRecv, events.EvMPIAllreduce, events.EvIORead,
	}
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Type:   types[rng.Intn(len(types))],
			Bebits: profile.Complete,
			Start:  clock.Time(rng.Int63n(int64(100 * clock.Millisecond))),
			Dura:   clock.Time(rng.Int63n(int64(3 * clock.Millisecond))),
			CPU:    uint16(rng.Intn(cpus)),
			Node:   uint16(rng.Intn(nodes)),
			Extra:  []uint64{uint64(i), 7, 0},
		}
	}
	return writePyrRecords(t, recs, CurrentHeaderVersion)
}

// TestSummarizeDifferentialManyLanes is the differential on a machine
// of 160 lanes, where the summary's lane rows dominate its state:
// windows and bins on base-cell bounds and off them, each answered the
// same by both engines and by the scan at any width, and with NoLanes
// the same summary less its lanes — and a bin count that passes
// MaxSummaryCells refused by both engines in the same words.
func TestSummarizeDifferentialManyLanes(t *testing.T) {
	const nodes, cpus = 40, 4
	f, bare := openPair(t, writeWideFile(t, 3, 4000, nodes, cpus), PyramidOptions{BaseCells: 16})
	p := f.Pyramid()
	first, last, _, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	span, w := last-first, p.BaseWidth
	alo := clock.Time(floorDivTime(first, w)) * w
	windows := []struct {
		name   string
		lo, hi clock.Time
		bins   []int
	}{
		{"full", first, last, []int{1, 7, 64, 250}},
		{"odd", first + 7, first + 2*span/3 + 13, []int{1, 3, 64}},
		{"overhang", first - span/3, last + span/5, []int{5, 64}},
		// Window and every bin bound on base cells: no frame is read.
		{"aligned", alo, alo + 16*w, []int{1, 2, 4, 8, 16}},
	}
	for _, win := range windows {
		for _, bins := range win.bins {
			label := fmt.Sprintf("%s/bins%d", win.name, bins)
			o := WindowSummaryOptions{Bins: bins, Lo: win.lo, Hi: win.hi}
			scan := summarize(t, label, bare, o, "scan")
			pyr := summarize(t, label, f, o, "pyramid")
			if len(scan.Lanes) < 128 {
				t.Fatalf("%s: %d lanes: the fixture is not wide", label, len(scan.Lanes))
			}
			if win.name == "aligned" && pyr.FramesDecoded != 0 {
				t.Fatalf("%s: aligned window decoded %d frames", label, pyr.FramesDecoded)
			}
			assertSummariesEqual(t, label, pyr, scan)
			o.Parallel = 4
			assertSummariesEqual(t, label+"/j4", summarize(t, label, bare, o, "scan"), scan)

			o.NoLanes = true
			typesOnly := stripMeta(scan)
			typesOnly.Lanes = nil
			typesOnly.Bins = slices.Clone(typesOnly.Bins)
			for bi := range typesOnly.Bins {
				typesOnly.Bins[bi].BusyByLane = nil
			}
			for _, got := range []*WindowSummary{summarize(t, label, bare, o, "scan"), summarize(t, label, f, o, "pyramid")} {
				if !reflect.DeepEqual(stripMeta(got), typesOnly) {
					t.Fatalf("%s: the %s engine's NoLanes summary is not the summary less its lanes", label, got.Engine)
				}
			}
		}
	}
	// 160 lanes and the types at 65536 bins pass the budget: both
	// engines refuse, at every width, with the same error.
	o := WindowSummaryOptions{Bins: 1 << 16, Lo: first, Hi: last}
	var msgs []string
	for _, tc := range []struct {
		f   *File
		par int
	}{{f, 1}, {bare, 1}, {bare, 4}} {
		o.Parallel = tc.par
		ws, err := SummarizeWindow([]*File{tc.f}, o)
		if !errors.Is(err, ErrSummaryBudget) {
			t.Fatalf("over budget (pyramid attached: %v, j%d): summary %v, error %v", tc.f.Pyramid() != nil, tc.par, ws != nil, err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] || msgs[1] != msgs[2] {
		t.Fatalf("engines refuse differently:\n%s", strings.Join(msgs, "\n"))
	}
}

// TestSummarizeScanShares: on a machine of more than 1024 lanes at -j 4,
// every scan accumulator is held to a quarter of MaxSummaryCells. A
// window within budget whose accumulators pass their shares is read
// again into one accumulator and answers as at -j 1; a window over
// budget is refused in the words of -j 1, having allocated no more than
// two -j 1 refusals.
func TestSummarizeScanShares(t *testing.T) {
	const nodes, cpus = 1100, 4 // 4400 lanes
	f := openFile(t, writeWideFile(t, 5, 40000, nodes, cpus))
	first, last, _, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	files := []*File{f}

	// 512 bins: 4400 lanes are half the budget, and four times a
	// quarter's 2048 rows.
	o := WindowSummaryOptions{Bins: 512, Lo: first, Hi: last, Parallel: 1}
	one := summarize(t, "j1", f, o, "scan")
	if len(one.Lanes) <= 2048 {
		t.Fatalf("%d lanes: the fixture is not wide", len(one.Lanes))
	}
	o.Parallel = 4
	mo := MapOptions{Parallel: 4, Window: true, Lo: o.Lo, Hi: o.Hi}
	selected, err := selectAll(files, mo)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := scanInto(files, selected, mo, NewBinGrid(o.Lo, o.Hi, o.Bins), o, 4); !errors.Is(err, errShare) {
		t.Fatalf("four accumulators over 4400 lanes at 512 bins: %v, want errShare", err)
	}
	if four := summarize(t, "j4", f, o, "scan"); !reflect.DeepEqual(four, one) {
		t.Fatal("j4 summary read again into one accumulator differs from j1")
	}

	// 1024 bins: the lanes alone pass the budget. -j 1 reads the window
	// once into one accumulator; -j 4 may read it twice, but never holds
	// more than one budget a pass.
	o.Bins = 1024
	var msgs []string
	var allocs []uint64
	for _, par := range []int{1, 4} {
		o.Parallel = par
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ws, err := SummarizeWindow(files, o)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrSummaryBudget) {
			t.Fatalf("j%d over budget: summary %v, error %v", par, ws != nil, err)
		}
		msgs = append(msgs, err.Error())
		allocs = append(allocs, after.TotalAlloc-before.TotalAlloc)
		t.Logf("j%d over budget: %d bytes allocated", par, allocs[len(allocs)-1])
	}
	const budget = MaxSummaryCells * 8 // bytes
	if allocs[1] > 2*allocs[0]+budget/4 {
		t.Fatalf("j4 over budget allocated %d bytes, j1 %d: more than two passes", allocs[1], allocs[0])
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("j1 and j4 refuse differently:\n%s", strings.Join(msgs, "\n"))
	}
}

// TestSummarizeRemainderReserve: the pyramid engine reads only the
// frames its edge remainders reach, and reserves endpoint room for
// those alone — a whole-run summary whose bins all have remainders does
// not allocate with the window's records.
func TestSummarizeRemainderReserve(t *testing.T) {
	// Short intervals in large frames: each frame covers a sliver of the
	// run, and its records' endpoints outweigh its directory entry.
	rng := xrand.New(11)
	recs := make([]Record, 60000)
	for i := range recs {
		recs[i] = Record{
			Type: events.EvMPISend, Bebits: profile.Complete,
			Start: clock.Time(rng.Int63n(int64(100 * clock.Millisecond))),
			Dura:  clock.Time(rng.Int63n(int64(20 * clock.Microsecond))),
			CPU:   uint16(rng.Intn(4)), Node: uint16(rng.Intn(2)),
			Extra: []uint64{uint64(i), 7, 0, 0, 0, 0},
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].End() < recs[j].End() })
	sb := NewSeekBuffer()
	w, err := NewWriter(sb, testHeader(), WriterOptions{FrameBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Add(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, _ := openPair(t, sb, PyramidOptions{})
	first, last, _, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	frames, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	o := WindowSummaryOptions{Bins: 3, Lo: first + 1, Hi: last}
	summarize(t, "warm", f, o, "pyramid") // loads the directory
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // empties the endpoint pool
	runtime.ReadMemStats(&before)
	ws := summarize(t, "whole", f, o, "pyramid")
	runtime.ReadMemStats(&after)
	if ws.FramesDecoded == 0 || 4*ws.FramesDecoded > len(frames) {
		t.Fatalf("read %d of %d frames: the window is not wide, or not off cell bounds", ws.FramesDecoded, len(frames))
	}
	endpoints := uint64(len(recs)) * 16 // two endpoints a record
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("read %d of %d frames, allocated %d bytes", ws.FramesDecoded, len(frames), got)
	if got > endpoints/2 {
		t.Fatalf("summary allocated %d bytes; every record's endpoints are %d", got, endpoints)
	}
}

// TestSummarizeAlignedDecodesNoFrames pins the headline property: when
// the window and every bin bound land on base-cell boundaries, the
// pyramid engine answers without decoding a single frame — and still
// answers byte-identically.
func TestSummarizeAlignedDecodesNoFrames(t *testing.T) {
	sb, _ := writePyrFile(t, 5, 2500, CurrentHeaderVersion)
	f, bare := openPair(t, sb, PyramidOptions{BaseCells: 128})
	p := f.Pyramid()
	first, last, _, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	w := p.BaseWidth
	for _, bins := range []int{1, 4, 16, 100} {
		lo := clock.Time(floorDivTime(first, w)) * w
		per := (clock.Time(floorDivTime(last, w))*w + w - lo) / (clock.Time(bins) * w)
		hi := lo + clock.Time(bins)*w*(per+1)
		o := WindowSummaryOptions{Bins: bins, Lo: lo, Hi: hi}
		scan := summarize(t, "aligned", bare, o, "scan")
		pyr := summarize(t, "aligned", f, o, "pyramid")
		if pyr.FramesDecoded != 0 {
			t.Fatalf("bins=%d: aligned window decoded %d frames, want 0", bins, pyr.FramesDecoded)
		}
		if pyr.CellsUsed == 0 {
			t.Fatalf("bins=%d: aligned window used no cells", bins)
		}
		if scan.FramesDecoded == 0 {
			t.Fatalf("bins=%d: scan reference decoded no frames (test is vacuous)", bins)
		}
		assertSummariesEqual(t, fmt.Sprintf("aligned/bins%d", bins), pyr, scan)
	}
}

// remainderSpans is the pyramid engine's partition of o's bins, restated
// as an oracle: the sub-base-width edge spans it answers from frames.
func remainderSpans(p *Pyramid, o WindowSummaryOptions) [][2]clock.Time {
	g := NewBinGrid(o.Lo, o.Hi, o.Bins)
	w := p.BaseWidth
	var rems [][2]clock.Time
	for bi := 0; bi < o.Bins; bi++ {
		b0, b1 := g.bounds[bi], g.bounds[bi+1]
		ia := clock.Time(floorDivTime(b0+w-1, w)) * w
		ib := clock.Time(floorDivTime(b1, w)) * w
		if ia >= ib {
			rems = append(rems, [2]clock.Time{b0, b1})
			continue
		}
		if b0 < ia {
			rems = append(rems, [2]clock.Time{b0, ia})
		}
		if ib < b1 {
			rems = append(rems, [2]clock.Time{ib, b1})
		}
	}
	return rems
}

// remainderFrames counts the frames whose directory bounds overlap at
// least one remainder: what the pyramid engine decodes, and what it
// decoded when it kept every such frame in memory at once.
func remainderFrames(t *testing.T, f *File, rems [][2]clock.Time) int {
	t.Helper()
	fes, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, fe := range fes {
		for _, r := range rems {
			if fe.End >= r[0] && fe.Start <= r[1]-1 {
				n++
				break
			}
		}
	}
	return n
}

// TestSummarizeRemainderRouting stresses the pyramid engine's edge
// remainders, which it answers one frame at a time by routing each
// record to the remainders it overlaps: bins narrower than the base
// width (every bin all remainders), outer states spanning hundreds of
// remainders, zero-duration records exactly on remainder bounds, windows
// clipping records at Lo and Hi, and all of it again over a file with a
// frame source, which the remainders never consult.
// Every case must match the scan and decode exactly the frames that
// overlap a remainder.
func TestSummarizeRemainderRouting(t *testing.T) {
	for hv := uint32(1); hv <= CurrentHeaderVersion; hv += CurrentHeaderVersion - 1 {
		_, recs := writePyrFile(t, 31, 1500, hv)
		// Outer states: busy intervals (and one Running) across nearly
		// the whole run, on several lanes.
		for i, typ := range []events.Type{events.EvMarkerState, events.EvMPIBarrier, events.EvIORead, events.EvRunning, events.EvMarkerState} {
			recs = append(recs, Record{
				Type: typ, Bebits: profile.Complete,
				Start: clock.Time(i+1) * 173 * clock.Microsecond, Dura: 95*clock.Millisecond + clock.Time(i)*clock.Microsecond,
				CPU: uint16(i % 4), Node: uint16(i % 2), Thread: uint16(i),
				Extra: []uint64{1, 2, 3, 0, 0, 0},
			})
		}
		opts := PyramidOptions{BaseCells: 64}
		probe, _ := openPair(t, writePyrRecords(t, recs, hv), opts)
		p := probe.Pyramid()
		first, last, _, err := probe.Stats()
		if err != nil {
			t.Fatal(err)
		}
		span, w := last-first, p.BaseWidth
		cases := []struct {
			name string
			o    WindowSummaryOptions
		}{
			{"sub-base", WindowSummaryOptions{Bins: int(4*span/w) + 3, Lo: first, Hi: last}},
			{"hundreds", WindowSummaryOptions{Bins: 300, Lo: first, Hi: last}},
			{"mixed", WindowSummaryOptions{Bins: 13, Lo: first + 7, Hi: last - 11}},
			{"clipped", WindowSummaryOptions{Bins: 50, Lo: first + span/3 + 7, Hi: first + 2*span/3 - 11}},
			{"clipped-sub-base", WindowSummaryOptions{Bins: 64, Lo: first + span/2 + 3, Hi: first + span/2 + 3*w - 5}},
		}
		// Zero-duration records exactly at every remainder bound of the
		// mixed case, busy and not; the run's bounds, and so the
		// pyramid's geometry, stay as they were.
		for _, r := range remainderSpans(p, cases[2].o) {
			for _, at := range r {
				for _, typ := range []events.Type{events.EvMPISend, events.EvRunning} {
					recs = append(recs, Record{Type: typ, Bebits: profile.Complete, Start: at, Node: 1, CPU: 2, Thread: 3, Extra: []uint64{0, 0, 0, 0, 0, 0}})
				}
			}
		}
		f, bare := openPair(t, writePyrRecords(t, recs, hv), opts)
		if f.Pyramid().BaseWidth != w {
			t.Fatalf("v%d: planting moved the base width %v -> %v", hv, w, f.Pyramid().BaseWidth)
		}
		check := func(label string) {
			for _, tc := range cases {
				label := fmt.Sprintf("v%d/%s/%s", hv, label, tc.name)
				rems := remainderSpans(f.Pyramid(), tc.o)
				before := f.DecodedFrames()
				pyr := summarize(t, label, f, tc.o, "pyramid")
				if got, want := pyr.FramesDecoded, remainderFrames(t, f, rems); got != want || want == 0 {
					t.Fatalf("%s: decoded %d frames, %d overlap a remainder", label, got, want)
				}
				if after := f.DecodedFrames(); after-before != int64(pyr.FramesDecoded) {
					t.Fatalf("%s: %d frames fetched for %d reported", label, after-before, pyr.FramesDecoded)
				}
				scan := summarize(t, label, bare, tc.o, "scan")
				assertSummariesEqual(t, label, pyr, scan)
				if tc.name == "sub-base" || tc.name == "hundreds" {
					if pyr.CellsUsed != 0 || len(rems) != tc.o.Bins {
						t.Fatalf("%s: %d cells, %d remainders for %d bins: not all remainders", label, pyr.CellsUsed, len(rems), tc.o.Bins)
					}
					if pyr.FramesDecoded != scan.FramesDecoded {
						t.Fatalf("%s: remainders tile the window but decoded %d frames of the scan's %d", label, pyr.FramesDecoded, scan.FramesDecoded)
					}
				}
			}
		}
		check("nosource")
		f.SetFrameSource(refusingSource{t})
		check("source")
	}
}

func TestSummarizeDegenerateWindowFallsBack(t *testing.T) {
	sb, _ := writePyrFile(t, 9, 400, CurrentHeaderVersion)
	f, bare := openPair(t, sb, PyramidOptions{BaseCells: 32})
	first, last, _, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Windows the partition cannot reproduce — narrower than the bin
	// count (some buckets are empty and their boundary semantics depend
	// on event positions), zero-span — are the scan's even with a
	// pyramid attached, and the answer is the sidecar-less file's. A
	// window beyond the run is an ordinary one: the pyramid answers it,
	// emptily.
	for _, tc := range []struct {
		name   string
		o      WindowSummaryOptions
		engine string
	}{
		{"span<bins", WindowSummaryOptions{Bins: 50, Lo: first, Hi: first + 10}, "scan"},
		{"zero-span", WindowSummaryOptions{Bins: 1, Lo: first + 5, Hi: first + 5}, "scan"},
		{"zero-span-many-bins", WindowSummaryOptions{Bins: 7, Lo: first + 5, Hi: first + 5}, "scan"},
		{"beyond-run", WindowSummaryOptions{Bins: 4, Lo: last + 1000, Hi: last + 5000}, "pyramid"},
	} {
		got := summarize(t, tc.name, f, tc.o, tc.engine)
		if len(got.Bins) != tc.o.Bins {
			t.Fatalf("%s: got %d bins, want %d", tc.name, len(got.Bins), tc.o.Bins)
		}
		assertSummariesEqual(t, tc.name, got, summarize(t, tc.name, bare, tc.o, "scan"))
	}
	beyond := summarize(t, "beyond-run", bare, WindowSummaryOptions{Bins: 4, Lo: last + 1000, Hi: last + 5000}, "scan")
	for i, b := range beyond.Bins {
		if b.PeakConc != 0 || b.BusyByType != nil || b.BusyByLane != nil {
			t.Fatalf("beyond-run bin %d is not empty: %+v", i, b)
		}
	}
}

func TestSummarizeValidation(t *testing.T) {
	sb, _ := writePyrFile(t, 2, 300, CurrentHeaderVersion)
	f, _ := openPair(t, sb, PyramidOptions{BaseCells: 16})
	for _, files := range [][]*File{{f}, {f, f}} {
		if _, err := SummarizeWindow(files, WindowSummaryOptions{Bins: 0, Lo: 0, Hi: 10}); err == nil {
			t.Fatal("accepted 0 bins")
		}
		if _, err := SummarizeWindow(files, WindowSummaryOptions{Bins: 1, Lo: 10, Hi: 0}); err == nil {
			t.Fatal("accepted inverted window")
		}
	}
}

// TestSummarizeFileList: the scan takes the file list MapFrames takes —
// the pyramid answers one file only — and a list is summarized as the
// union of its records: the same trace twice doubles every sum and
// count and, concurrency being a property of the merged event set,
// every peak.
func TestSummarizeFileList(t *testing.T) {
	sb, _ := writePyrFile(t, 6, 900, CurrentHeaderVersion)
	f, bare := openPair(t, sb, PyramidOptions{BaseCells: 64})
	first, last, _, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	o := WindowSummaryOptions{Bins: 9, Lo: first + 3, Hi: last - 7}
	one := summarize(t, "one", bare, o, "scan")
	for _, par := range []int{1, 4} {
		o.Parallel = par
		two, err := SummarizeWindow([]*File{f, f}, o)
		if err != nil {
			t.Fatal(err)
		}
		if two.Engine != "scan" || two.FramesDecoded != 2*one.FramesDecoded {
			t.Fatalf("two files: engine %q, %d frames (one file: %d)", two.Engine, two.FramesDecoded, one.FramesDecoded)
		}
		if !reflect.DeepEqual(two.Lanes, one.Lanes) {
			t.Fatalf("two files: lanes %v, one file %v", two.Lanes, one.Lanes)
		}
		for i, b := range one.Bins {
			want := BinSummary{Start: b.Start, PeakConc: 2 * b.PeakConc}
			for ty, v := range b.BusyByType {
				if want.BusyByType == nil {
					want.BusyByType = map[events.Type]clock.Time{}
				}
				want.BusyByType[ty] = 2 * v
			}
			for _, v := range b.BusyByLane {
				want.BusyByLane = append(want.BusyByLane, 2*v)
			}
			if !reflect.DeepEqual(two.Bins[i], want) {
				t.Fatalf("j%d bin %d:\n got %+v\nwant %+v", par, i, two.Bins[i], want)
			}
		}
	}
}

func TestPyramidEmptyFile(t *testing.T) {
	sb := writeTestFile(t, 0, WriterOptions{})
	f, _ := openPair(t, sb, PyramidOptions{})
	if p := f.Pyramid(); len(p.Levels) != 0 {
		t.Fatalf("empty file built %d levels", len(p.Levels))
	}
	summarize(t, "empty pyramid", f, WindowSummaryOptions{Bins: 4, Lo: 0, Hi: 100}, "scan")
}

// writeTraceOnDisk materializes a generated trace as a real file so the
// sidecar paths (Open auto-load, staleness, fault injection) apply.
func writeTraceOnDisk(t *testing.T, dir string, seed uint64, n int, hv uint32) string {
	t.Helper()
	sb, _ := writePyrFile(t, seed, n, hv)
	path := filepath.Join(dir, fmt.Sprintf("trace-%d-v%d.ute", seed, hv))
	if err := os.WriteFile(path, sb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenAutoLoadsSidecar(t *testing.T) {
	dir := t.TempDir()
	path := writeTraceOnDisk(t, dir, 4, 600, CurrentHeaderVersion)
	if _, err := BuildPyramidSidecar(path, PyramidOptions{BaseCells: 64}); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Pyramid() == nil {
		t.Fatal("Open did not attach the sidecar pyramid")
	}
	f2, err := Open(path, WithPyramid(false))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.Pyramid() != nil {
		t.Fatal("WithPyramid(false) still attached the sidecar")
	}
}

func TestPyramidStaleSidecarIgnored(t *testing.T) {
	dir := t.TempDir()
	path := writeTraceOnDisk(t, dir, 4, 600, CurrentHeaderVersion)
	if _, err := BuildPyramidSidecar(path, PyramidOptions{BaseCells: 64}); err != nil {
		t.Fatal(err)
	}
	// Rewrite the trace with different contents; the sidecar is now
	// stale and must not be trusted.
	sb, _ := writePyrFile(t, 77, 900, CurrentHeaderVersion)
	if err := os.WriteFile(path, sb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatalf("stale sidecar prevented opening: %v", err)
	}
	defer f.Close()
	if f.Pyramid() != nil {
		t.Fatal("stale sidecar was attached")
	}
	if _, err := LoadPyramid(PyramidPath(path), f); err == nil {
		t.Fatal("LoadPyramid accepted a stale sidecar")
	}
}

// TestPyramidSidecarFaults is the advisory-sidecar property proof: for
// seeded truncations, bit flips, and torn (zeroed) ranges anywhere in
// the sidecar, Open always succeeds, and the answers the file gives are
// byte-identical to the scan engine's — either the damage is caught and
// the pyramid is dropped, or (for faults in slack the decoder proves
// harmless) the attached pyramid still answers exactly.
func TestPyramidSidecarFaults(t *testing.T) {
	dir := t.TempDir()
	path := writeTraceOnDisk(t, dir, 21, 1000, CurrentHeaderVersion)
	if _, err := BuildPyramidSidecar(path, PyramidOptions{BaseCells: 128}); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(PyramidPath(path))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 40; seed++ {
		in := faultfs.New(seed)
		data := append([]byte(nil), pristine...)
		var fault faultfs.Fault
		switch seed % 3 {
		case 0:
			data, fault = in.Truncate(data, 0)
		case 1:
			data, fault = in.FlipBit(data, 0)
		default:
			data, fault = in.TearZero(data, 0, 64)
		}
		checkDamagedSidecar(t, path, data, fmt.Sprintf("seed%d/%v", seed, fault))
	}
	// Boundary cases the random faults may miss.
	checkDamagedSidecar(t, path, nil, "empty sidecar")
	checkDamagedSidecar(t, path, pristine[:7], "sub-magic sidecar")
	if err := os.Remove(PyramidPath(path)); err != nil {
		t.Fatal(err)
	}
	checkDamagedSidecar(t, path, nil, "missing sidecar")
}

func checkDamagedSidecar(t *testing.T, path string, sidecar []byte, label string) {
	t.Helper()
	if sidecar != nil {
		if err := os.WriteFile(PyramidPath(path), sidecar, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := Open(path)
	if err != nil {
		t.Fatalf("%s: damaged sidecar prevented opening: %v", label, err)
	}
	defer f.Close()
	first, last, _, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	bare, err := Open(path, WithPyramid(false))
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	span := last - first
	for _, bins := range []int{1, 16} {
		o := WindowSummaryOptions{Bins: bins, Lo: first + span/5, Hi: last - span/5}
		got, err := SummarizeWindow([]*File{f}, o)
		if err != nil {
			t.Fatalf("%s: query failed: %v", label, err)
		}
		assertSummariesEqual(t, label, got, summarize(t, label, bare, o, "scan"))
	}
}

// TestSummarizeScanMatchesRecords cross-checks the scan engine itself
// against a from-records reference on the raw record slice, so the
// differential suite is anchored to something other than the code under
// test: summed over the bins, busy time by type and by lane is each
// record's overlap with the window.
func TestSummarizeScanMatchesRecords(t *testing.T) {
	sb, recs := writePyrFile(t, 13, 800, CurrentHeaderVersion)
	f := openFile(t, sb)
	first, last, _, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := first+(last-first)/7, last-(last-first)/5
	ws := summarize(t, "records", f, WindowSummaryOptions{Bins: 9, Lo: lo, Hi: hi}, "scan")
	wantType, wantLane := map[events.Type]clock.Time{}, map[Lane]clock.Time{}
	for i := range recs {
		r := &recs[i]
		ov := min(r.Start+r.Dura, hi) - max(r.Start, lo)
		if r.Dura < 0 || ov <= 0 {
			continue
		}
		wantType[r.Type] += ov
		if busyType(r.Type) {
			wantLane[Lane{Node: r.Node, CPU: r.CPU}] += ov
		}
	}
	gotType, gotLane := map[events.Type]clock.Time{}, map[Lane]clock.Time{}
	for i := range ws.Bins {
		for ty, v := range ws.Bins[i].BusyByType {
			gotType[ty] += v
		}
		for l, v := range ws.Bins[i].BusyByLane {
			gotLane[ws.Lanes[l]] += v
		}
	}
	if len(wantType) == 0 || len(wantLane) == 0 {
		t.Fatal("window holds no busy time: the check is vacuous")
	}
	if !reflect.DeepEqual(gotType, wantType) {
		t.Fatalf("busy by type:\n scan    %v\n records %v", gotType, wantType)
	}
	if !reflect.DeepEqual(gotLane, wantLane) {
		t.Fatalf("busy by lane:\n scan    %v\n records %v", gotLane, wantLane)
	}
}

// TestScaleBinNoOverflow: the bin guess must not overflow anywhere below
// the largest bin count a statistics request may name (65536): offsets
// near a span of 2^62 ns times that many bins pass 2^63 many times over.
func TestScaleBinNoOverflow(t *testing.T) {
	const span, bins = int64(1) << 62, 1 << 16
	for _, tc := range []struct {
		off  int64
		want int
	}{
		{-5, 0}, {0, 0}, {span / 2, bins / 2}, {span - 1, bins - 1}, {span, bins - 1},
		{span/bins*12345 + 7, 12345},
	} {
		if got := scaleBin(tc.off, span, bins); got != tc.want {
			t.Fatalf("scaleBin(%d, 2^62, %d) = %d, want %d", tc.off, bins, got, tc.want)
		}
	}
}
