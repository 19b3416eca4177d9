package slog_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/mpisim"
	"tracefw/internal/profile"
	"tracefw/internal/slog"
	"tracefw/internal/testutil"
)

var shape = testutil.Shape{Nodes: 2, TasksPerNode: 1, CPUs: 2, Seed: 5}

// phased is the workload most assertions here run on.
var phased = testutil.PhasedWork

func buildSlog(t *testing.T, opts slog.Options, work func(*mpisim.Proc)) (*slog.File, *slog.BuildResult) {
	t.Helper()
	mf, _ := testutil.Pipeline(t, shape, merge.Options{}, work)
	sb := interval.NewSeekBuffer()
	res, err := slog.Build(mf, sb, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := slog.Read(sb)
	if err != nil {
		t.Fatal(err)
	}
	return f, res
}

func TestBuildAndReadRoundTrip(t *testing.T) {
	f, res := buildSlog(t, slog.Options{FrameBytes: 2048}, phased)
	if res.Frames < 3 {
		t.Fatalf("only %d frames", res.Frames)
	}
	if len(f.Index) != res.Frames {
		t.Fatalf("index has %d entries, result says %d", len(f.Index), res.Frames)
	}
	if f.TEnd <= f.TStart {
		t.Fatalf("time span [%v %v]", f.TStart, f.TEnd)
	}
	if len(f.Threads) != 2 {
		t.Fatalf("threads: %d", len(f.Threads))
	}
	if f.Markers[1] != "Main Phase" {
		t.Fatalf("markers: %v", f.Markers)
	}
	// Total records across frames match the build count plus pseudo data.
	var n int64
	for i := range f.Index {
		fd, err := f.ReadFrame(i)
		if err != nil {
			t.Fatal(err)
		}
		n += int64(len(fd.Intervals))
	}
	if n != res.Records {
		t.Fatalf("frames hold %d interval records, build saw %d", n, res.Records)
	}
}

func TestFrameAtBinarySearch(t *testing.T) {
	f, _ := buildSlog(t, slog.Options{FrameBytes: 1024}, phased)
	for _, probe := range []clock.Time{f.TStart, (f.TStart + f.TEnd) / 2, f.TEnd} {
		i, ok := f.FrameAt(probe)
		if !ok {
			t.Fatalf("no frame for %v", probe)
		}
		if f.Index[i].End < probe {
			t.Fatalf("frame %d ends %v before probe %v", i, f.Index[i].End, probe)
		}
		if i > 0 && f.Index[i-1].End >= probe {
			t.Fatalf("frame %d not the first covering %v", i, probe)
		}
	}
	if _, ok := f.FrameAt(f.TEnd + clock.Second); ok {
		t.Fatal("probe past end found a frame")
	}
}

func TestArrowsMatched(t *testing.T) {
	f, res := buildSlog(t, slog.Options{FrameBytes: 4096}, phased)
	// 60 iterations × 2 directions = 120 messages.
	if res.Arrows != 120 {
		t.Fatalf("arrows = %d, want 120", res.Arrows)
	}
	var seen int
	for i := range f.Index {
		fd, _ := f.ReadFrame(i)
		for _, a := range fd.Arrows {
			seen++
			if a.RecvTime < a.SendTime {
				t.Fatalf("arrow backwards: %+v", a)
			}
			if a.Bytes != 1024 {
				t.Fatalf("arrow bytes %d", a.Bytes)
			}
			if a.SrcNode == a.DstNode {
				t.Fatalf("arrow within one node: %+v", a)
			}
			// The arrow must land in the frame containing its recv time.
			if f.Index[i].End < a.RecvTime || (i > 0 && f.Index[i-1].End >= a.RecvTime) {
				t.Fatalf("arrow recv %v misplaced in frame %d [%v %v]",
					a.RecvTime, i, f.Index[i].Start, f.Index[i].End)
			}
		}
	}
	if int64(seen) != res.Arrows {
		t.Fatalf("read %d arrows, build made %d", seen, res.Arrows)
	}
}

func TestCrossingArrowCopies(t *testing.T) {
	// A message sent at the start and received at the very end spans all
	// frames: middle frames must carry pseudo copies.
	work := func(p *mpisim.Proc) {
		if p.Rank() == 0 {
			p.Send(1, 99, 512) // eager: completes immediately
			for i := 0; i < 50; i++ {
				p.Compute(clock.Millisecond)
				p.Sendrecv(1, int32(i), 256, 1, int32(i))
			}
		} else {
			for i := 0; i < 50; i++ {
				p.Compute(clock.Millisecond)
				p.Sendrecv(0, int32(i), 256, 0, int32(i))
			}
			p.Recv(0, 99) // received long after it was sent
		}
	}
	f, _ := buildSlog(t, slog.Options{FrameBytes: 1024}, work)
	if len(f.Index) < 4 {
		t.Fatalf("need several frames, got %d", len(f.Index))
	}
	// Find the long arrow's frame and check middle frames have copies.
	copies := 0
	for i := range f.Index {
		fd, _ := f.ReadFrame(i)
		for _, a := range fd.Crossing {
			if a.Tag == 99 {
				copies++
			}
		}
	}
	if copies == 0 {
		t.Fatal("no crossing copies of the long arrow")
	}

	f2, _ := buildSlog(t, slog.NoCrossingCopies(slog.Options{FrameBytes: 1024}), work)
	for i := range f2.Index {
		fd, _ := f2.ReadFrame(i)
		if len(fd.Crossing) != 0 {
			t.Fatal("NoCrossingCopies still produced copies")
		}
	}
}

func TestPseudoIntervalsInFrames(t *testing.T) {
	f, _ := buildSlog(t, slog.Options{FrameBytes: 1024}, phased)
	// The marker is open for nearly the whole run: frames after the first
	// must carry marker pseudo continuations.
	withPseudo := 0
	for i := 1; i < len(f.Index)-1; i++ {
		fd, _ := f.ReadFrame(i)
		for _, r := range fd.Pseudo {
			if r.Type == events.EvMarkerState && r.Dura == 0 && r.Bebits == profile.Continuation {
				withPseudo++
				break
			}
		}
	}
	if withPseudo < len(f.Index)/2 {
		t.Fatalf("only %d/%d middle frames carry marker pseudo intervals", withPseudo, len(f.Index)-2)
	}
}

func TestPreviewAccounting(t *testing.T) {
	f, _ := buildSlog(t, slog.WithBins(slog.Options{FrameBytes: 4096}, 40), phased)
	p := f.Preview
	if len(p.Dur) != len(events.StateTypes) || len(p.Dur[0]) != 40 {
		t.Fatalf("preview shape %dx%d", len(p.Dur), len(p.Dur[0]))
	}
	// Total allocated duration per state equals the sum of record
	// durations of that state, to the nanosecond: proportional allocation
	// over the integer bin ruler conserves time, the last edge included.
	mf, _ := testutil.Pipeline(t, shape, merge.Options{}, phased)
	want := map[events.Type]clock.Time{}
	recs, _ := mf.Scan().All()
	for _, r := range recs {
		want[r.Type] += r.Dura
	}
	for si, ty := range p.States {
		var got clock.Time
		for _, d := range p.Dur[si] {
			got += d
		}
		if got != want[ty] {
			t.Fatalf("state %s preview duration %d ns, records say %d ns", ty.Name(), got, want[ty])
		}
	}
	// Send count: 60 sends per direction plus pieces do not inflate it.
	si := stateIdx(p.States, events.EvMPISend)
	if p.Count[si] != 120 {
		t.Fatalf("send count %d, want 120", p.Count[si])
	}
	// Bin bounds tile the run.
	lo, _ := p.BinBounds(0)
	_, hi := p.BinBounds(39)
	if lo != p.TStart || hi != p.TEnd {
		t.Fatalf("bin bounds [%v %v] vs run [%v %v]", lo, hi, p.TStart, p.TEnd)
	}
}

// TestSlogmerge: the paper's slogmerge — merge the per-node files and
// convert the result to SLOG in one job (MergeFiles) — writes the SLOG
// file slog.Build writes from the merged file, byte for byte.
func TestSlogmerge(t *testing.T) {
	dir := t.TempDir()
	paths := testutil.ConvertToDisk(t, testutil.RunWorkload(t, shape, phased), interval.WriterOptions{}, dir)
	merged, slogPath := filepath.Join(dir, "merged.ute"), filepath.Join(dir, "trace.slog")
	mr, err := slog.MergeFiles(paths, merged, slogPath, nil, merge.Options{}, slog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mr.Merge.Records == 0 || mr.Slog.Records == 0 {
		t.Fatalf("empty slogmerge: %+v %+v", mr.Merge, mr.Slog)
	}
	f, err := slog.Open(slogPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if len(f.Index) != mr.Slog.Frames {
		t.Fatalf("frames %d vs %d", len(f.Index), mr.Slog.Frames)
	}
	mf, err := interval.Open(merged)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	want := interval.NewSeekBuffer()
	if _, err := slog.Build(mf, want, slog.Options{}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(slogPath); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("slogmerge's SLOG differs from slog.Build's (%v)", err)
	}
}

// TestMergeFilesDecodesOnce: utemerge -slog reads the merged file it has
// just written once, with or without a pyramid — the SLOG's first pass
// rides on the merge writer's sealed frames and the pyramid on the
// SLOG's second pass (the three builds used to decode it three times).
func TestMergeFilesDecodesOnce(t *testing.T) {
	dir := t.TempDir()
	paths := testutil.ConvertToDisk(t, testutil.RunWorkload(t, shape, phased), interval.WriterOptions{}, dir)
	merged := filepath.Join(dir, "merged.ute")
	for _, tc := range []struct {
		name string
		slog string
		pyr  *interval.PyramidOptions
	}{
		{"slog+pyramid", filepath.Join(dir, "trace.slog"), &interval.PyramidOptions{BaseCells: 16}},
		{"slog", filepath.Join(dir, "trace.slog"), nil},
	} {
		mr, err := slog.MergeFiles(paths, merged, tc.slog, tc.pyr,
			merge.Options{Writer: interval.WriterOptions{FrameBytes: 1024}}, slog.Options{FrameBytes: 1024})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		mf, err := interval.Open(merged)
		if err != nil {
			t.Fatal(err)
		}
		fes, err := mf.Frames()
		mf.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := int64(len(fes))
		if mr.FramesDecoded != want || len(fes) < 3 {
			t.Fatalf("%s: decoded %d frames of the merged file's %d, want %d", tc.name, mr.FramesDecoded, len(fes), want)
		}
		if mr.Slog == nil || (mr.Sidecar != nil) != (tc.pyr != nil) {
			t.Fatalf("%s: built slog %v, sidecar %v", tc.name, mr.Slog != nil, mr.Sidecar != nil)
		}
	}
}

func TestFrameFetchIndependentOfPosition(t *testing.T) {
	f, _ := buildSlog(t, slog.Options{FrameBytes: 1024}, phased)
	// Fetch the last frame directly; it must decode without touching the
	// earlier ones (correct offsets in the index).
	last := len(f.Index) - 1
	fd, err := f.ReadFrame(last)
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Intervals) == 0 {
		t.Fatal("last frame empty")
	}
	if _, err := f.ReadFrame(-1); err == nil {
		t.Fatal("negative frame index accepted")
	}
	if _, err := f.ReadFrame(last + 1); err == nil {
		t.Fatal("out-of-range frame index accepted")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	sb := interval.NewSeekBuffer()
	sb.Write([]byte("certainly not an slog file, but long enough to parse a header from"))
	if _, err := slog.Read(sb); err == nil {
		t.Fatal("garbage accepted")
	}
}

func stateIdx(states []events.Type, ty events.Type) int {
	for i, s := range states {
		if s == ty {
			return i
		}
	}
	return -1
}

func TestWaitallEnvelopesProduceArrows(t *testing.T) {
	// Halo exchange completed exclusively through Waitall: the arrows
	// must still match via the Waitall records' vector envelopes.
	work := testutil.WaitallWork
	f, res := buildSlog(t, slog.Options{FrameBytes: 4096}, work)
	// 15 messages in each direction.
	if res.Arrows != 30 {
		t.Fatalf("arrows = %d, want 30", res.Arrows)
	}
	for i := range f.Index {
		fd, _ := f.ReadFrame(i)
		for _, a := range fd.Arrows {
			if a.Bytes != 2048 || a.RecvTime < a.SendTime {
				t.Fatalf("bad arrow: %+v", a)
			}
		}
	}
}

// TestBuildParallelByteIdentical: the SLOG writer must emit the exact
// same bytes at every frame-decode worker count — all order-sensitive
// work (matching, partitioning, serialization) runs in the engine's
// frame-order reduce. Do not weaken this to a structural comparison.
func TestBuildParallelByteIdentical(t *testing.T) {
	mf, _ := testutil.Pipeline(t, shape, merge.Options{}, phased)
	build := func(j int) []byte {
		sb := interval.NewSeekBuffer()
		if _, err := slog.Build(mf, sb, slog.Options{FrameBytes: 1024, Parallel: j}); err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), sb.Bytes()...)
	}
	want := build(1)
	for _, j := range []int{2, 4, 9} {
		if !bytes.Equal(build(j), want) {
			t.Fatalf("-j %d slog bytes differ from sequential build", j)
		}
	}
}

// TestBuildHashPinned pins the build's bytes: the SHA-256 of each SLOG
// file was recorded from the build it replaced — phased and waitall from
// the record-at-a-time pass 1, nested and wide from the build that
// buffered every frame as records — so a rewrite of the builder cannot
// move a byte unnoticed. Checked at several worker counts; the Waitall
// workload carries vector envelopes to the matcher, the nested ones keep
// Begin/End pairs open across frames, and on the wide shape the open set
// alone outweighs a frame.
func TestBuildHashPinned(t *testing.T) {
	type pin struct {
		frameBytes, size int
		sha              string
	}
	for _, tc := range []struct {
		name  string
		shape testutil.Shape
		work  func(*mpisim.Proc)
		pins  []pin
	}{
		{"phased", shape, phased, []pin{
			{2048, 61201, "283a1ec675e1e73b07eaa72b034e7ecf0a276a6f0a39d93e3f3c63cfffdc469f"},
		}},
		{"waitall", shape, testutil.WaitallWork, []pin{
			{2048, 21339, "81850cc57c450e6710cf16dfd91b765c43b8bf12fb6dd3f6544f4067a1b343b9"},
		}},
		{"nested", shape, testutil.NestedWork(40), []pin{
			{1024, 61979, "32bd8419a7dfff623e12903da90928c34a8486b6116dbcb2bd6c4e6be73fddf2"},
			{2048, 56881, "54cec85899cfb856ab9002fc934f8e99a32235c79f98e89f6a395d247dea4260"},
		}},
		{"wide", testutil.WideShape, testutil.NestedWork(6), []pin{
			{1024, 23304016, "29edb25ee8fcb39ecc0ad9b6972de6ae806ece4b249a42664bf9641703d72aa2"},
			{2048, 12181696, "2955ed6aca0c7be87b65ce001092dfd15064a6013ba5154fec94291af2713081"},
		}},
	} {
		mf, _ := testutil.Pipeline(t, tc.shape, merge.Options{}, tc.work)
		for _, pn := range tc.pins {
			for _, par := range []int{0, 1, 4} {
				sb := interval.NewSeekBuffer()
				if _, err := slog.Build(mf, sb, slog.Options{FrameBytes: pn.frameBytes, Parallel: par}); err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(sb.Bytes())); len(sb.Bytes()) != pn.size || got != pn.sha {
					t.Errorf("%s build (frame bytes %d, parallel=%d): %d bytes, sha256 %s; pinned %d bytes, sha256 %s",
						tc.name, pn.frameBytes, par, len(sb.Bytes()), got, pn.size, pn.sha)
				}
			}
		}
	}
}
