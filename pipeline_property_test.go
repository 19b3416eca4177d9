package tracefw

// Whole-pipeline property tests: random SPMD workloads are pushed
// through trace → convert → merge → SLOG, and cross-stage invariants are
// checked for every seed. These are the repository's strongest
// integration guarantees: they hold for arbitrary interleavings of
// computation, blocking and nonblocking communication, collectives,
// markers, and I/O.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"tracefw/internal/convert"
	"tracefw/internal/core"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/profile"
	"tracefw/internal/slog"
	"tracefw/internal/testutil"
	"tracefw/internal/workload"
)

func TestPipelinePropertiesRandomWorkloads(t *testing.T) {
	shapes := []struct {
		nodes, tpn, cpus int
	}{
		{1, 1, 1},
		{2, 1, 2},
		{2, 2, 2},
		{3, 2, 4},
	}
	for seed := uint64(1); seed <= 16; seed++ {
		sh := shapes[int(seed)%len(shapes)]
		run, err := core.Execute(core.Config{
			Nodes:        sh.nodes,
			CPUsPerNode:  sh.cpus,
			TasksPerNode: sh.tpn,
			Seed:         seed * 7,
			Convert:      interval.WriterOptions{FrameBytes: 4096},
		}, workload.Random{Seed: seed, Steps: 25}.Main())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkPipelineInvariants(t, seed, run)
		run.Close()
	}
}

func checkPipelineInvariants(t *testing.T, seed uint64, run *core.Run) {
	t.Helper()

	// Invariant 1: the merged file is structurally valid against the
	// standard profile (ordering, frame metadata, record layouts).
	if _, err := run.Merged.Validate(profile.Standard()); err != nil {
		t.Fatalf("seed %d: merged file invalid: %v", seed, err)
	}

	recs, err := run.Merged.Scan().All()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}

	// Invariant 2: per thread, pieces never overlap (the innermost-state
	// timeline is a partial function of time). Zero-duration records are
	// exempt: point events (PageMiss) and the merge's frame-start pseudo
	// continuations legitimately sit inside enclosing pieces.
	perThread := map[[2]uint16][]interval.Record{}
	for _, r := range recs {
		if r.Type == events.EvGlobalClock || r.Dura == 0 {
			continue
		}
		k := [2]uint16{r.Node, r.Thread}
		perThread[k] = append(perThread[k], r)
	}
	for k, rs := range perThread {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
		for i := 1; i < len(rs); i++ {
			if rs[i].Start < rs[i-1].End() {
				t.Fatalf("seed %d: thread %v pieces overlap:\n%v\n%v", seed, k, rs[i-1], rs[i])
			}
		}
	}

	// Invariant 3: per state, begin/end pieces balance exactly and every
	// piece sequence is begin (continuation)* end.
	type skey struct {
		node, thread uint16
		ty           events.Type
	}
	openCount := map[skey]int{}
	for _, r := range recs {
		if r.Type == events.EvGlobalClock {
			continue
		}
		k := skey{r.Node, r.Thread, r.Type}
		switch r.Bebits {
		case profile.Begin:
			openCount[k]++
		case profile.Continuation:
			if openCount[k] <= 0 {
				t.Fatalf("seed %d: continuation of %s with nothing open", seed, r.Type.Name())
			}
		case profile.End:
			if openCount[k] <= 0 {
				t.Fatalf("seed %d: end of %s with nothing open", seed, r.Type.Name())
			}
			openCount[k]--
		}
	}
	for k, n := range openCount {
		if n != 0 {
			t.Fatalf("seed %d: %d unclosed %s states on n%d/t%d", seed, n, k.ty.Name(), k.node, k.thread)
		}
	}

	// Invariant 4: bytes conservation — total msgSizeSent on final send
	// pieces equals total msgSizeRecv on final receive-completion pieces
	// (every message is sent once and received once).
	var sent, recvd uint64
	for _, r := range recs {
		if r.Bebits != profile.Complete && r.Bebits != profile.End {
			continue
		}
		switch r.Type {
		case events.EvMPISend, events.EvMPIIsend, events.EvMPISsend, events.EvMPISendrecv:
			v, _ := r.Field(events.FieldMsgSizeSent)
			sent += v
		}
		switch r.Type {
		case events.EvMPIRecv, events.EvMPISendrecv:
			v, _ := r.Field(events.FieldMsgSizeRecv)
			recvd += v
		case events.EvMPIWait:
			v, _ := r.Field(events.FieldMsgSizeRecv)
			recvd += v
		case events.EvMPIWaitall:
			for i := 2; i < len(r.Vec); i += 3 {
				recvd += r.Vec[i]
			}
		}
	}
	if sent != recvd {
		t.Fatalf("seed %d: bytes not conserved: sent %d, received %d", seed, sent, recvd)
	}

	// Invariant 5: every point-to-point message produced exactly one
	// arrow (seqno-matched), so arrows == messages sent.
	var messages int64
	for _, r := range recs {
		if r.Bebits != profile.Complete && r.Bebits != profile.End {
			continue
		}
		switch r.Type {
		case events.EvMPISend, events.EvMPIIsend, events.EvMPISsend, events.EvMPISendrecv:
			if v, _ := r.Field(events.FieldSeqno); v != 0 {
				messages++
			}
		}
	}
	if run.SlogResult.Arrows != messages {
		t.Fatalf("seed %d: %d arrows for %d messages", seed, run.SlogResult.Arrows, messages)
	}

	// Invariant 6: preview durations conserve per-state record time,
	// exactly (the bin ruler's edges tile the run).
	perState := map[events.Type]int64{}
	for _, r := range recs {
		perState[r.Type] += int64(r.Dura)
	}
	for si, ty := range run.Slog.Preview.States {
		var got int64
		for _, d := range run.Slog.Preview.Dur[si] {
			got += int64(d)
		}
		if got != perState[ty] {
			t.Fatalf("seed %d: preview %s duration %d vs records %d", seed, ty.Name(), got, perState[ty])
		}
	}
}

// TestParallelPipelineMatchesSynchronous: over random workloads with
// drifting clocks, the parallel pipeline (worker-pool convert, merge at
// width 4) emits convert outputs and a merged record stream
// byte-identical to the fully synchronous pipeline, across estimators
// and clock-record retention.
func TestParallelPipelineMatchesSynchronous(t *testing.T) {
	estimators := []merge.Estimator{
		merge.EstimatorRMS, merge.EstimatorLastPair, merge.EstimatorPiecewise, merge.EstimatorNone,
	}
	for seed := uint64(1); seed <= 8; seed++ {
		raws, _, err := core.Generate(core.Config{
			Nodes:        3,
			CPUsPerNode:  2,
			TasksPerNode: 2,
			Seed:         seed,
			Drifts:       []float64{40e-6, -25e-6, 10e-6},
		}, workload.Random{Seed: seed, Steps: 30}.Main())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		mopts := merge.Options{
			Estimator:        estimators[int(seed)%len(estimators)],
			KeepClockRecords: seed%2 == 0,
		}
		pipeline := func(parallel int) (convOuts [][]byte, merged []byte) {
			t.Helper()
			outs, _, err := convert.ConvertBuffers(raws, convert.Options{
				Writer:   interval.WriterOptions{FrameBytes: 4096},
				Parallel: parallel,
			})
			if err != nil {
				t.Fatalf("seed %d parallel %d: convert: %v", seed, parallel, err)
			}
			files := make([]*interval.File, len(outs))
			for i, sb := range outs {
				convOuts = append(convOuts, sb.Bytes())
				if files[i], err = interval.NewFile(sb); err != nil {
					t.Fatal(err)
				}
			}
			mo := mopts
			mo.Writer = interval.WriterOptions{FrameBytes: 4096}
			mo.Parallel = parallel
			msb := interval.NewSeekBuffer()
			if _, err := merge.Merge(files, msb, mo); err != nil {
				t.Fatalf("seed %d parallel %d: merge: %v", seed, parallel, err)
			}
			return convOuts, msb.Bytes()
		}

		seqConv, seqMerged := pipeline(1)
		for _, width := range []int{2, 6} {
			parConv, parMerged := pipeline(width)
			for i := range seqConv {
				if !bytes.Equal(parConv[i], seqConv[i]) {
					t.Fatalf("seed %d width %d: convert output %d differs from synchronous run", seed, width, i)
				}
			}
			if !bytes.Equal(parMerged, seqMerged) {
				t.Fatalf("seed %d width %d: merged output differs from synchronous run", seed, width)
			}
		}
	}
}

// TestSealTimeBuildsMatchReopenedFile guards utemerge's one-decode path
// (slog.MergeFiles), over the random-workload corpus: a SLOG planner fed
// the merge writer's sealed batches, and the SLOG and pyramid then built
// from one pass over the file just written, must equal slog.Build and
// BuildPyramidSidecar over the reopened file byte for byte. The merge is
// run at the default and a tiny frame size; its records are then sealed
// again through a writer at every header version, so the fixed-width
// frames (whose vector records a decoder splits by the type's field
// table) feed the planner too.
func TestSealTimeBuildsMatchReopenedFile(t *testing.T) {
	shapes := []struct {
		nodes, tpn, cpus int
	}{
		{1, 1, 1},
		{2, 1, 2},
		{2, 2, 2},
		{3, 2, 4},
	}
	for seed := uint64(1); seed <= 8; seed++ {
		sh := shapes[int(seed)%len(shapes)]
		raws, _, err := core.Generate(core.Config{
			Nodes:        sh.nodes,
			CPUsPerNode:  sh.cpus,
			TasksPerNode: sh.tpn,
			Seed:         seed * 7,
		}, workload.Random{Seed: seed, Steps: 25}.Main())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dir := t.TempDir()
		paths := testutil.ConvertToDisk(t, raws, interval.WriterOptions{FrameBytes: 4096}, dir)
		pyr := interval.PyramidOptions{BaseCells: 64}
		for _, fb := range []int{0, 600} {
			label := fmt.Sprintf("seed %d frame bytes %d", seed, fb)
			sopts := slog.Options{FrameBytes: fb}
			merged, slogPath := filepath.Join(dir, "merged.ute"), filepath.Join(dir, "trace.slog")
			mr, err := slog.MergeFiles(paths, merged, slogPath, &pyr,
				merge.Options{Writer: interval.WriterOptions{FrameBytes: fb}}, sopts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			gotSlog, err := os.ReadFile(slogPath)
			if err != nil {
				t.Fatal(err)
			}
			gotPyr, _ := os.ReadFile(interval.PyramidPath(merged)) // absent when declined
			sb, err := interval.BuildPyramidSidecar(merged, pyr)
			if err != nil {
				t.Fatal(err)
			}
			wantPyr, _ := os.ReadFile(interval.PyramidPath(merged))
			if !bytes.Equal(gotPyr, wantPyr) || !bytes.Equal(mr.Sidecar.Pyramid.Encode(), sb.Pyramid.Encode()) {
				t.Fatalf("%s: the seal-time pyramid differs from BuildPyramidSidecar's", label)
			}
			mf, err := interval.Open(merged, interval.WithPyramid(false))
			if err != nil {
				t.Fatal(err)
			}
			wantSlog := interval.NewSeekBuffer()
			if _, err := slog.Build(mf, wantSlog, sopts); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotSlog, wantSlog.Bytes()) {
				t.Fatalf("%s: the seal-time SLOG differs from slog.Build's", label)
			}

			recs, err := mf.Scan().All()
			if err != nil {
				t.Fatal(err)
			}
			for hv := uint32(1); hv <= interval.CurrentHeaderVersion; hv++ {
				label := fmt.Sprintf("%s v%d", label, hv)
				hdr := mf.Header
				hdr.HeaderVersion = hv
				p := slog.NewPlanner(hdr.Threads, sopts)
				out := interval.NewSeekBuffer()
				w, err := interval.NewWriter(out, hdr, interval.WriterOptions{FrameBytes: fb, OnFrame: p.Observe})
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
				sealed, err := interval.NewFile(interval.NewSeekBufferFrom(out.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				pb, err := interval.NewPyramidBuilder(sealed, pyr)
				if err != nil {
					t.Fatal(err)
				}
				got := interval.NewSeekBuffer()
				if _, err := p.Write(sealed, got, pb.Add); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				reopened, err := interval.NewFile(interval.NewSeekBufferFrom(out.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				want := interval.NewSeekBuffer()
				if _, err := slog.Build(reopened, want, sopts); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s: the seal-time SLOG differs from slog.Build's", label)
				}
				wantP, err := interval.BuildPyramid(reopened, pyr)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(pb.Pyramid().Encode(), wantP.Encode()) {
					t.Fatalf("%s: the seal-time pyramid differs from BuildPyramid's", label)
				}
			}
			mf.Close()
		}
	}
}

// TestPipelineSoak pushes a substantially larger random workload through
// the pipeline to exercise multi-directory interval files and many-frame
// SLOG files under the same invariants.
func TestPipelineSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	run, err := core.Execute(core.Config{
		Nodes:        4,
		CPUsPerNode:  4,
		TasksPerNode: 2,
		Seed:         99,
		Convert:      interval.WriterOptions{FrameBytes: 8 << 10, FramesPerDir: 4},
	}, workload.Random{Seed: 99, Steps: 500}.Main())
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if run.TotalEvents() < 12000 {
		t.Fatalf("soak run too small: %d events", run.TotalEvents())
	}
	checkPipelineInvariants(t, 99, run)
	// The merged file must span several directories.
	dirs, err := run.Merged.Dirs()
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 3 {
		t.Fatalf("soak produced only %d directories", len(dirs))
	}
	if len(run.Slog.Index) < 8 {
		t.Fatalf("soak produced only %d slog frames", len(run.Slog.Index))
	}
}
