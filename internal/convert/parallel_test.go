package convert

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/cluster"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/mpisim"
	"tracefw/internal/trace"
	"tracefw/internal/xrand"
)

// sequentialConvert is the reference implementation the parallel path
// must reproduce byte-for-byte: a plain Convert loop over the inputs in
// the given order, sharing one marker registry.
func sequentialConvert(t *testing.T, raws [][]byte, opts Options) [][]byte {
	t.Helper()
	opts.Markers = NewMarkerRegistry()
	opts.Parallel = 1
	outs := make([][]byte, len(raws))
	for i, raw := range raws {
		sb := interval.NewSeekBuffer()
		if _, err := Convert(bytes.NewReader(raw), sb, opts); err != nil {
			t.Fatalf("sequential convert of input %d: %v", i, err)
		}
		outs[i] = sb.Bytes()
	}
	return outs
}

// markerWorkload produces per-node raw traces whose conversion assigns
// marker ids: tasks define overlapping marker sets in rank-dependent
// orders, so id assignment is sensitive to processing order.
func markerWorkload(t *testing.T, nodes int) [][]byte {
	t.Helper()
	return runWorkload(t, nodes, 2, 2, func(p *mpisim.Proc) {
		names := []string{"setup", "exchange", "solve", "io"}
		ids := make([]uint64, len(names))
		for k := range names {
			// Rank-dependent definition order.
			j := (k + p.Rank()) % len(names)
			ids[j] = p.DefineMarker(names[j])
		}
		peer := (p.Rank() + 1) % p.Size()
		p.InMarker(ids[0], func() { p.Compute(clock.Millisecond) })
		p.InMarker(ids[1], func() {
			if p.Rank()%2 == 0 {
				p.Send(peer, 1, 1024)
				p.Recv(mpisim.AnySource, 2)
			} else {
				p.Recv(mpisim.AnySource, 1)
				p.Send(peer, 2, 1024)
			}
		})
		p.InMarker(ids[2], func() { p.Compute(2 * clock.Millisecond) })
		p.Barrier()
	})
}

// TestConvertAllShuffledByteIdentical: converting the inputs in any
// order, with any worker count, produces outputs byte-identical (headers
// and marker tables included) to the sequential Convert loop over the
// inputs sorted by node.
func TestConvertAllShuffledByteIdentical(t *testing.T) {
	const nodes = 5
	raws := markerWorkload(t, nodes) // raws[i] is node i
	want := sequentialConvert(t, raws, Options{})

	rng := xrand.New(7)
	for trial := 0; trial < 6; trial++ {
		perm := rng.Perm(nodes)
		shuffled := make([][]byte, nodes)
		for i, p := range perm {
			shuffled[i] = raws[p]
		}
		for _, workers := range []int{0, 1, 3, 8} {
			outs, results, err := ConvertBuffers(shuffled, Options{Parallel: workers})
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			for i, p := range perm {
				if results[i] == nil {
					t.Fatalf("trial %d workers %d: missing result %d", trial, workers, i)
				}
				if !bytes.Equal(outs[i].Bytes(), want[p]) {
					t.Fatalf("trial %d workers %d: output for node %d (input slot %d) differs from sequential reference",
						trial, workers, p, i)
				}
			}
		}
	}
}

// TestConvertAllMarkerTablesIdentical: the header marker tables of the
// parallel conversion match the sequential run exactly, id for id.
func TestConvertAllMarkerTablesIdentical(t *testing.T) {
	const nodes = 4
	raws := markerWorkload(t, nodes)
	want := sequentialConvert(t, raws, Options{})

	// Reverse input order, maximum parallelism.
	rev := make([][]byte, nodes)
	for i := range raws {
		rev[i] = raws[nodes-1-i]
	}
	outs, _, err := ConvertBuffers(rev, Options{Parallel: nodes})
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		node := nodes - 1 - i
		got, err := interval.NewFile(outs[i])
		if err != nil {
			t.Fatal(err)
		}
		ref, err := interval.NewFile(interval.NewSeekBufferFrom(want[node]))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Header.Markers) != len(ref.Header.Markers) {
			t.Fatalf("node %d: marker table size %d, want %d", node, len(got.Header.Markers), len(ref.Header.Markers))
		}
		for id, s := range ref.Header.Markers {
			if got.Header.Markers[id] != s {
				t.Fatalf("node %d: marker id %d = %q, want %q", node, id, got.Header.Markers[id], s)
			}
		}
	}
}

// TestConvertDuplicateNodeRejected: two inputs claiming the same node
// must fail with a clear error instead of silently overwriting one
// output with the other.
func TestConvertDuplicateNodeRejected(t *testing.T) {
	raws := runWorkload(t, 2, 1, 1, func(p *mpisim.Proc) {
		p.Compute(clock.Millisecond)
		p.Barrier()
	})
	dup := [][]byte{raws[0], raws[1], raws[0]}
	_, _, err := ConvertBuffers(dup, Options{})
	if err == nil {
		t.Fatal("duplicate-node conversion unexpectedly succeeded")
	}
	if !strings.Contains(err.Error(), "both claim node 0") {
		t.Fatalf("duplicate-node error does not name the node: %v", err)
	}
}

// TestTolerantParallelMatchesSequential: wrap-mode traces exercise the
// placeholder-marker path; the parallel prepass discovery must assign
// the same placeholder ids the sequential record pass did.
func TestTolerantParallelMatchesSequential(t *testing.T) {
	const nodes = 2
	bufs := make([]*bytes.Buffer, nodes)
	ws := make([]io.Writer, nodes)
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
		ws[i] = bufs[i]
	}
	cfg := mpisim.Config{
		Cluster: cluster.Config{
			Nodes:       nodes,
			CPUsPerNode: 2,
			TraceOpts:   trace.Options{Enabled: events.MaskAll, Wrap: true, BufferSize: 4096},
			Seed:        42,
		},
		TasksPerNode: 1,
	}
	w, err := mpisim.New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	w.Start(func(p *mpisim.Proc) {
		m := p.DefineMarker("long phase")
		p.MarkerBegin(m)
		peer := 1 - p.Rank()
		for i := 0; i < 200; i++ {
			p.Compute(clock.Millisecond)
			if p.Rank() == 0 {
				p.Send(peer, int32(i), 256)
				p.Recv(int32(peer), int32(i))
			} else {
				p.Recv(int32(peer), int32(i))
				p.Send(peer, int32(i), 256)
			}
		}
		p.MarkerEnd(m)
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	raws := [][]byte{bufs[0].Bytes(), bufs[1].Bytes()}

	want := sequentialConvert(t, raws, Options{Tolerant: true})
	rev := [][]byte{raws[1], raws[0]}
	outs, _, err := ConvertBuffers(rev, Options{Tolerant: true, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		node := 1 - i
		if !bytes.Equal(outs[i].Bytes(), want[node]) {
			t.Fatalf("tolerant parallel output for node %d differs from sequential reference", node)
		}
	}
}
