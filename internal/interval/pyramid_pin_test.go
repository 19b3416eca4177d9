// The pyramid build's bytes, pinned: the SHA-256 of Pyramid.Encode() for
// the traces the SLOG hash pins use (internal/slog), recorded from the
// record-at-a-time build (Scan + per-cell maps + sort.Slice sweep) that
// the batch-column build replaced. External test package so the fixtures
// come out of the real pipeline.
package interval_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/mpisim"
	"tracefw/internal/testutil"
)

func TestPyramidBuildHashPinned(t *testing.T) {
	narrow := testutil.Shape{Nodes: 2, TasksPerNode: 1, CPUs: 2, Seed: 5}
	type pin struct {
		opts interval.PyramidOptions
		size int
		sha  string
	}
	for _, tc := range []struct {
		name  string
		shape testutil.Shape
		work  func(*mpisim.Proc)
		pins  []pin
	}{
		{"phased", narrow, testutil.PhasedWork, []pin{
			{interval.PyramidOptions{}, 342629, "0f31b9223b1219348bdfddd9e35b5482d3dd77ebfd50025a66f7c777f9dcda64"},
			{interval.PyramidOptions{BaseCells: 64, TopK: 3}, 7629, "f3c89c5e42a069462182b8e4118747b9f0fc3b4f7cd16f30dbef9c13580c0e30"},
		}},
		{"waitall", narrow, testutil.WaitallWork, []pin{
			{interval.PyramidOptions{}, 77036, "55d4f1402c56ceb4eafc7c308f6983c7b331f5c42c8efd50621b40639ef92142"},
			{interval.PyramidOptions{BaseCells: 64, TopK: 3}, 4426, "de3e9cb48e355ab99277e14268f8d717f2fffb5cb7343abf907431bc52300dd3"},
		}},
		{"nested", narrow, testutil.NestedWork(40), []pin{
			{interval.PyramidOptions{}, 166115, "7774e41dd1b5582a2b1077f052824bd4c9266717c5cdcf2ae0fbbc5a78409029"},
			{interval.PyramidOptions{BaseCells: 64, TopK: 3}, 5797, "e844d8de62b26277b8fb4419647f4bd7ecb160cd14e67ec8e6f9e406d12682d3"},
		}},
		{"wide", testutil.WideShape, testutil.NestedWork(6), []pin{
			{interval.PyramidOptions{}, 1590928, "149bca6e753c6c4b94456b83b8d8841d5fb5cf2be0562e7814af084790efe327"},
			{interval.PyramidOptions{BaseCells: 64, TopK: 3}, 30502, "5f77f49b48a3590271277f4c2006af1fe1fa1a64eb214108a73ea5e9fb65fa3c"},
		}},
	} {
		mf, _ := testutil.Pipeline(t, tc.shape, merge.Options{}, tc.work)
		for _, pn := range tc.pins {
			p, err := interval.BuildPyramid(mf, pn.opts)
			if err != nil {
				t.Fatal(err)
			}
			data := p.Encode()
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); len(data) != pn.size || got != pn.sha {
				t.Errorf("%s pyramid (base cells %d, top-k %d): %d bytes, sha256 %s; pinned %d bytes, sha256 %s",
					tc.name, pn.opts.BaseCells, pn.opts.TopK, len(data), got, pn.size, pn.sha)
			}
		}
	}
}
