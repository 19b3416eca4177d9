// The pyramid build's bytes, pinned: the SHA-256 of Pyramid.Encode() for
// the traces the SLOG hash pins use (internal/slog). The cells were first
// pinned from the record-at-a-time build (Scan + per-cell maps +
// sort.Slice sweep) that the batch-column build replaced; the version-2
// pins are that build's cells written without the top-k lists and start
// counts version 1 also stored. External test package so the fixtures
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
			{interval.PyramidOptions{}, 134626, "f11f5ab2802f4f723a3b5587d53b2787371e84986ecaafc1bb064a8207bca61d"},
			{interval.PyramidOptions{BaseCells: 64}, 3329, "0dcc81ca860385d14d67e774618494b62d494069e6ddbfce5c63a6e9a7c5d9c8"},
		}},
		{"waitall", narrow, testutil.WaitallWork, []pin{
			{interval.PyramidOptions{}, 51413, "5f9833a64833c7a59dd67276b37ba375254ea16fd200d8ade6bd07d872d5f734"},
			{interval.PyramidOptions{BaseCells: 64}, 2181, "c880ac579b64750fdcd77882d7ff8c39796270d33ffbb7c77bd49f2e9a93c077"},
		}},
		{"nested", narrow, testutil.NestedWork(40), []pin{
			{interval.PyramidOptions{}, 66590, "0b13ad8209f10c6455fff6b3aa8e47731dc265e62536928ede846ff2e8af63df"},
			{interval.PyramidOptions{BaseCells: 64}, 2520, "05df28a1ab41f94c197f90471829beff54276444b0d0f1b7b6c89ba05624be28"},
		}},
		{"wide", testutil.WideShape, testutil.NestedWork(6), []pin{
			{interval.PyramidOptions{}, 1091936, "9dbeb6882e620e2c484d2b7ab82a74804e486b0cd9dc91d2f41827fb6d6b4ae5"},
			{interval.PyramidOptions{BaseCells: 64}, 26744, "ac2f72e1e9cced74bcca4d62ef3e2f4b1903916afaedf47f099589429e466b77"},
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
				t.Errorf("%s pyramid (base cells %d): %d bytes, sha256 %s; pinned %d bytes, sha256 %s",
					tc.name, pn.opts.BaseCells, len(data), got, pn.size, pn.sha)
			}
		}
	}
}
