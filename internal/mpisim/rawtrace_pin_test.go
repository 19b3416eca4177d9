// The simulator's raw trace bytes, pinned across commits. Every other
// determinism test compares a run with a second run of the same binary,
// so a change that reorders same-time events the same way in both runs
// passes them; these SHA-256 sums were recorded at the commit before
// simulated threads became coroutines and must never move. Each sum is
// over the per-node SHA-256 digests of the raw files in node order.
// External test package so the programs come out of the workload
// registry.
package mpisim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"tracefw/internal/sched"
	"tracefw/internal/testutil"
	"tracefw/internal/workload"
)

func TestRawTraceHashPinned(t *testing.T) {
	for _, tc := range []struct {
		name               string
		params             workload.Params
		nodes, cpus, tasks int
		policy             string
		size               int
		sha                string
	}{
		{"sppm", workload.Params{"iters": 200}, 4, 8, 1, "fifo", 463636, "18d041fed6e8f6307039e0717d3548fd771c726b203ef3801b0e98d4375ca4da"},
		{"storm", workload.Params{"iters": 300}, 2, 4, 2, "fifo", 416100, "40242704355d76798feb81512ac5ea86b69939e29e49c67322113d443ffaaa85"},
		// One task on two CPUs: nothing waits, the policies differ in
		// the slot count the header records and nothing else.
		{"imbalance", nil, 8, 2, 1, "fifo", 35736, "6f82966d3c83e24ec18867ef372a64c6c37c9318c1ebfe084e13676e1aa7fcfd"},
		{"imbalance", nil, 8, 2, 1, "bestfit", 35736, "6f82966d3c83e24ec18867ef372a64c6c37c9318c1ebfe084e13676e1aa7fcfd"},
		{"imbalance", nil, 8, 2, 1, "worstfit", 35736, "6f82966d3c83e24ec18867ef372a64c6c37c9318c1ebfe084e13676e1aa7fcfd"},
		{"imbalance", nil, 8, 2, 1, "oversub:4", 35736, "dc555c783dd7669284fc3e01870946d4913fe06bd9d6a92d2d1f551c49017a0d"},
		// Four tasks on two CPUs: every dispatch decision sees a ready
		// queue, so same-time event order is what these pin.
		{"imbalance", nil, 4, 2, 4, "fifo", 74248, "8bffe7ac42c27e798d46e076bc4034d4eb9da1456bc4d3c3db02731ecc3b9cc9"},
		{"imbalance", nil, 4, 2, 4, "bestfit", 74248, "cfb69aaf6671d83acaa5cd5dd3fac4f6c7da24d9307c17f56bb1f40670d13a54"},
		{"imbalance", nil, 4, 2, 4, "worstfit", 74472, "52e7d86112bc814eea926cef0451a6b077cffef7d1ceaed74836a61d54d9f6af"},
		{"imbalance", nil, 4, 2, 4, "oversub:4", 70048, "78eff9944af7538b6c93a2924fbeb9cecce18744ffdd2401971cceeb3c19eed4"},
	} {
		label := fmt.Sprintf("%s %dx%dx%d %s", tc.name, tc.nodes, tc.cpus, tc.tasks, tc.policy)
		pol, err := sched.ParsePolicy(tc.policy)
		if err != nil {
			t.Fatal(err)
		}
		main, err := workload.Build(tc.name, tc.params)
		if err != nil {
			t.Fatal(err)
		}
		raws := testutil.RunWorkload(t, testutil.Shape{
			Nodes: tc.nodes, CPUs: tc.cpus, TasksPerNode: tc.tasks, Seed: 12, Policy: pol,
		}, main)
		all := sha256.New()
		size := 0
		var perNode []string
		for _, raw := range raws {
			sum := sha256.Sum256(raw)
			all.Write(sum[:])
			size += len(raw)
			perNode = append(perNode, hex.EncodeToString(sum[:8]))
		}
		if got := hex.EncodeToString(all.Sum(nil)); size != tc.size || got != tc.sha {
			t.Errorf("%s: %d raw bytes, sha256 %s; pinned %d bytes, sha256 %s (per node: %v)",
				label, size, got, tc.size, tc.sha, perNode)
		}
	}
}
