// Package shard is the horizontal serving tier: a consistent-hash
// router that spreads traces — and, for a single huge trace, contiguous
// frame ranges split at frame-directory boundaries — across a fleet of
// utetraced backends, scatter-gathers the decomposable queries over
// pooled keep-alive connections, and merges partial responses in frame
// order so every body it returns is byte-identical to what one
// single-node daemon would have produced.
//
// All backends share a filesystem with the router and open the same
// trace files, so a "segment" is a routing and cache-affinity
// assignment, not a data partition: any backend holding a trace can
// answer any query over it authoritatively. That is what makes
// failover safe — a leg re-sent to a different backend
// returns the same bytes.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring with virtual nodes. Keys and nodes
// hash onto the same 64-bit circle; a key belongs to the first node
// point at or after it (wrapping). Virtual nodes smooth the split:
// with ~100 points per backend the largest arc is within a few percent
// of fair share, and adding a backend moves only the keys that land on
// its new arcs.
type ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node int // backend index
}

// newRing builds a ring over n backends with vnodes points each.
// Backend identity is positional: the ring hashes "i#v" labels, so two
// routers configured with the same backend list agree on placement.
func newRing(n, vnodes int) *ring {
	if vnodes < 1 {
		vnodes = 1
	}
	r := &ring{points: make([]ringPoint, 0, n*vnodes)}
	for i := 0; i < n; i++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("%d#%d", i, v)), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r
}

// lookup maps a key to its owning backend index.
func (r *ring) lookup(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// size returns the number of ring points (backends × vnodes).
func (r *ring) size() int { return len(r.points) }

func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
