package merge

import "tracefw/internal/clock"

// source is one input stream of the k-way merge: it exposes the adjusted
// end time of its current record and advances on demand.
type source interface {
	// CurrentEnd returns the adjusted end time of the current record;
	// done reports exhaustion.
	CurrentEnd() (end clock.Time, done bool)
	// Advance moves to the next record.
	Advance() error
}

// loserTree is the paper's "balanced tree in which each tree node holds
// the pointer to the next interval in the corresponding interval file"
// with nodes ordered by end time: a classic tournament loser tree with
// O(log k) replay per extracted record.
type loserTree struct {
	srcs []source
	// node[0] holds the overall winner; node[1..k-1] hold match losers.
	node []int
}

func newLoserTree(srcs []source) *loserTree {
	k := len(srcs)
	lt := &loserTree{srcs: srcs, node: make([]int, maxInt(k, 1))}
	if k == 0 {
		lt.node[0] = -1
		return lt
	}
	if k == 1 {
		lt.node[0] = 0
		return lt
	}
	var build func(n int) int
	build = func(n int) int {
		var left, right int
		if 2*n < k {
			left = build(2 * n)
		} else {
			left = 2*n - k
		}
		if 2*n+1 < k {
			right = build(2*n + 1)
		} else {
			right = 2*n + 1 - k
		}
		if lt.less(left, right) {
			lt.node[n] = right
			return left
		}
		lt.node[n] = left
		return right
	}
	lt.node[0] = build(1)
	return lt
}

// less orders stream a before stream b by (adjusted end, stream index);
// exhausted streams sort last.
func (lt *loserTree) less(a, b int) bool {
	ea, da := lt.srcs[a].CurrentEnd()
	eb, db := lt.srcs[b].CurrentEnd()
	if da != db {
		return db // a not done, b done
	}
	if da {
		return a < b
	}
	if ea != eb {
		return ea < eb
	}
	return a < b
}

// Min returns the index of the stream holding the smallest current
// record, or -1 when every stream is exhausted.
func (lt *loserTree) Min() int {
	w := lt.node[0]
	if w < 0 {
		return -1
	}
	if _, done := lt.srcs[w].CurrentEnd(); done {
		return -1
	}
	return w
}

// Fix replays the tournament from leaf w upward after the winner's
// stream advanced.
func (lt *loserTree) Fix(w int) {
	k := len(lt.srcs)
	if k <= 1 {
		return
	}
	cur := w
	for n := (w + k) / 2; n >= 1; n /= 2 {
		if lt.less(lt.node[n], cur) {
			cur, lt.node[n] = lt.node[n], cur
		}
	}
	lt.node[0] = cur
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
