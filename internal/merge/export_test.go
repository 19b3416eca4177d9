package merge

// The seam for this directory's tests and ablation benchmarks: what they
// need of the package that callers must not be able to set or reach.

// NoPseudo returns o with pseudo-interval planting turned off — the
// prologue-free record stream the property, edge and wide tests compare
// against, and one arm of the planting-cost ablation.
func NoPseudo(o Options) Options {
	o.noPseudo = true
	return o
}

// Source and NewLoserTree expose the merge's picker to the
// tree-versus-linear-scan ablation.
type Source = source

var NewLoserTree = newLoserTree

// RingLen returns how many record slots the source's queue holds,
// queued or free.
func (s *LiveSource) RingLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ring)
}
