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

// Published returns how many records the source's published chunks
// hold, the one the consumer is reading included.
func (s *LiveSource) Published() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.cur)
	for _, c := range s.queue[s.head:] {
		n += len(c)
	}
	return n
}

// Slots returns how many record slots the source's chunks hold, queued,
// open, being read or free.
func (s *LiveSource) Slots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chunks * s.size
}

// ChunkLen returns how many records one of the source's chunks holds.
func (s *LiveSource) ChunkLen() int { return s.size }
