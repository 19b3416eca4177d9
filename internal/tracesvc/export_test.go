package tracesvc

// DropAnswers removes every whole answer s's memo holds, stored or only
// marked, so the next asking of any query computes its answer as its
// first asking would: the way tests reach the per-frame memos past a
// stored answer. Per-frame values stay.
func DropAnswers(s *Service) {
	s.cache.dropIf(func(k memoKey) bool { return k.off == answerOff })
}

// MemoEntryBytes is what a memo entry is charged beyond its value.
const MemoEntryBytes = memoEntryBytes
