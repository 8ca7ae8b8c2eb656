package core

import "math/bits"

// Symmetry reduction over interchangeable transactions — the classic
// model-checking reduction, applied to the serialization search.
//
// Two transactions i and j are interchangeable when swapping their
// positions in any serialization (fates swapping along with positions)
// yields another serialization that is valid exactly when the original
// was and produces the identical final state. That holds when:
//
//   - their replay signatures are equal (sigOf): they replay identically
//     from every object state, so legality and successor states are
//     position-functions, not identity-functions;
//   - their commit decisions are equal: the searcher branches (or not)
//     the same way at either position;
//   - their constraint positions are equal: equal predecessor bitsets and
//     equal successor bitsets. Every ordering constraint k≺i then holds
//     iff k≺j and i≺k iff j≺k, so the swap never violates a constraint.
//     Equality also excludes any constraint between i and j themselves
//     (i∈preds[j] would require i∈preds[i], which no constraint source
//     produces and which would make the pair's bitsets differ anyway).
//
// The reduction: each equivalence class is placed in increasing index
// order only. A candidate whose previous class member (classPrev) is
// still unplaced is skipped. This composes soundly with the failure
// memo:
//
// Completeness. Among the valid extensions of any reachable search node,
// consider the lexicographically least one (comparing index sequences).
// If two unplaced class members appeared out of index order, swapping
// their positions would yield a valid extension (interchangeability) that
// is lexicographically smaller — so the least extension is class-sorted
// and the symmetry filter never prunes it: if a witness extension
// exists, the reduced search finds one.
//
// Memo soundness. A memo entry written by the reduced engine means "the
// reduced subtree under this node has no witness", which by completeness
// equals "no witness at all" — but only for nodes whose placed set is
// class-downward-closed, the only nodes the reduced engine ever visits
// or probes. The memo lives for one search, and one search runs under
// one class map, so no search under another class map — an unreduced
// one (DisableSym) or another history's — ever consumes these entries.
//
// Enumeration. enumerateFinals runs the same search, filter included:
// position-swapping interchangeable transactions preserves each
// serialization's final state (equal signatures, equal decisions), so
// the class-sorted representatives reach exactly the final-state set of
// the full walk.

// computeClasses fills s.classPrev for the current problem: for each
// transaction, the index of the previous member of its symmetry class,
// or -1 for the canonical (lowest-index) member and for singletons. With
// disable set, every transaction is a singleton. Classes are a pure
// function of (sigs, decide, preds). Non-singleton classes are counted
// into Stats.SymClasses.
func (s *searcher) computeClasses(disable bool) {
	n := s.n
	s.classPrev = grow(s.classPrev, n)
	for i := range s.classPrev {
		s.classPrev[i] = -1
	}
	if disable || n < 2 {
		return
	}
	// succ[i] = {j : i ∈ preds[j]}; equal succ bitsets are required for
	// interchangeability alongside equal preds (a one-sided check would
	// admit pairs whose members other transactions order differently).
	for j := 0; j < n; j++ {
		for w, word := range s.preds[j] {
			for word != 0 {
				i := w<<6 + bits.TrailingZeros64(word)
				s.succ[i].set(j)
				word &= word - 1
			}
		}
	}
	for i := 1; i < n; i++ {
		// Scan back for the most recent interchangeable transaction; the
		// resulting chains link each class in increasing index order.
		for j := i - 1; j >= 0; j-- {
			if s.sigs[j] == s.sigs[i] && s.decide[j] == s.decide[i] &&
				s.preds[j].equal(s.preds[i]) && s.succ[j].equal(s.succ[i]) {
				s.classPrev[i] = int32(j)
				if s.classPrev[j] < 0 {
					// j is canonical, so i is the class's second member:
					// count the class once, exactly when it stops being a
					// singleton.
					s.ctx.stats.SymClasses++
				}
				break
			}
		}
	}
}

// symBlocked reports whether the symmetry reduction skips candidate i at
// a node with the given placed set: an earlier member of i's class is
// still unplaced, so placing i here would explore a non-canonical
// interleaving of interchangeable transactions.
func (s *searcher) symBlocked(i int, placed bitset) bool {
	if p := s.classPrev[i]; p >= 0 && !placed.has(int(p)) {
		s.ctx.stats.SymPrunes++
		return true
	}
	return false
}
