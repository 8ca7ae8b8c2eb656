package core

import (
	"otm/internal/history"
	"otm/internal/spec"
)

// refSearcher is the reference serialization engine preserved for
// differential testing (Config.DisableMemo): a plain backtracking search
// over one completion, replaying candidate transactions on copy-on-write
// spec.Objects maps, with no state interning, no memoization, no
// transition caching and no symmetry reduction. It takes its
// problem from the completion directly (History.OpExecs and the
// completion's statuses) and shares nothing with the interned engine
// beyond the bitset type and replayTx, which is what makes agreement
// between the two engines meaningful as a correctness oracle.
type refSearcher struct {
	n        int
	txs      []history.TxID
	execs    [][]history.OpExec
	commit   []bool // whether the completion commits each transaction
	preds    []bitset
	maxNodes int
	nodes    *int
	order    []history.TxID
}

// search tries to extend the partial serialization; see searcher.search
// for the shared conventions. Exceeding the node budget surfaces as a
// plain failure here — findSerializationRef tells exhaustion from
// failure by comparing the node counter against the budget afterwards.
func (s *refSearcher) search(placed bitset, count int, states spec.Objects) bool {
	if *s.nodes >= s.maxNodes {
		return false
	}
	*s.nodes++
	if count == s.n {
		return true
	}
	for i := 0; i < s.n; i++ {
		if placed.has(i) || !placed.covers(s.preds[i]) {
			continue
		}
		next, legal := replayTx(states, s.execs[i])
		if !legal {
			continue
		}
		if !s.commit[i] {
			next = states
		}
		s.order = append(s.order, s.txs[i])
		placed.set(i)
		if s.search(placed, count+1, next) {
			return true
		}
		placed.clear(i)
		s.order = s.order[:len(s.order)-1]
	}
	return false
}

// findSerializationRef searches the completion hc for an order of txs
// that respects preds (pairs (a, b): a before b) in which every
// transaction is legal on the object states the committed transactions
// placed before it produce, from the initial states objs. It returns the
// order, nil if none exists, or ErrSearchLimit when the node budget ran
// out first.
func findSerializationRef(hc history.History, txs []history.TxID, preds [][2]history.TxID, objs spec.Objects, maxNodes int, nodes *int) ([]history.TxID, error) {
	n := len(txs)
	s := &refSearcher{
		n:        n,
		txs:      txs,
		execs:    make([][]history.OpExec, n),
		commit:   make([]bool, n),
		preds:    make([]bitset, n),
		maxNodes: maxNodes,
		nodes:    nodes,
		order:    make([]history.TxID, 0, n),
	}
	for i, tx := range txs {
		s.execs[i] = hc.OpExecs(tx)
		s.commit[i] = hc.Committed(tx)
		s.preds[i] = newBitset(n)
	}
	idx := txIndex(txs)
	for _, p := range preds {
		i, oki := idx[p[0]]
		j, okj := idx[p[1]]
		if oki && okj {
			s.preds[j].set(i)
		}
	}

	if objs == nil {
		objs = spec.Objects{}
	}
	if s.search(newBitset(n), 0, objs) {
		return s.order, nil
	}
	if *nodes >= maxNodes {
		return nil, ErrSearchLimit
	}
	return nil, nil
}
