package core

import (
	"otm/internal/history"
	"otm/internal/spec"
)

// replayTx replays the operation executions of one transaction on top of
// the given object states. It returns the updated states and true if
// every completed operation execution is accepted by the object's
// sequential specification; pending invocations at the end of a
// transaction are always legal (Seq(ob) contains every sequence of the
// specification ending with a pending invocation, §4). Objects missing
// from objs default to an integer register initialized to 0.
//
// The input map is never mutated: states are immutable and the map is
// copied on first write.
func replayTx(states spec.Objects, execs []history.OpExec) (spec.Objects, bool) {
	cur := states
	copied := false
	for _, e := range execs {
		if e.Pending {
			continue
		}
		st, ok := cur[e.Obj]
		if !ok {
			st = spec.NewRegister(0)
		}
		next, legal := st.Step(e.Op, e.Arg, e.Ret)
		if !legal {
			return nil, false
		}
		if !copied {
			cur = cur.Clone()
			copied = true
		}
		cur[e.Obj] = next
	}
	return cur, true
}

// TxLegal reports whether transaction tx is legal in the complete
// sequential history s (paper, §4): the largest subsequence of s
// consisting of tx itself plus every committed transaction preceding tx
// must be a legal history, i.e. respect the sequential specification of
// every object. objs gives the initial object states; objects not listed
// default to integer registers initialized to 0.
func TxLegal(s history.History, tx history.TxID, objs spec.Objects) bool {
	states := objs
	if states == nil {
		states = spec.Objects{}
	}
	for _, other := range s.Transactions() {
		if other == tx {
			break
		}
		if !s.Committed(other) {
			continue
		}
		var ok bool
		states, ok = replayTx(states, s.OpExecs(other))
		if !ok {
			return false
		}
	}
	_, ok := replayTx(states, s.OpExecs(tx))
	return ok
}

// AllLegal reports whether every transaction in the complete sequential
// history s is legal in s — condition (2) of Definition 1. It returns the
// first illegal transaction when the check fails.
//
// s is sequential, so each transaction's events form one block; AllLegal
// walks the blocks once and takes each one's status from its last event.
func AllLegal(s history.History, objs spec.Objects) (history.TxID, bool) {
	if !s.Sequential() {
		panic("core: AllLegal requires a sequential history")
	}
	states := objs
	if states == nil {
		states = spec.Objects{}
	}
	for i := 0; i < len(s); {
		tx, j := s[i].Tx, i+1
		for j < len(s) && s[j].Tx == tx {
			j++
		}
		next, ok := replayTx(states, s[i:j].OpExecs(tx))
		if !ok {
			return tx, false
		}
		if s[j-1].Kind == history.KindCommit {
			states = next
		}
		i = j
	}
	return 0, true
}

// buildSequential concatenates the per-transaction projections of hc in
// the given order, producing the sequential history S of a witness. One
// counting pass and one fill pass over hc, each event finding its slot
// through an index map, replace the per-transaction H|Ti projections,
// which made witness assembly quadratic. It serves the DisableMemo
// reference engine, which derives its witness from h alone; the unified
// engine places events by the transaction indexes its Appender recorded
// (searcher.witness).
func buildSequential(hc history.History, order []history.TxID) history.History {
	n := len(order)
	ints := make([]int, 2*n) // slot cursor and slot base per transaction
	offs, fill := ints[:n], ints[n:]
	idx := txIndex(order)
	for j := range hc {
		if i, ok := idx[hc[j].Tx]; ok {
			fill[i]++ // first pass: counts
		}
	}
	total := 0
	for i, c := range fill {
		offs[i] = total
		total += c
		fill[i] = 0
	}
	s := make(history.History, total)
	for j := range hc {
		if i, ok := idx[hc[j].Tx]; ok {
			s[offs[i]+fill[i]] = hc[j]
			fill[i]++
		}
	}
	return s
}

func txIndex(txs []history.TxID) map[history.TxID]int {
	idx := make(map[history.TxID]int, len(txs))
	for i, tx := range txs {
		idx[tx] = i
	}
	return idx
}
