package history

import "fmt"

// CompletionEvents returns the events that must be appended to h to
// complete transaction tx under the given decision for commit-pending
// transactions (commit == true commits it, false aborts it). The rules
// follow the definition of Complete(H) (paper, §4):
//
//   - a live transaction with a pending operation invocation receives an
//     abort event in place of the operation response (F = ⟨inv, A⟩);
//   - a live transaction with a pending abort-try receives its abort;
//   - a commit-pending transaction receives C or A according to commit;
//   - a live transaction with no pending invocation is aborted by
//     appending ⟨tryC, A⟩ — a forceful abort. (The definition of
//     Complete(H) inserts only commit-try, commit and abort events, never
//     abort-try events; compare the paper's completion H'3 which appends
//     tryC2, A2 to the live read-only T2.)
//
// Completing an already-completed transaction yields no events. Asking to
// commit a transaction that is not commit-pending panics: only
// commit-pending transactions may be committed by a completion.
func (h History) CompletionEvents(tx TxID, commit bool) []Event {
	last := KindRet // a transaction with no events has no pending invocation
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].Tx == tx {
			last = h[i].Kind
			break
		}
	}
	return appendCompletion(nil, tx, last, commit)
}

// appendCompletion appends to dst the completion events of tx, whose
// last event in the history has kind last, under the rules of
// CompletionEvents.
func appendCompletion(dst []Event, tx TxID, last Kind, commit bool) []Event {
	switch last {
	case KindCommit, KindAbort:
		return dst
	case KindTryCommit:
		if commit {
			return append(dst, Commit(tx))
		}
		return append(dst, Abort(tx))
	}
	if commit {
		panic(fmt.Sprintf("history: transaction T%d is live but not commit-pending; it can only be aborted by a completion", int(tx)))
	}
	if last.Invocation() {
		return append(dst, Abort(tx))
	}
	return append(dst, TryC(tx), Abort(tx))
}

// CompleteWith returns the member of Complete(h) in which each
// commit-pending transaction commits iff commits maps it to true, and
// every other live transaction aborts. Mapping a live transaction that
// is not commit-pending to true panics, since a completion can only
// abort it; every other entry of commits is ignored, whether it names a
// committed or aborted transaction or one not in h. When h is complete
// the result is h itself, whatever commits holds, not a copy — treat it
// as immutable, per the module's convention.
//
// One pass over h builds its transaction table, whose last-event kinds
// alone decide each transaction's completion.
func (h History) CompleteWith(commits map[TxID]bool) History {
	tab := h.table()
	extra := 0
	for _, k := range tab.last {
		if !completes(k) {
			extra += 2 // at most ⟨tryC, A⟩ per live transaction
		}
	}
	if extra == 0 {
		// h is already complete and is itself the (unique) member of
		// Complete(h); histories are treated as immutable, so no
		// defensive copy is taken.
		return h
	}
	out := make(History, len(h), len(h)+extra)
	copy(out, h)
	for t, tx := range tab.txs.keys {
		out = appendCompletion(out, tx, tab.last[t], commits[tx])
	}
	return out
}

// EachCompletion invokes fn on every history in Complete(h), i.e. on
// every choice of commit/abort for the commit-pending transactions of h
// (2^p histories for p commit-pending transactions; non-commit-pending
// live transactions are always aborted). Iteration stops early if fn
// returns false. The history passed to fn may be retained, but — like
// CompleteWith's result — it aliases h itself when h is already
// complete, so treat it as immutable (the standing convention for
// histories in this module).
//
// The paper's Complete(H) also contains histories that differ in the
// relative order of the inserted events; those are all equivalent (≡) to
// one of the histories produced here and are indistinguishable to every
// correctness criterion in this module, so only one canonical insertion
// order is enumerated.
func (h History) EachCompletion(fn func(History) bool) {
	cp := h.CommitPendingTxs()
	if len(cp) > 62 {
		panic("history: too many commit-pending transactions to enumerate completions")
	}
	n := uint64(1) << uint(len(cp))
	for mask := uint64(0); mask < n; mask++ {
		commits := make(map[TxID]bool, len(cp))
		for i, tx := range cp {
			commits[tx] = mask&(1<<uint(i)) != 0
		}
		if !fn(h.CompleteWith(commits)) {
			return
		}
	}
}

// Completions materializes Complete(h) as a slice. It panics if h has
// more than 16 commit-pending transactions (65536 completions); use
// EachCompletion for lazy iteration in that case.
func (h History) Completions() []History {
	if len(h.CommitPendingTxs()) > 16 {
		panic("history: too many commit-pending transactions to materialize Complete(H); use EachCompletion")
	}
	var out []History
	h.EachCompletion(func(c History) bool {
		out = append(out, c)
		return true
	})
	return out
}
