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
	switch h.Status(tx) {
	case StatusCommitted, StatusAborted:
		return nil
	case StatusCommitPending:
		if commit {
			return []Event{Commit(tx)}
		}
		return []Event{Abort(tx)}
	default: // live, not commit-pending
		if commit {
			panic(fmt.Sprintf("history: transaction T%d is live but not commit-pending; it can only be aborted by a completion", int(tx)))
		}
		if _, pending := h.PendingInv(tx); pending {
			return []Event{Abort(tx)}
		}
		return []Event{TryC(tx), Abort(tx)}
	}
}

// CompleteWith returns the member of Complete(h) in which every
// commit-pending transaction listed in commits is committed, every other
// commit-pending transaction is aborted, and every other live transaction
// is aborted. Transactions in commits that are not commit-pending in h
// cause a panic. When h is already complete the result is h itself, not
// a copy — treat it as immutable, per the module's convention.
func (h History) CompleteWith(commits map[TxID]bool) History {
	txs := h.Transactions()
	extra := 0
	for _, tx := range txs {
		if h.Live(tx) {
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
	for _, tx := range txs {
		if !h.Live(tx) {
			continue
		}
		out = append(out, h.CompletionEvents(tx, commits[tx])...)
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
