package history

// Status is the status of a transaction in a history (paper, §4,
// "Status of transactions").
type Status int

const (
	// StatusLive: the transaction is not completed.
	StatusLive Status = iota
	// StatusCommitPending: live, and has issued a commit-try event.
	StatusCommitPending
	// StatusCommitted: the last event of the transaction is C_i.
	StatusCommitted
	// StatusAborted: the last event of the transaction is A_i.
	StatusAborted
)

// String returns the human-readable status name.
func (s Status) String() string {
	switch s {
	case StatusLive:
		return "live"
	case StatusCommitPending:
		return "commit-pending"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return "unknown"
	}
}

// Completed reports whether the status is committed or aborted.
func (s Status) Completed() bool { return s == StatusCommitted || s == StatusAborted }

// Live reports whether the transaction is live (not completed);
// commit-pending transactions are live.
func (s Status) Live() bool { return !s.Completed() }

// Status returns the status of tx in h. A transaction with no events in h
// is reported live (it has not completed); use Contains to distinguish.
// Only the last event of tx matters, so the scan runs backwards and
// allocates nothing.
func (h History) Status(tx TxID) Status {
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].Tx == tx {
			return kindStatus(h[i].Kind)
		}
	}
	return StatusLive
}

// kindStatus returns the status of a transaction whose last event has
// kind k.
func kindStatus(k Kind) Status {
	switch k {
	case KindCommit:
		return StatusCommitted
	case KindAbort:
		return StatusAborted
	case KindTryCommit:
		return StatusCommitPending
	default:
		return StatusLive
	}
}

// Committed reports whether tx is committed in h.
func (h History) Committed(tx TxID) bool { return h.Status(tx) == StatusCommitted }

// Aborted reports whether tx is aborted in h.
func (h History) Aborted(tx TxID) bool { return h.Status(tx) == StatusAborted }

// Completed reports whether tx is completed (committed or aborted) in h.
func (h History) Completed(tx TxID) bool { return h.Status(tx).Completed() }

// Live reports whether tx is live (not completed) in h.
func (h History) Live(tx TxID) bool { return h.Status(tx).Live() }

// CommitPending reports whether tx is live and has issued a commit-try
// event in h.
func (h History) CommitPending(tx TxID) bool { return h.Status(tx) == StatusCommitPending }

// ForcefullyAborted reports whether tx is aborted in h without having
// issued an abort-try event (it was aborted by the TM, not voluntarily).
func (h History) ForcefullyAborted(tx TxID) bool {
	if !h.Aborted(tx) {
		return false
	}
	for _, e := range h.Sub(tx) {
		if e.Kind == KindTryAbort {
			return false
		}
	}
	return true
}

// CommittedTxs returns the committed transactions of h in order of first
// event.
func (h History) CommittedTxs() []TxID {
	tab := h.table()
	return tab.where(func(s Status) bool { return s == StatusCommitted })
}

// LiveTxs returns the live transactions of h (including commit-pending
// ones) in order of first event.
func (h History) LiveTxs() []TxID {
	tab := h.table()
	return tab.where(Status.Live)
}

// CommitPendingTxs returns the commit-pending transactions of h in order
// of first event.
func (h History) CommitPendingTxs() []TxID {
	tab := h.table()
	return tab.where(func(s Status) bool { return s == StatusCommitPending })
}
