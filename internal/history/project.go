package history

// Sub returns H|Ti: the longest subsequence of h containing only events
// of transaction tx.
func (h History) Sub(tx TxID) History {
	var out History
	for _, e := range h {
		if e.Tx == tx {
			out = append(out, e)
		}
	}
	return out
}

// Obj returns H|ob: the longest subsequence of h containing only
// operation invocation and operation response events on shared object ob.
func (h History) Obj(ob ObjID) History {
	var out History
	for _, e := range h {
		if (e.Kind == KindInv || e.Kind == KindRet) && e.Obj == ob {
			out = append(out, e)
		}
	}
	return out
}

// linearMax is the number of transactions (or objects) up to which a
// lookup scans a list instead of hashing: histories rarely have more
// than a handful, and below this count the scan costs less than a map.
const linearMax = 32

// Transactions returns the transactions in h (Ti ∈ H iff H|Ti is
// non-empty), in order of their first event.
func (h History) Transactions() []TxID {
	// Dedup by linear scan of the output and fall back to a map only when
	// the transaction count makes the scan quadratic enough to matter.
	out := make([]TxID, 0, 8)
scan:
	for i := range h {
		tx := h[i].Tx
		for _, x := range out {
			if x == tx {
				continue scan
			}
		}
		out = append(out, tx)
		if len(out) > linearMax {
			return h.transactionsMap(out)
		}
	}
	return out
}

// transactionsMap finishes Transactions with a map once the linear-scan
// dedup stops being cheap; out holds the distinct transactions found so
// far, in first-event order.
func (h History) transactionsMap(out []TxID) []TxID {
	seen := make(map[TxID]bool, len(out))
	for _, tx := range out {
		seen[tx] = true
	}
	for i := range h {
		if tx := h[i].Tx; !seen[tx] {
			seen[tx] = true
			out = append(out, tx)
		}
	}
	return out
}

// Contains reports whether Ti ∈ H, i.e. whether h has at least one event
// of tx.
func (h History) Contains(tx TxID) bool {
	for _, e := range h {
		if e.Tx == tx {
			return true
		}
	}
	return false
}

// Objects returns the shared objects on which at least one operation
// invocation or response appears in h, in order of first appearance.
func (h History) Objects() []ObjID {
	// Same linear-scan dedup rationale as Transactions: object counts are
	// small.
	out := make([]ObjID, 0, 8)
scan:
	for _, e := range h {
		if e.Kind != KindInv && e.Kind != KindRet {
			continue
		}
		for _, ob := range out {
			if ob == e.Obj {
				continue scan
			}
		}
		out = append(out, e.Obj)
		if len(out) > linearMax {
			return h.objectsMap(out)
		}
	}
	return out
}

// objectsMap finishes Objects with a map once the linear-scan dedup
// stops being cheap.
func (h History) objectsMap(out []ObjID) []ObjID {
	seen := make(map[ObjID]bool, len(out))
	for _, ob := range out {
		seen[ob] = true
	}
	for _, e := range h {
		if e.Kind != KindInv && e.Kind != KindRet {
			continue
		}
		if !seen[e.Obj] {
			seen[e.Obj] = true
			out = append(out, e.Obj)
		}
	}
	return out
}

// PendingInv returns the pending invocation event of tx in h, if any: an
// invocation event of tx with no matching response following it in H|Ti.
// In a well-formed history at most one invocation can be pending per
// transaction (the last event of H|Ti).
func (h History) PendingInv(tx TxID) (Event, bool) {
	sub := h.Sub(tx)
	if len(sub) == 0 {
		return Event{}, false
	}
	last := sub[len(sub)-1]
	if last.Kind.Invocation() {
		return last, true
	}
	return Event{}, false
}

// OpExecs returns the operation executions of tx in h, in order,
// including a trailing pending operation invocation if any. Commit-try,
// abort-try, commit and abort events are not operation executions and are
// omitted.
func (h History) OpExecs(tx TxID) []OpExec {
	var out []OpExec
	var pend *OpExec
	for _, e := range h {
		if e.Tx != tx {
			continue
		}
		switch e.Kind {
		case KindInv:
			pend = &OpExec{Tx: tx, Obj: e.Obj, Op: e.Op, Arg: e.Arg, Pending: true}
		case KindRet:
			if pend != nil {
				pend.Ret = e.Ret
				pend.Pending = false
				out = append(out, *pend)
				pend = nil
			}
		case KindAbort:
			// An abort may arrive instead of an operation response; the
			// invocation stays pending.
		}
	}
	if pend != nil {
		out = append(out, *pend)
	}
	return out
}
