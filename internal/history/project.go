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

// Transactions returns the transactions in h (Ti ∈ H iff H|Ti is
// non-empty), in order of their first event.
func (h History) Transactions() []TxID {
	txs := newNumbering[TxID](8)
	for i := range h {
		txs.add(h[i].Tx)
	}
	return txs.keys
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
	objs := newNumbering[ObjID](8)
	for i := range h {
		if e := &h[i]; e.Kind == KindInv || e.Kind == KindRet {
			objs.add(e.Obj)
		}
	}
	return objs.keys
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
