package history

// txSpan records the index of the first and last event of a transaction
// within a history, and whether that last event completes it (C or A).
type txSpan struct {
	first, last int
	completed   bool
}

// spans maps every transaction of h to its span, in one pass.
func (h History) spans() map[TxID]txSpan {
	out := make(map[TxID]txSpan)
	for i, e := range h {
		s, ok := out[e.Tx]
		if !ok {
			s.first = i
		}
		s.last = i
		s.completed = completes(e.Kind)
		out[e.Tx] = s
	}
	return out
}

// completes reports whether an event of kind k completes its
// transaction: it is C or A.
func completes(k Kind) bool { return k == KindCommit || k == KindAbort }

// precedes is Precedes on a history's spans.
func precedes(sp map[TxID]txSpan, ti, tj TxID) bool {
	si, oki := sp[ti]
	sj, okj := sp[tj]
	return oki && okj && si.completed && si.last < sj.first
}

// Precedes reports whether Ti ≺H Tj: Ti is completed in h and the first
// event of Tj follows the last event of Ti. ≺H is the real-time order of
// transactions in h (paper, §4).
func (h History) Precedes(ti, tj TxID) bool {
	return precedes(h.spans(), ti, tj)
}

// Concurrent reports whether ti and tj are concurrent in h: neither
// precedes the other in real-time order.
func (h History) Concurrent(ti, tj TxID) bool {
	if ti == tj {
		return false
	}
	sp := h.spans()
	return !precedes(sp, ti, tj) && !precedes(sp, tj, ti)
}

// RealTimeOrder returns ≺H as an explicit list of ordered pairs, useful
// for display, for constructing the Lrt edges of the opacity graph and
// for the reference opacity engine.
func (h History) RealTimeOrder() [][2]TxID {
	txs := h.Transactions()
	sp := h.spans()
	var out [][2]TxID
	for _, ti := range txs {
		si := sp[ti]
		if !si.completed {
			continue
		}
		for _, tj := range txs {
			if sp[tj].first > si.last {
				out = append(out, [2]TxID{ti, tj})
			}
		}
	}
	return out
}

// PreservesRealTimeOrder reports whether h2 preserves the real-time order
// of h: ≺H ⊆ ≺H2, i.e. whenever Ti ≺H Tj then Ti ≺H2 Tj. Transactions of
// h missing from h2 make the check fail only if they participate in ≺H.
func PreservesRealTimeOrder(h, h2 History) bool {
	sp2 := h2.spans()
	for _, p := range h.RealTimeOrder() {
		if !precedes(sp2, p[0], p[1]) {
			return false
		}
	}
	return true
}

// Sequential reports whether h is a sequential history: no two
// transactions in h are concurrent. Equivalently, the events of each
// transaction form a contiguous block and every block except possibly the
// last belongs to a completed transaction, which is what the one walk
// checks: a block ends where the transaction changes, and must end in C
// or A and be followed by a transaction not seen before.
func (h History) Sequential() bool {
	seen := make(map[TxID]bool)
	for i, e := range h {
		if i == 0 || e.Tx != h[i-1].Tx {
			if seen[e.Tx] || i > 0 && !completes(h[i-1].Kind) {
				return false
			}
			seen[e.Tx] = true
		}
	}
	return true
}

// Complete reports whether h is a complete history: it contains no live
// transaction.
func (h History) Complete() bool {
	for _, tx := range h.Transactions() {
		if h.Live(tx) {
			return false
		}
	}
	return true
}
