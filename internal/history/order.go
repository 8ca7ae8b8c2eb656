package history

// completes reports whether an event of kind k completes its
// transaction: it is C or A.
func completes(k Kind) bool { return k == KindCommit || k == KindAbort }

// Precedes reports whether Ti ≺H Tj: Ti is completed in h and the first
// event of Tj follows the last event of Ti. ≺H is the real-time order of
// transactions in h (paper, §4).
func (h History) Precedes(ti, tj TxID) bool {
	tab := h.table()
	return tab.precedes(ti, tj)
}

// Concurrent reports whether ti and tj are concurrent in h: neither
// precedes the other in real-time order.
func (h History) Concurrent(ti, tj TxID) bool {
	if ti == tj {
		return false
	}
	tab := h.table()
	return !tab.precedes(ti, tj) && !tab.precedes(tj, ti)
}

// RealTimeOrder returns ≺H as an explicit list of ordered pairs, useful
// for display, for constructing the Lrt edges of the opacity graph and
// for the reference opacity engine.
func (h History) RealTimeOrder() [][2]TxID {
	tab := h.table()
	txs := tab.txs.keys
	var out [][2]TxID
	for i, si := range tab.spans {
		if !si.Completed {
			continue
		}
		for j, sj := range tab.spans {
			if sj.First > si.Last {
				out = append(out, [2]TxID{txs[i], txs[j]})
			}
		}
	}
	return out
}

// PreservesRealTimeOrder reports whether h2 preserves the real-time order
// of h: ≺H ⊆ ≺H2, i.e. whenever Ti ≺H Tj then Ti ≺H2 Tj. Transactions of
// h missing from h2 make the check fail only if they participate in ≺H.
func PreservesRealTimeOrder(h, h2 History) bool {
	tab2 := h2.table()
	for _, p := range h.RealTimeOrder() {
		if !tab2.precedes(p[0], p[1]) {
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
	for _, k := range h.table().last {
		if !completes(k) {
			return false
		}
	}
	return true
}
