package history

// txSpan records the index of the first and last event of a transaction
// within a history.
type txSpan struct {
	first, last int
}

func (h History) spans() map[TxID]txSpan {
	out := make(map[TxID]txSpan)
	for i, e := range h {
		s, ok := out[e.Tx]
		if !ok {
			out[e.Tx] = txSpan{first: i, last: i}
			continue
		}
		s.last = i
		out[e.Tx] = s
	}
	return out
}

// Precedes reports whether Ti ≺H Tj: Ti is completed in h and the first
// event of Tj follows the last event of Ti. ≺H is the real-time order of
// transactions in h (paper, §4).
func (h History) Precedes(ti, tj TxID) bool {
	if !h.Completed(ti) {
		return false
	}
	sp := h.spans()
	si, oki := sp[ti]
	sj, okj := sp[tj]
	return oki && okj && si.last < sj.first
}

// Concurrent reports whether ti and tj are concurrent in h: neither
// precedes the other in real-time order.
func (h History) Concurrent(ti, tj TxID) bool {
	if ti == tj {
		return false
	}
	return !h.Precedes(ti, tj) && !h.Precedes(tj, ti)
}

// RealTimeOrder returns ≺H as an explicit list of ordered pairs, useful
// for display, for constructing the Lrt edges of the opacity graph and
// for the reference opacity engine.
func (h History) RealTimeOrder() [][2]TxID {
	txs := h.Transactions()
	sp := h.spans()
	var out [][2]TxID
	for _, ti := range txs {
		if !h.Completed(ti) {
			continue
		}
		for _, tj := range txs {
			if sp[tj].first > sp[ti].last {
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
	for _, p := range h.RealTimeOrder() {
		if !h2.Precedes(p[0], p[1]) {
			return false
		}
	}
	return true
}

// Sequential reports whether h is a sequential history: no two
// transactions in h are concurrent. Equivalently, the events of each
// transaction form a contiguous block and every block except possibly the
// last belongs to a completed transaction.
func (h History) Sequential() bool {
	txs := h.Transactions()
	for i, ti := range txs {
		for _, tj := range txs[i+1:] {
			if h.Concurrent(ti, tj) {
				return false
			}
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
