package history

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The pairwise definitions of §4, kept as references for the
// transaction-table versions in order.go: each call rescans h for the
// spans and statuses it needs, so checking a whole history costs
// O(n²·|h|).

func spanRef(h History, tx TxID) (first, last int, ok bool) {
	first = -1
	for i, e := range h {
		if e.Tx == tx {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	return first, last, first >= 0
}

func precedesRef(h History, ti, tj TxID) bool {
	_, li, oki := spanRef(h, ti)
	fj, _, okj := spanRef(h, tj)
	return h.Completed(ti) && oki && okj && li < fj
}

func concurrentRef(h History, ti, tj TxID) bool {
	return ti != tj && !precedesRef(h, ti, tj) && !precedesRef(h, tj, ti)
}

func realTimeOrderRef(h History) [][2]TxID {
	txs := h.Transactions()
	var out [][2]TxID
	for _, ti := range txs {
		for _, tj := range txs {
			if precedesRef(h, ti, tj) {
				out = append(out, [2]TxID{ti, tj})
			}
		}
	}
	return out
}

func preservesRealTimeOrderRef(h, h2 History) bool {
	for _, p := range realTimeOrderRef(h) {
		if !precedesRef(h2, p[0], p[1]) {
			return false
		}
	}
	return true
}

func sequentialRef(h History) bool {
	txs := h.Transactions()
	for i, ti := range txs {
		for _, tj := range txs[i+1:] {
			if concurrentRef(h, ti, tj) {
				return false
			}
		}
	}
	return true
}

// blockHistory builds an event sequence out of blocks of one transaction
// each, drawn from a few identifiers, with kinds drawn at random: blocks
// of one transaction may repeat (interleaving it with others), events
// may follow a C or A, and most blocks end in C or A, so many of the
// sequences are sequential. Nothing here is kept well-formed.
func blockHistory(r *rand.Rand) History {
	var h History
	txs := 1 + r.Intn(5)
	for b := r.Intn(7); b > 0; b-- {
		tx := TxID(1 + r.Intn(txs))
		for k := r.Intn(3); k > 0; k-- {
			switch r.Intn(4) {
			case 0:
				h = append(h, Inv(tx, "x", "read", nil))
			case 1:
				h = append(h, Ret(tx, "x", "read", 0))
			case 2:
				h = append(h, TryC(tx))
			case 3:
				h = append(h, TryA(tx))
			}
		}
		switch r.Intn(5) {
		case 0:
			h = append(h, Commit(tx), Ret(tx, "x", "read", 0))
		case 1, 2:
			h = append(h, Commit(tx))
		case 3:
			h = append(h, Abort(tx))
		}
	}
	return h
}

// qorder is a pair of histories for the order differential: H is a
// well-formed random history or a block sequence, and H2 either
// reorders H's transactions into blocks (so ≺H is often preserved) or
// is drawn independently.
type qorder struct{ H, H2 History }

// Generate implements quick.Generator.
func (qorder) Generate(r *rand.Rand, _ int) reflect.Value {
	draw := func() History {
		if r.Intn(3) == 0 {
			return randomHistory(r)
		}
		return blockHistory(r)
	}
	q := qorder{H: draw()}
	if r.Intn(2) == 0 {
		txs := q.H.Transactions()
		r.Shuffle(len(txs), func(i, j int) { txs[i], txs[j] = txs[j], txs[i] })
		for _, tx := range txs {
			q.H2 = append(q.H2, q.H.Sub(tx)...)
		}
	} else {
		q.H2 = draw()
	}
	return reflect.ValueOf(q)
}

// TestQuickOrderMatchesPairwise pins Precedes, Concurrent,
// RealTimeOrder, PreservesRealTimeOrder and Sequential to the pairwise
// definitions, on well-formed and ill-formed inputs alike, including
// identifiers absent from the history. The generated inputs must
// include sequential histories, events after a C or A, and transactions
// split into several blocks.
func TestQuickOrderMatchesPairwise(t *testing.T) {
	sequential, afterEnd, split := 0, 0, 0
	f := func(q qorder) bool {
		h := q.H
		for ti := TxID(0); ti <= 6; ti++ {
			for tj := TxID(0); tj <= 6; tj++ {
				if h.Precedes(ti, tj) != precedesRef(h, ti, tj) ||
					h.Concurrent(ti, tj) != concurrentRef(h, ti, tj) {
					return false
				}
			}
		}
		blocks := 0
		for i, e := range h {
			if i == 0 || e.Tx != h[i-1].Tx {
				blocks++
			} else if completes(h[i-1].Kind) {
				afterEnd++
			}
		}
		if blocks > len(h.Transactions()) {
			split++
		}
		if h.Sequential() {
			sequential++
		}
		return reflect.DeepEqual(h.RealTimeOrder(), realTimeOrderRef(h)) &&
			PreservesRealTimeOrder(h, q.H2) == preservesRealTimeOrderRef(h, q.H2) &&
			PreservesRealTimeOrder(q.H2, h) == preservesRealTimeOrderRef(q.H2, h) &&
			h.Sequential() == sequentialRef(h) &&
			q.H2.Sequential() == sequentialRef(q.H2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if sequential < 100 || afterEnd < 100 || split < 100 {
		t.Errorf("of 2000 generated histories, %d are sequential, %d events follow a C or A, %d split a transaction; want at least 100 each",
			sequential, afterEnd, split)
	}
}
