package history

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// equalEvents reports whether two event sequences are identical.
func equalEvents(a, b History) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// equivalentRef is the per-transaction Equivalent that projects both
// histories with Sub once per transaction, kept as the reference the
// one-pass version is pinned to.
func equivalentRef(h, h2 History) bool {
	txs := h.Transactions()
	txs2 := h2.Transactions()
	if len(txs) != len(txs2) {
		return false
	}
	seen := make(map[TxID]bool, len(txs))
	for _, tx := range txs {
		seen[tx] = true
	}
	for _, tx := range txs2 {
		if !seen[tx] {
			return false
		}
	}
	for _, tx := range txs {
		if !equalEvents(h.Sub(tx), h2.Sub(tx)) {
			return false
		}
	}
	return true
}

// reinterleave returns a random interleaving of h's per-transaction
// projections, each kept in order: a history equivalent to h.
func reinterleave(r *rand.Rand, h History) History {
	var subs []History
	for _, tx := range h.Transactions() {
		subs = append(subs, h.Sub(tx))
	}
	out := make(History, 0, len(h))
	for len(subs) > 0 {
		i := r.Intn(len(subs))
		out = append(out, subs[i][0])
		if subs[i] = subs[i][1:]; len(subs[i]) == 0 {
			subs = append(subs[:i], subs[i+1:]...)
		}
	}
	return out
}

// qpair is a random history and a reinterleaving of it, possibly with
// one mutation: a changed event, a reordered pair of one transaction's
// events, a dropped transaction, an extra one, or a transaction renamed
// to a fresh identifier (same length, different transaction set).
type qpair struct{ H, H2 History }

// Generate implements quick.Generator.
func (qpair) Generate(r *rand.Rand, _ int) reflect.Value {
	h := randomHistory(r)
	h2 := reinterleave(r, h)
	txs := h.Transactions()
	if len(h2) == 0 {
		return reflect.ValueOf(qpair{h, h2})
	}
	switch r.Intn(6) {
	case 1: // one changed event
		k := r.Intn(len(h2))
		if r.Intn(2) == 0 {
			h2[k].Obj += "'"
		} else {
			h2[k].Tx = txs[r.Intn(len(txs))]
		}
	case 2: // two events of one transaction swapped
		tx := h2[r.Intn(len(h2))].Tx
		var at []int
		for k, e := range h2 {
			if e.Tx == tx {
				at = append(at, k)
			}
		}
		i, j := at[r.Intn(len(at))], at[r.Intn(len(at))]
		h2[i], h2[j] = h2[j], h2[i]
	case 3: // a transaction missing
		tx := txs[r.Intn(len(txs))]
		out := h2[:0]
		for _, e := range h2 {
			if e.Tx != tx {
				out = append(out, e)
			}
		}
		h2 = out
	case 4: // an extra transaction
		k := r.Intn(len(h2) + 1)
		h2 = append(h2[:k], append(History{TryC(99)}, h2[k:]...)...)
	case 5: // a transaction renamed
		tx := txs[r.Intn(len(txs))]
		for k := range h2 {
			if h2[k].Tx == tx {
				h2[k].Tx = 99
			}
		}
	}
	return reflect.ValueOf(qpair{h, h2})
}

// TestQuickEquivalentMatchesReference pins the one-pass Equivalent to
// equivalentRef, in both argument orders, and checks that the inputs
// reach both answers.
func TestQuickEquivalentMatchesReference(t *testing.T) {
	var yes, no int
	f := func(x qpair) bool {
		want := equivalentRef(x.H, x.H2)
		if want {
			yes++
		} else {
			no++
		}
		return Equivalent(x.H, x.H2) == want && Equivalent(x.H2, x.H) == equivalentRef(x.H2, x.H)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if yes < 100 || no < 100 {
		t.Errorf("%d equivalent and %d inequivalent pairs: the generator lost a side", yes, no)
	}
}
