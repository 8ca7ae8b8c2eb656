package history

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The functions under test here compute their answers differently from
// the model's definitions (a numbering's dedup, one transaction table
// shared by every pair, a backward status scan); each is pinned against
// its straightforward per-item counterpart on a corpus of random event
// sequences. The corpus is generated locally (internal/gen
// depends on this package, so it cannot supply it) and deliberately
// includes pending invocations, interleavings, aborts in place of
// responses, and transactions left in every phase — the structures the
// rewritten scans must classify.
func hotCorpus(t *testing.T) []History {
	t.Helper()
	var out []History
	objs := []ObjID{"x", "y", "z"}
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h History
		type st struct{ phase int } // 0 idle, 1 op-pending, 2 tryC'd, 3 done
		txst := make([]st, 1+rng.Intn(6)+2)
		for ev := 0; ev < 8+rng.Intn(24); ev++ {
			tx := TxID(1 + rng.Intn(len(txst)-1))
			s := &txst[tx]
			switch s.phase {
			case 0:
				switch rng.Intn(4) {
				case 0, 1:
					ob := objs[rng.Intn(len(objs))]
					if rng.Intn(2) == 0 {
						h = append(h, Inv(tx, ob, "write", rng.Intn(5)))
					} else {
						h = append(h, Inv(tx, ob, "read", nil))
					}
					s.phase = 1
				case 2:
					h = append(h, TryC(tx))
					s.phase = 2
				case 3:
					// leave idle (possibly live forever)
				}
			case 1:
				switch rng.Intn(4) {
				case 0, 1:
					inv := h[len(h)-1] // not necessarily this tx; find it
					for i := len(h) - 1; i >= 0; i-- {
						if h[i].Tx == tx && h[i].Kind == KindInv {
							inv = h[i]
							break
						}
					}
					ret := Value(OK)
					if inv.Op == "read" {
						ret = rng.Intn(5)
					}
					h = append(h, Ret(tx, inv.Obj, inv.Op, ret))
					s.phase = 0
				case 2:
					h = append(h, Abort(tx))
					s.phase = 3
				case 3:
					// leave the invocation pending
				}
			case 2:
				if rng.Intn(3) == 0 {
					h = append(h, Abort(tx))
				} else {
					h = append(h, Commit(tx))
				}
				s.phase = 3
			case 3:
				// completed; no more events
			}
		}
		if err := h.WellFormed(); err != nil {
			t.Fatalf("seed %d generated a malformed history: %v\n%s", seed, err, h.Format())
		}
		out = append(out, h)
	}
	return out
}

// TestRealTimeOrderMatchesPrecedes: the span-derived pair list must
// contain exactly the pairs the pairwise Precedes oracle reports.
func TestRealTimeOrderMatchesPrecedes(t *testing.T) {
	for hi, h := range hotCorpus(t) {
		txs := h.Transactions()
		got := map[[2]TxID]bool{}
		for _, p := range h.RealTimeOrder() {
			got[p] = true
		}
		for _, ti := range txs {
			for _, tj := range txs {
				if ti == tj {
					continue
				}
				want := h.Precedes(ti, tj)
				if got[[2]TxID{ti, tj}] != want {
					t.Fatalf("history %d: RealTimeOrder(T%d ≺ T%d) = %v, Precedes says %v\n%s",
						hi, int(ti), int(tj), !want, want, h.Format())
				}
			}
		}
	}
}

// TestStatusMatchesSubOracle: the backward-scan Status must match the
// "last event of H|Ti" definition it replaced.
func TestStatusMatchesSubOracle(t *testing.T) {
	statusOf := func(h History, tx TxID) Status {
		sub := h.Sub(tx)
		if len(sub) == 0 {
			return StatusLive
		}
		switch sub[len(sub)-1].Kind {
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
	for hi, h := range hotCorpus(t) {
		for _, tx := range h.Transactions() {
			if got, want := h.Status(tx), statusOf(h, tx); got != want {
				t.Fatalf("history %d: Status(T%d) = %v, oracle %v", hi, int(tx), got, want)
			}
		}
		if h.Status(9999) != StatusLive {
			t.Fatalf("history %d: absent transaction must report live", hi)
		}
	}
}

// TestManyTransactionsFallbacks drives Transactions and Objects past
// their linear-scan cutoffs (32 distinct entries) so the map-based
// fallbacks are exercised and agree with the small-n paths' semantics,
// and checks WellFormed at the same size.
func TestManyTransactionsFallbacks(t *testing.T) {
	var h History
	for i := 1; i <= 40; i++ {
		ob := ObjID(fmt.Sprintf("o%d", i))
		h = append(h,
			Inv(TxID(i), ob, "write", i), Ret(TxID(i), ob, "write", OK),
			TryC(TxID(i)), Commit(TxID(i)))
	}
	if err := h.WellFormed(); err != nil {
		t.Fatalf("40-transaction history must be well-formed: %v", err)
	}
	txs := h.Transactions()
	if len(txs) != 40 {
		t.Fatalf("Transactions found %d, want 40", len(txs))
	}
	if objs := h.Objects(); len(objs) != 40 {
		t.Fatalf("Objects found %d, want 40", len(objs))
	}
	for i, tx := range txs {
		if tx != TxID(i+1) {
			t.Fatalf("transaction order: got %v at %d", tx, i)
		}
	}
	// And a malformed many-transaction history still errors.
	bad := append(h.Clone(), Inv(1, "x", "read", nil))
	if bad.WellFormed() == nil {
		t.Fatal("event after commit must fail well-formedness")
	}
}

// TestCompleteWithMatchesPerTransactionRule: CompleteWith's one pass
// over the history must append exactly what the per-transaction rule
// appends — a status scan and a pending-invocation scan per transaction,
// the definition it replaced — in first-event order, with every
// commit-pending transaction committed and then with every one aborted;
// so must Appender.Complete with the same fates. The corpus runs below
// the 32-transaction lookup cutoff; concatenating eight of its
// histories, renumbered apart, runs above it. Every input is
// well-formed, so Load must accept each one.
func TestCompleteWithMatchesPerTransactionRule(t *testing.T) {
	ruleEvents := func(h History, tx TxID, commit bool) []Event {
		switch h.Status(tx) {
		case StatusCommitted, StatusAborted:
			return nil
		case StatusCommitPending:
			if commit {
				return []Event{Commit(tx)}
			}
			return []Event{Abort(tx)}
		}
		if _, pending := h.PendingInv(tx); pending {
			return []Event{Abort(tx)}
		}
		return []Event{TryC(tx), Abort(tx)}
	}
	corpus := hotCorpus(t)
	for i, n := 0, len(corpus); i+8 <= n; i += 8 {
		var wide History
		for j, h := range corpus[i : i+8] {
			for _, e := range h {
				e.Tx += TxID(100 * j)
				wide = append(wide, e)
			}
		}
		corpus = append(corpus, wide)
	}
	wideSeen := false
	for hi, h := range corpus {
		txs := h.Transactions()
		wideSeen = wideSeen || len(txs) > 32
		for _, commit := range []bool{true, false} {
			commits := map[TxID]bool{}
			want := h.Clone()
			for _, tx := range txs {
				c := commit && h.CommitPending(tx)
				commits[tx] = c
				ev := ruleEvents(h, tx, c)
				if got := h.CompletionEvents(tx, c); !reflect.DeepEqual(got, ev) && len(got)+len(ev) > 0 {
					t.Fatalf("history %d: CompletionEvents(T%d, %v) = %v, the rule gives %v", hi, int(tx), c, got, ev)
				}
				want = append(want, ev...)
			}
			if got := h.CompleteWith(commits); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("history %d (%d transactions, commit=%v): CompleteWith\n%s\nthe rule gives\n%s",
					hi, len(txs), commit, got.Format(), want.Format())
			}
			// Appender.Complete reads the same fates by index, and
			// ignores those of transactions that are not commit-pending.
			var a Appender
			if err := a.Load(h); err != nil {
				t.Fatalf("history %d: Load: %v", hi, err)
			}
			fate := make([]bool, len(txs))
			for i := range fate {
				fate[i] = commit
			}
			got := a.Complete(fate)
			if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("history %d (%d transactions, commit=%v): Appender.Complete\n%s\nthe rule gives\n%s",
					hi, len(txs), commit, got.Format(), want.Format())
			}
			if len(h) > 0 && (&got[0] == &h[0]) != (len(got) == len(h)) {
				t.Fatalf("history %d: Appender.Complete shares h's array: %v, h complete: %v", hi, &got[0] == &h[0], len(got) == len(h))
			}
		}
	}
	if !wideSeen {
		t.Fatal("no history above the 32-transaction cutoff")
	}
}

// TestCompleteWithAllocations: at or below 32 transactions, completing
// a history allocates the transaction list and the completed history,
// nothing per transaction.
func TestCompleteWithAllocations(t *testing.T) {
	var h History
	for i := 1; i <= 32; i++ {
		tx := TxID(i)
		h = append(h, Inv(tx, "x", "read", nil))
		if i%2 == 0 {
			h = append(h, Ret(tx, "x", "read", 0))
		}
	}
	list := testing.AllocsPerRun(100, func() { _ = h.Transactions() })
	got := testing.AllocsPerRun(100, func() { _ = h.CompleteWith(nil) })
	if got > list+1 {
		t.Errorf("CompleteWith allocates %v times, Transactions alone %v: want at most one more", got, list)
	}
}
