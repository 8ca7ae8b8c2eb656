package core

import (
	"reflect"
	"testing"

	"otm/internal/gen"
	"otm/internal/history"
	"otm/internal/spec"
)

// seqH2 is the paper's H2: a complete sequential history equivalent to H1.
func seqH2() history.History {
	return history.NewBuilder().
		Write(1, "x", 1).Commits(1).
		Write(3, "x", 2).Write(3, "y", 2).Commits(3).
		Read(2, "x", 1).Read(2, "y", 2).Aborts(2).
		MustHistory()
}

func TestTxLegalH2(t *testing.T) {
	s := seqH2()
	objs := spec.Registers(0, "x", "y")
	if !TxLegal(s, 1, objs) {
		t.Error("T1 (first writer) must be legal in H2")
	}
	if !TxLegal(s, 3, objs) {
		t.Error("T3 must be legal in H2 (sees T1's committed x=1)")
	}
	// T2 reads x=1 after committed T3 wrote x=2: illegal (the paper's
	// case (2) for H1: the first read of T2 returns 1 instead of 2).
	if TxLegal(s, 2, objs) {
		t.Error("T2 must be illegal in H2")
	}
}

func TestTxLegalIgnoresAbortedPredecessors(t *testing.T) {
	// An aborted writer must be invisible to later transactions.
	s := history.NewBuilder().
		Write(1, "x", 9).Aborts(1).
		Read(2, "x", 0).Commits(2).
		MustHistory()
	objs := spec.Registers(0, "x")
	if !TxLegal(s, 2, objs) {
		t.Error("T2 reading the initial value is legal: aborted T1 is not visible")
	}
	sBad := history.NewBuilder().
		Write(1, "x", 9).Aborts(1).
		Read(2, "x", 9).Commits(2).
		MustHistory()
	if TxLegal(sBad, 2, objs) {
		t.Error("T2 reading the aborted write is illegal")
	}
}

func TestTxLegalOwnWritesVisible(t *testing.T) {
	// A transaction sees its own earlier writes.
	s := history.NewBuilder().
		Write(1, "x", 7).Read(1, "x", 7).Commits(1).
		MustHistory()
	if !TxLegal(s, 1, spec.Registers(0, "x")) {
		t.Error("a transaction must see its own writes")
	}
}

func TestTxLegalPendingInvocation(t *testing.T) {
	// A trailing pending invocation is always legal.
	s := history.NewBuilder().
		Read(1, "x", 0).Inv(1, "x", "write", 5).
		MustHistory()
	if !TxLegal(s, 1, spec.Registers(0, "x")) {
		t.Error("pending invocation must be legal")
	}
}

func TestTxLegalDefaultRegister(t *testing.T) {
	// Objects not in the map default to registers initialized to 0.
	s := history.NewBuilder().Read(1, "z", 0).Commits(1).MustHistory()
	if !TxLegal(s, 1, nil) {
		t.Error("default object must be a register with initial value 0")
	}
	sBad := history.NewBuilder().Read(1, "z", 3).Commits(1).MustHistory()
	if TxLegal(sBad, 1, nil) {
		t.Error("read of 3 from a fresh register is illegal")
	}
}

func TestAllLegal(t *testing.T) {
	objs := spec.Registers(0, "x", "y")
	if tx, ok := AllLegal(seqH2(), objs); ok || tx != 2 {
		t.Errorf("AllLegal(H2) = (T%d, %v), want (T2, false)", int(tx), ok)
	}
	good := history.NewBuilder().
		Write(1, "x", 1).Commits(1).
		Read(2, "x", 1).Commits(2).
		MustHistory()
	if _, ok := AllLegal(good, objs); !ok {
		t.Error("sequential read-your-committed-predecessor history is legal")
	}
}

// allLegalRef is the per-transaction AllLegal, which scans s for each
// transaction's executions and for its status, kept as the reference the
// one-pass version is pinned to.
func allLegalRef(s history.History, objs spec.Objects) (history.TxID, bool) {
	states := objs
	if states == nil {
		states = spec.Objects{}
	}
	for _, tx := range s.Transactions() {
		next, ok := replayTx(states, s.OpExecs(tx))
		if !ok {
			return tx, false
		}
		if s.Committed(tx) {
			states = next
		}
	}
	return 0, true
}

// TestAllLegalMatchesReference pins AllLegal to allLegalRef, requiring
// the same (tx, ok), on the witnesses of opaque generated histories
// (committed and aborted blocks), on each with its last event dropped
// (a live or commit-pending last block), and on each with the first read
// of one block corrupted, for every block that reads: the first, the
// middle ones and the last, committed, aborted or live.
func TestAllLegalMatchesReference(t *testing.T) {
	var seqs []history.History
	for _, cfg := range []gen.Config{
		{Txs: 5, Objs: 3, MaxOps: 3, PStaleRead: 0.3, PLeaveLive: 0.5},
		{Txs: 8, Objs: 2, MaxOps: 4, PCommit: 0.5},
	} {
		for _, h := range gen.Corpus(cfg, 150, 0) {
			res, err := Check(h, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Opaque {
				s := res.Witness.Sequential
				seqs = append(seqs, s, s[:len(s)-1])
			}
		}
	}
	var legal, illegal, abortedBad, liveBad int
	check := func(s history.History) {
		t.Helper()
		tx, ok := AllLegal(s, nil)
		wantTx, wantOK := allLegalRef(s, nil)
		if tx != wantTx || ok != wantOK {
			t.Fatalf("AllLegal = (T%d, %v), reference (T%d, %v) on\n%s", int(tx), ok, int(wantTx), wantOK, s.Format())
		}
		if ok {
			legal++
		} else {
			illegal++
		}
	}
	for _, s := range seqs {
		check(s)
		for i := 0; i < len(s); {
			tx, j, read := s[i].Tx, i, -1
			for ; j < len(s) && s[j].Tx == tx; j++ {
				if read < 0 && s[j].Kind == history.KindRet && s[j].Op == "read" {
					read = j
				}
			}
			if read >= 0 {
				bad := s.Clone()
				bad[read].Ret = -1
				switch {
				case bad.Aborted(tx):
					abortedBad++
				case bad.Live(tx):
					liveBad++
				}
				check(bad)
			}
			i = j
		}
	}
	if legal == 0 || illegal == 0 || abortedBad == 0 || liveBad == 0 {
		t.Errorf("%d legal, %d illegal, %d with an aborted and %d with a live block corrupted: the inputs lost a case", legal, illegal, abortedBad, liveBad)
	}
}

func TestAllLegalPanicsOnConcurrent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AllLegal must panic on non-sequential input")
		}
	}()
	h := history.NewBuilder().
		Inv(1, "x", "read", nil).
		Write(2, "x", 1).Commits(2).
		Ret(1, "x", "read", 1).Commits(1).
		MustHistory()
	AllLegal(h, nil)
}

func TestTxLegalCounterSemantics(t *testing.T) {
	// With counter semantics, concurrent committed increments compose.
	s := history.NewBuilder().
		Op(1, "c", "inc", nil, spec.OK).Commits(1).
		Op(2, "c", "inc", nil, spec.OK).Commits(2).
		Op(3, "c", "get", nil, 2).Commits(3).
		MustHistory()
	objs := spec.Objects{"c": spec.NewCounter(0)}
	for _, tx := range []history.TxID{1, 2, 3} {
		if !TxLegal(s, tx, objs) {
			t.Errorf("T%d must be legal with counter semantics", int(tx))
		}
	}
}

// TestBuildSequentialMatchesProjections: S is the concatenation of the
// projections H|Ti in witness order — a transaction missing from the
// order contributes nothing — below and above the 32-transaction cutoff
// where buildSequential switches from a linear lookup to an index map.
func TestBuildSequentialMatchesProjections(t *testing.T) {
	for _, n := range []int{5, 32, 33, 80} {
		// Pairs of overlapping writers: every transaction's events are
		// interleaved with its neighbour's.
		var hc history.History
		for i := 1; i <= n; i += 2 {
			a, b := history.TxID(i), history.TxID(i+1)
			hc = append(hc,
				history.Inv(a, "x", "write", i), history.Inv(b, "y", "write", i),
				history.Ret(a, "x", "write", history.OK), history.Ret(b, "y", "write", history.OK),
				history.TryC(a), history.TryC(b), history.Commit(a), history.Abort(b))
		}
		txs := hc.Transactions()
		var order []history.TxID
		for i := len(txs) - 1; i >= 1; i-- {
			order = append(order, txs[i])
		}
		var want history.History
		for _, tx := range order {
			want = append(want, hc.Sub(tx)...)
		}
		if got := buildSequential(hc, order); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d transactions: buildSequential\n%s\nwant\n%s", len(txs), got.Format(), want.Format())
		}
	}
}
