package core

import (
	"reflect"
	"testing"

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
