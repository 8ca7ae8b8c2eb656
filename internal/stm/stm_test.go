package stm

import (
	"errors"
	"fmt"
	"testing"

	"otm/internal/history"
)

// fakeTM is a deterministic scriptable TM for testing the package's
// engine-independent plumbing (Atomically, Recorder) in isolation.
type fakeTM struct {
	n          int
	vals       []int
	failReads  int // abort the first N reads across all transactions
	failCommit int // abort the first N commits
	begun      int
}

func newFake(n int) *fakeTM { return &fakeTM{n: n, vals: make([]int, n)} }

func (f *fakeTM) Name() string { return "fake" }
func (f *fakeTM) Len() int     { return f.n }
func (f *fakeTM) Begin() Tx {
	f.begun++
	return &fakeTx{tm: f, local: make(map[int]int)}
}

type fakeTx struct {
	tm    *fakeTM
	local map[int]int
	steps int64
	done  bool
}

func (t *fakeTx) Read(i int) (int, error) {
	if t.done {
		return 0, ErrAborted
	}
	t.steps++
	if t.tm.failReads > 0 {
		t.tm.failReads--
		t.done = true
		return 0, ErrAborted
	}
	if v, ok := t.local[i]; ok {
		return v, nil
	}
	return t.tm.vals[i], nil
}

func (t *fakeTx) Write(i, v int) error {
	if t.done {
		return ErrAborted
	}
	t.local[i] = v
	return nil
}

func (t *fakeTx) Commit() error {
	if t.done {
		return ErrAborted
	}
	t.done = true
	if t.tm.failCommit > 0 {
		t.tm.failCommit--
		return ErrAborted
	}
	for i, v := range t.local {
		t.tm.vals[i] = v
	}
	return nil
}

func (t *fakeTx) Abort()       { t.done = true }
func (t *fakeTx) Steps() int64 { return t.steps }

func TestAtomicallyCommits(t *testing.T) {
	tm := newFake(2)
	err := Atomically(tm, func(tx Tx) error {
		return tx.Write(0, 5)
	})
	if err != nil || tm.vals[0] != 5 {
		t.Fatalf("err=%v vals=%v", err, tm.vals)
	}
	if tm.begun != 1 {
		t.Errorf("begun %d transactions, want 1", tm.begun)
	}
}

func TestAtomicallyRetriesOnForcedAbort(t *testing.T) {
	tm := newFake(1)
	tm.failReads = 2
	calls := 0
	err := Atomically(tm, func(tx Tx) error {
		calls++
		_, err := tx.Read(0)
		if err != nil {
			return err
		}
		return tx.Write(0, 9)
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("fn called %d times, want 3 (two forced aborts)", calls)
	}
	if tm.vals[0] != 9 {
		t.Error("retried transaction's write lost")
	}
}

func TestAtomicallyRetriesOnCommitAbort(t *testing.T) {
	tm := newFake(1)
	tm.failCommit = 1
	err := Atomically(tm, func(tx Tx) error { return tx.Write(0, 3) })
	if err != nil || tm.vals[0] != 3 {
		t.Fatalf("err=%v vals=%v", err, tm.vals)
	}
	if tm.begun != 2 {
		t.Errorf("begun %d, want 2", tm.begun)
	}
}

func TestAtomicallyPropagatesUserError(t *testing.T) {
	tm := newFake(1)
	boom := errors.New("boom")
	err := Atomically(tm, func(tx Tx) error {
		if werr := tx.Write(0, 7); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if tm.vals[0] != 0 {
		t.Error("failed transaction's write must be discarded")
	}
	if tm.begun != 1 {
		t.Error("user errors must not retry")
	}
}

func TestReadAll(t *testing.T) {
	tm := newFake(3)
	tm.vals = []int{1, 2, 3}
	tx := tm.Begin()
	vs, err := ReadAll(tx, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if v != i+1 {
			t.Errorf("vs[%d]=%d", i, v)
		}
	}
	tm2 := newFake(2)
	tm2.failReads = 1
	if _, err := ReadAll(tm2.Begin(), 2); !errors.Is(err, ErrAborted) {
		t.Error("ReadAll must propagate aborts")
	}
}

func TestObjName(t *testing.T) {
	if ObjName(0) != "r0" || ObjName(17) != "r17" {
		t.Errorf("ObjName: %s %s", ObjName(0), ObjName(17))
	}
	// Inside the table, at its edge and past it, the names are the
	// formatted ones.
	for i := -2; i <= len(objNames)+2; i++ {
		if got, want := ObjName(i), history.ObjID(fmt.Sprintf("r%d", i)); got != want {
			t.Errorf("ObjName(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestRecorderHappyPath(t *testing.T) {
	rec := NewRecorder(newFake(2))
	if rec.Len() != 2 {
		t.Error("Len passthrough")
	}
	if rec.Name() != "fake+rec" {
		t.Errorf("Name = %q", rec.Name())
	}
	tx := rec.Begin()
	if v, err := tx.Read(0); err != nil || v != 0 {
		t.Fatal(err)
	}
	if err := tx.Write(1, 5); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	h := rec.History()
	want := history.History{
		history.Inv(1, "r0", "read", nil), history.Ret(1, "r0", "read", 0),
		history.Inv(1, "r1", "write", 5), history.Ret(1, "r1", "write", history.OK),
		history.TryC(1), history.Commit(1),
	}
	if len(h) != len(want) {
		t.Fatalf("recorded %d events, want %d: %v", len(h), len(want), h)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, h[i], want[i])
		}
	}
	if err := h.WellFormed(); err != nil {
		t.Error(err)
	}
}

func TestRecorderForcedAbortDuringRead(t *testing.T) {
	tm := newFake(1)
	tm.failReads = 1
	rec := NewRecorder(tm)
	tx := rec.Begin()
	if _, err := tx.Read(0); !errors.Is(err, ErrAborted) {
		t.Fatal("expected forced abort")
	}
	h := rec.History()
	// ⟨inv, A⟩: the abort event arrives in place of the response.
	if len(h) != 2 || h[0].Kind != history.KindInv || h[1].Kind != history.KindAbort {
		t.Fatalf("recorded %v", h)
	}
	if err := h.WellFormed(); err != nil {
		t.Error(err)
	}
	if !h.ForcefullyAborted(1) {
		t.Error("T1 must be forcefully aborted")
	}
	// Subsequent operations are rejected and NOT recorded.
	if _, err := tx.Read(0); !errors.Is(err, ErrAborted) {
		t.Error("post-abort read must fail")
	}
	if err := tx.Write(0, 1); !errors.Is(err, ErrAborted) {
		t.Error("post-abort write must fail")
	}
	if err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Error("post-abort commit must fail")
	}
	if len(rec.History()) != 2 {
		t.Error("post-abort operations must not be recorded")
	}
}

func TestRecorderCommitAbort(t *testing.T) {
	tm := newFake(1)
	tm.failCommit = 1
	rec := NewRecorder(tm)
	tx := rec.Begin()
	if err := tx.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatal("expected commit abort")
	}
	h := rec.History()
	last2 := h[len(h)-2:]
	if last2[0].Kind != history.KindTryCommit || last2[1].Kind != history.KindAbort {
		t.Errorf("tail = %v, want tryC A", last2)
	}
}

func TestRecorderVoluntaryAbort(t *testing.T) {
	rec := NewRecorder(newFake(1))
	tx := rec.Begin()
	tx.Abort()
	tx.Abort() // idempotent: no duplicate events
	h := rec.History()
	if len(h) != 2 || h[0].Kind != history.KindTryAbort || h[1].Kind != history.KindAbort {
		t.Fatalf("recorded %v, want tryA A", h)
	}
}

func TestRecorderAssignsFreshTxIDs(t *testing.T) {
	rec := NewRecorder(newFake(1))
	a := rec.Begin()
	b := rec.Begin()
	_ = a.Commit()
	_ = b.Commit()
	h := rec.History()
	txs := h.Transactions()
	if len(txs) != 2 || txs[0] == txs[1] {
		t.Errorf("transactions %v", txs)
	}
}

func TestRecorderStepsPassthrough(t *testing.T) {
	rec := NewRecorder(newFake(2))
	tx := rec.Begin()
	if _, err := tx.Read(0); err != nil {
		t.Fatal(err)
	}
	if tx.Steps() != 1 {
		t.Errorf("Steps = %d, want the inner engine's 1", tx.Steps())
	}
}

func TestRecorderHistorySnapshot(t *testing.T) {
	rec := NewRecorder(newFake(1))
	tx := rec.Begin()
	if _, err := tx.Read(0); err != nil {
		t.Fatal(err)
	}
	snap := rec.History()
	n := len(snap)
	_ = tx.Commit()
	if len(snap) != n {
		t.Error("History must return an independent snapshot")
	}
}

func TestStatusConstantsDistinct(t *testing.T) {
	s := map[int32]bool{StatusActive: true, StatusCommitted: true, StatusAborted: true}
	if len(s) != 3 {
		t.Error("status constants must be distinct")
	}
}

func ExampleAtomically() {
	tm := newFake(1)
	_ = Atomically(tm, func(tx Tx) error {
		v, err := tx.Read(0)
		if err != nil {
			return err
		}
		return tx.Write(0, v+1)
	})
	fmt.Println(tm.vals[0])
	// Output: 1
}
