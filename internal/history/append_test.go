package history

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// txPhase is a transaction's state in wellFormedRef's machine, which
// names each phase instead of keying the machine by the transaction's
// last event kind as the Appender does. For every transaction Ti, H|Ti
// must be a prefix of O · F where O is a sequence of operation
// executions and F is one of ⟨inv, A⟩, ⟨tryA, A⟩, ⟨tryC, C⟩ or ⟨tryC, A⟩
// (paper, §4). The history generators walk the same phases.
type txPhase uint8

const (
	phaseIdle          txPhase = iota // between operation executions
	phaseOpPending                    // operation invoked, response pending
	phaseCommitPending                // tryC issued, C/A pending
	phaseAbortPending                 // tryA issued, A pending
	phaseCommitted
	phaseAborted
)

// wellFormedRef decides well-formedness independently of the Appender —
// one pass over the history, per-transaction phases and pending
// invocation events in maps — as the reference the Appender's state
// machine, and so WellFormed, is pinned to.
func wellFormedRef(h History) error {
	phases := make(map[TxID]txPhase)
	pendings := make(map[TxID]Event)
	for i, e := range h {
		switch phases[e.Tx] {
		case phaseCommitted:
			return wfErr(i, e, "event follows commit event")
		case phaseAborted:
			return wfErr(i, e, "event follows abort event")
		case phaseIdle:
			switch e.Kind {
			case KindInv:
				phases[e.Tx] = phaseOpPending
				pendings[e.Tx] = e
			case KindTryCommit:
				phases[e.Tx] = phaseCommitPending
			case KindTryAbort:
				phases[e.Tx] = phaseAbortPending
			default:
				return wfErr(i, e, "response event with no pending invocation")
			}
		case phaseOpPending:
			switch e.Kind {
			case KindRet:
				if !Matches(pendings[e.Tx], e) {
					return wfErr(i, e, fmt.Sprintf("response does not match pending invocation %s", pendings[e.Tx]))
				}
				phases[e.Tx] = phaseIdle
			case KindAbort:
				phases[e.Tx] = phaseAborted
			default:
				return wfErr(i, e, "invocation while an operation response is pending")
			}
		case phaseCommitPending:
			switch e.Kind {
			case KindCommit:
				phases[e.Tx] = phaseCommitted
			case KindAbort:
				phases[e.Tx] = phaseAborted
			default:
				return wfErr(i, e, "only commit or abort may follow a commit-try")
			}
		case phaseAbortPending:
			if e.Kind != KindAbort {
				return wfErr(i, e, "only abort may follow an abort-try")
			}
			phases[e.Tx] = phaseAborted
		}
	}
	return nil
}

// TestAppenderMatchesWellFormed: the Appender — which WellFormed runs —
// accepts exactly the event sequences the reference batch scanner
// accepts, rejecting the same first event with the same message.
func TestAppenderMatchesWellFormed(t *testing.T) {
	// A pool of events covering every kind, over two transactions and two
	// objects; exhaustive depth-limited enumeration of sequences.
	pool := []Event{
		Inv(1, "x", "read", nil), Ret(1, "x", "read", 0),
		Inv(1, "y", "write", 1), Ret(1, "y", "write", OK),
		TryC(1), TryA(1), Commit(1), Abort(1),
		Inv(2, "x", "write", 2), Ret(2, "x", "write", OK),
		TryC(2), Commit(2), Abort(2),
	}
	var seq History
	var walk func(depth int)
	checked := 0
	walk = func(depth int) {
		if depth == 0 {
			return
		}
		for _, ev := range pool {
			seq = append(seq, ev)
			batchErr := wellFormedRef(seq)
			incErr := seq.WellFormed()
			if (batchErr == nil) != (incErr == nil) {
				t.Fatalf("divergence on %v: reference=%v Appender=%v", seq, batchErr, incErr)
			}
			if batchErr != nil {
				var be, ie *WellFormedError
				if !errors.As(batchErr, &be) || !errors.As(incErr, &ie) {
					t.Fatalf("non-WellFormedError on %v: %v / %v", seq, batchErr, incErr)
				}
				if be.Index != ie.Index || be.Msg != ie.Msg || be.Ev != ie.Ev {
					t.Fatalf("divergent error on %v: batch (%d, %q) vs incremental (%d, %q)",
						seq, be.Index, be.Msg, ie.Index, ie.Msg)
				}
			}
			checked++
			if batchErr == nil {
				// Only extend well-formed prefixes: an ill-formed sequence
				// stays ill-formed, nothing more to learn.
				walk(depth - 1)
			}
			seq = seq[:len(seq)-1]
		}
	}
	walk(4)
	if checked < 1000 {
		t.Fatalf("enumeration too small: %d sequences", checked)
	}
}

// TestAppenderRejectsAndKeepsPrefix: a rejected event leaves the
// appender's history and transaction state untouched.
func TestAppenderRejectsAndKeepsPrefix(t *testing.T) {
	a := NewAppender()
	for _, ev := range []Event{Inv(1, "x", "read", nil), Ret(1, "x", "read", 0), TryC(1)} {
		if err := a.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	bad := Inv(1, "y", "read", nil) // only C/A may follow tryC
	err := a.Append(bad)
	var wfe *WellFormedError
	if !errors.As(err, &wfe) {
		t.Fatalf("Append(%v) = %v, want WellFormedError", bad, err)
	}
	if wfe.Index != 3 {
		t.Errorf("error index %d, want 3", wfe.Index)
	}
	if a.Len() != 3 {
		t.Errorf("rejected event recorded: Len=%d", a.Len())
	}
	if got := a.Status(1); got != StatusCommitPending {
		t.Errorf("Status(1) after rejection = %v, want commit-pending", got)
	}
	// The transaction can still complete normally.
	if err := a.Append(Commit(1)); err != nil {
		t.Fatal(err)
	}
	if got := a.Status(1); got != StatusCommitted {
		t.Errorf("Status(1) = %v, want committed", got)
	}
}

// TestAppenderStatusMatchesHistory: the O(1) Status agrees with the
// History.Status scan at every step of a representative run.
func TestAppenderStatusMatchesHistory(t *testing.T) {
	evs := History{
		Inv(1, "x", "read", nil), Ret(1, "x", "read", 0),
		Inv(2, "x", "write", 1), TryA(3), Abort(3),
		Ret(2, "x", "write", OK), TryC(2), Commit(2),
		Inv(4, "y", "read", nil), Abort(4),
		TryC(1), Abort(1),
	}
	a := NewAppender()
	for i, ev := range evs {
		if err := a.Append(ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		for tx := TxID(1); tx <= 5; tx++ {
			if got, want := a.Status(tx), a.History().Status(tx); got != want {
				t.Fatalf("after event %d: Status(T%d) = %v, History says %v", i, tx, got, want)
			}
		}
	}
}

// TestAppenderViewAndReset: History returns a stable view across appends;
// Reset clears state but keeps Snapshot copies intact.
func TestAppenderViewAndReset(t *testing.T) {
	a := NewAppender()
	if err := a.Append(Inv(1, "x", "read", nil)); err != nil {
		t.Fatal(err)
	}
	view := a.History()
	if err := a.Append(Ret(1, "x", "read", 0)); err != nil {
		t.Fatal(err)
	}
	if len(view) != 1 || view[0].Kind != KindInv {
		t.Errorf("earlier view mutated by later append: %v", view)
	}
	snap := a.Snapshot()
	a.Reset()
	if a.Len() != 0 {
		t.Errorf("Len after Reset = %d", a.Len())
	}
	if got := a.Status(1); got != StatusLive {
		t.Errorf("Status(1) after Reset = %v, want live (unknown)", got)
	}
	if len(snap) != 2 {
		t.Errorf("snapshot affected by Reset: %v", snap)
	}
	// The appender is reusable after Reset.
	if err := a.Append(TryC(7)); err != nil {
		t.Fatal(err)
	}
	if got := a.Status(7); got != StatusCommitPending {
		t.Errorf("Status(7) = %v, want commit-pending", got)
	}
}

// checkViews requires the maintained OpExecs and Objects views to equal
// what History().OpExecs and History().Objects derive by scanning the
// history built so far.
func checkViews(t *testing.T, a *Appender, when string) {
	t.Helper()
	h := a.History()
	got := a.OpExecs()
	if len(got) != len(a.Transactions()) {
		t.Fatalf("%s: OpExecs() covers %d transactions, Transactions() has %d", when, len(got), len(a.Transactions()))
	}
	for i, tx := range a.Transactions() {
		if want := h.OpExecs(tx); !slices.Equal(got[i], want) {
			t.Fatalf("%s: OpExecs()[T%d] = %v, scan says %v", when, int(tx), got[i], want)
		}
	}
	if got, want := a.Objects(), h.Objects(); !slices.Equal(got, want) {
		t.Fatalf("%s: Objects() = %v, scan says %v", when, got, want)
	}
}

// TestAppenderSpansMatchScan: the maintained Transactions/Spans/Open/
// OpExecs/Objects views agree, after every event and after a Reset, with
// a brute-force scan of the history built so far.
func TestAppenderSpansMatchScan(t *testing.T) {
	evs := History{
		Inv(1, "x", "read", nil), Ret(1, "x", "read", 0),
		Inv(2, "x", "write", 1), TryA(3), Abort(3),
		Ret(2, "x", "write", OK), TryC(2), Commit(2),
		// T4 aborts with its invocation pending: the execution stays
		// pending, and y is an object of the history all the same.
		Inv(4, "y", "read", nil), Abort(4),
		TryC(1), Commit(1),
	}
	a := NewAppender()
	for i, ev := range evs {
		if err := a.Append(ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		checkViews(t, a, fmt.Sprintf("after event %d", i))
		h := a.History()
		wantTxs := h.Transactions()
		gotTxs := a.Transactions()
		if len(gotTxs) != len(wantTxs) {
			t.Fatalf("after event %d: Transactions() = %v, scan says %v", i, gotTxs, wantTxs)
		}
		open := 0
		for ti, tx := range wantTxs {
			if gotTxs[ti] != tx {
				t.Fatalf("after event %d: Transactions() = %v, scan says %v", i, gotTxs, wantTxs)
			}
			want := Span{First: -1}
			for j, e := range h {
				if e.Tx != tx {
					continue
				}
				if want.First == -1 {
					want.First = j
				}
				want.Last = j
				want.Completed = e.Kind == KindCommit || e.Kind == KindAbort
			}
			if !want.Completed {
				open++
			}
			if got := a.Spans()[ti]; got != want {
				t.Fatalf("after event %d: Spans()[T%d] = %+v, scan says %+v", i, int(tx), got, want)
			}
		}
		if got := a.Open(); got != open {
			t.Fatalf("after event %d: Open() = %d, scan says %d", i, got, open)
		}
	}
	a.Reset()
	checkViews(t, a, "after Reset")
	// Transactions after a Reset reuse the dropped execution slices.
	for i, ev := range (History{
		Inv(5, "z", "write", 3), Ret(5, "z", "write", OK),
		Inv(6, "x", "read", nil),
	}) {
		if err := a.Append(ev); err != nil {
			t.Fatalf("event %d after Reset: %v", i, err)
		}
		checkViews(t, a, fmt.Sprintf("after event %d after Reset", i))
	}
}

// TestAppenderTruncate: a stable cut re-bases the remainder exactly as
// if only the suffix had ever been appended.
func TestAppenderTruncate(t *testing.T) {
	prefix := History{
		Inv(1, "x", "write", 1), Ret(1, "x", "write", OK), TryC(1), Commit(1),
		TryA(2), Abort(2),
	}
	suffix := History{
		Inv(3, "x", "read", nil), Ret(3, "x", "read", 1),
		Inv(4, "y", "write", 2), Ret(4, "y", "write", OK), TryC(4), Commit(4),
	}
	a := NewAppender()
	for i, ev := range append(prefix[:len(prefix):len(prefix)], suffix...) {
		if err := a.Append(ev); err != nil {
			t.Fatal(err)
		}
		checkViews(t, a, fmt.Sprintf("after event %d", i))
	}
	if err := a.Truncate(len(prefix)); err != nil {
		t.Fatal(err)
	}
	checkViews(t, a, "after Truncate")
	// Reference: a fresh appender fed only the suffix.
	ref := NewAppender()
	for _, ev := range suffix {
		if err := ref.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if a.History().String() != ref.History().String() {
		t.Errorf("truncated history:\n%s\nwant:\n%s", a.History().Format(), ref.History().Format())
	}
	if got, want := a.Transactions(), ref.Transactions(); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Transactions() = %v, want %v", got, want)
	}
	for i, want := range ref.Spans() {
		if got := a.Spans()[i]; got != want {
			t.Errorf("Spans()[%d] = %+v, want %+v", i, got, want)
		}
	}
	if got, want := a.Open(), ref.Open(); got != want {
		t.Errorf("Open() = %d, want %d", got, want)
	}
	// Dropped transactions are forgotten: their identifiers read as fresh.
	if got := a.Status(1); got != StatusLive {
		t.Errorf("Status(dropped T1) = %v, want live (forgotten)", got)
	}
	// The appender keeps working after a truncation; a new transaction
	// reuses a dropped one's execution slice.
	for i, ev := range (History{TryC(3), Commit(3), Inv(5, "z", "read", nil), Ret(5, "z", "read", 0)}) {
		if err := a.Append(ev); err != nil {
			t.Fatal(err)
		}
		checkViews(t, a, fmt.Sprintf("after event %d after Truncate", i))
	}
	if got := a.Open(); got != 1 {
		t.Errorf("Open() after completing T3 and starting T5 = %d, want 1", got)
	}
}

// TestAppenderTruncateRejectsUnstableCut: cuts that split a transaction
// or drop an incomplete one are rejected and change nothing.
func TestAppenderTruncateRejectsUnstableCut(t *testing.T) {
	a := NewAppender()
	evs := History{
		Inv(1, "x", "write", 1), Ret(1, "x", "write", OK), // T1 live
		Inv(2, "y", "write", 2), Ret(2, "y", "write", OK), TryC(2), Commit(2),
		TryC(1), Commit(1),
	}
	for _, ev := range evs {
		if err := a.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{2, 6} { // drops live T1 prefix / splits T1
		if err := a.Truncate(n); err == nil {
			t.Errorf("Truncate(%d) across live T1 succeeded, want error", n)
		}
	}
	if err := a.Truncate(9); err == nil {
		t.Error("Truncate beyond Len succeeded, want error")
	}
	if a.Len() != len(evs) {
		t.Fatalf("failed truncation changed the history: Len = %d", a.Len())
	}
	if err := a.Truncate(0); err != nil {
		t.Errorf("Truncate(0) = %v, want no-op", err)
	}
	// The whole history is now stable; the full cut empties the appender.
	if err := a.Truncate(a.Len()); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 0 || len(a.Transactions()) != 0 || a.Open() != 0 {
		t.Errorf("full truncation left state: Len=%d txs=%v open=%d",
			a.Len(), a.Transactions(), a.Open())
	}
}
