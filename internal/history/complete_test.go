package history

import "testing"

func TestCompletionEventsCommitPending(t *testing.T) {
	h := h3() // T1 commit-pending, T2 live after a completed read
	if evs := h.CompletionEvents(1, true); len(evs) != 1 || evs[0].Kind != KindCommit {
		t.Errorf("committing commit-pending T1: got %v", evs)
	}
	if evs := h.CompletionEvents(1, false); len(evs) != 1 || evs[0].Kind != KindAbort {
		t.Errorf("aborting commit-pending T1: got %v", evs)
	}
	// T2 is idle-live: forcefully aborted via tryC, A (paper's H'3).
	evs := h.CompletionEvents(2, false)
	if len(evs) != 2 || evs[0].Kind != KindTryCommit || evs[1].Kind != KindAbort {
		t.Errorf("aborting idle live T2: got %v", evs)
	}
}

func TestCompletionEventsPendingInv(t *testing.T) {
	h := NewBuilder().Inv(1, "x", "read", nil).MustHistory()
	evs := h.CompletionEvents(1, false)
	if len(evs) != 1 || evs[0].Kind != KindAbort {
		t.Errorf("live tx with pending op invocation gets a bare abort: %v", evs)
	}
}

func TestCompletionEventsPendingTryA(t *testing.T) {
	h := NewBuilder().Read(1, "x", 0).TryA(1).MustHistory()
	evs := h.CompletionEvents(1, false)
	if len(evs) != 1 || evs[0].Kind != KindAbort {
		t.Errorf("pending tryA completes with a single abort: %v", evs)
	}
}

func TestCompletionEventsCompleted(t *testing.T) {
	h := h1()
	for _, tx := range h.Transactions() {
		if evs := h.CompletionEvents(tx, false); evs != nil {
			t.Errorf("completed T%d needs no completion events, got %v", tx, evs)
		}
	}
}

func TestCompletionEventsCommitLivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("committing a non-commit-pending live transaction must panic")
		}
	}()
	h3().CompletionEvents(2, true)
}

func TestCompletionsH3(t *testing.T) {
	// Paper, §4: in each history of Complete(H3), T1 is either committed
	// or aborted, and T2 is forcefully aborted.
	h := h3()
	comps := h.Completions()
	if len(comps) != 2 {
		t.Fatalf("Complete(H3) has %d canonical members, want 2", len(comps))
	}
	sawCommit, sawAbort := false, false
	for _, c := range comps {
		if err := c.WellFormed(); err != nil {
			t.Errorf("completion not well-formed: %v", err)
		}
		if !c.Complete() {
			t.Errorf("completion not complete: %v", c)
		}
		switch {
		case c.Committed(1):
			sawCommit = true
		case c.Aborted(1):
			sawAbort = true
		}
		if !c.Aborted(2) || !c.ForcefullyAborted(2) {
			t.Errorf("T2 must be forcefully aborted in every completion of H3")
		}
		// Completions extend h: the first len(h) events are unchanged.
		if !equalEvents(c[:len(h)], h) {
			t.Errorf("completion does not extend the original history")
		}
	}
	if !sawCommit || !sawAbort {
		t.Error("Complete(H3) must contain both a committing and an aborting completion of T1")
	}
}

func TestCompletionsOfCompleteHistory(t *testing.T) {
	comps := h1().Completions()
	if len(comps) != 1 {
		t.Fatalf("a complete history has exactly one completion, got %d", len(comps))
	}
	if !Equivalent(comps[0], h1()) {
		t.Error("the only completion of a complete history is itself")
	}
}

func TestEachCompletionEarlyStop(t *testing.T) {
	// Two commit-pending transactions → 4 completions; stop after 2.
	h := NewBuilder().Write(1, "x", 1).TryC(1).Write(2, "y", 1).TryC(2).MustHistory()
	n := 0
	h.EachCompletion(func(History) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early stop after 2, got %d calls", n)
	}
	if got := len(h.Completions()); got != 4 {
		t.Errorf("two commit-pending txs give 4 completions, got %d", got)
	}
}

func TestCompleteWithExplicit(t *testing.T) {
	h := h3()
	c := h.CompleteWith(map[TxID]bool{1: true})
	if !c.Committed(1) || !c.Aborted(2) {
		t.Errorf("CompleteWith{1:true}: T1 committed=%v T2 aborted=%v", c.Committed(1), c.Aborted(2))
	}
	c2 := h.CompleteWith(nil)
	if !c2.Aborted(1) {
		t.Error("CompleteWith(nil) aborts commit-pending T1")
	}
}

func TestH4CommitPendingDuality(t *testing.T) {
	// Paper §5.2, history H4: T2 is commit-pending; T3 reads T2's write
	// while T1 still reads the old values.
	h := NewBuilder().
		Read(1, "x", 0).
		Write(2, "x", 5).Write(2, "y", 5).TryC(2).
		Read(3, "y", 5).
		Read(1, "y", 0).
		MustHistory()
	if h.Status(2) != StatusCommitPending {
		t.Fatalf("T2 must be commit-pending in H4")
	}
	comps := h.Completions()
	// T2 has 2 choices; T1 and T3 are live (always aborted): 2 members.
	if len(comps) != 2 {
		t.Fatalf("Complete(H4) canonical members = %d, want 2", len(comps))
	}
	for _, c := range comps {
		if !c.Aborted(1) || !c.Aborted(3) {
			t.Error("live T1 and T3 must be aborted in completions of H4")
		}
	}
}
