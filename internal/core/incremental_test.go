package core_test

import (
	"errors"
	"testing"

	"otm/internal/core"
	"otm/internal/gen"
	"otm/internal/history"
	"otm/internal/spec"
)

// firstBadPrefix computes, by brute force, the length of the shortest
// non-opaque prefix of h using fresh one-shot Check calls on EVERY
// prefix length — including prefixes ending in invocation events, so the
// incremental engine's "invocations never flip the verdict" and
// abort-skip rules are themselves under test. Returns -1 if every prefix
// is opaque.
func firstBadPrefix(t *testing.T, h history.History) int {
	t.Helper()
	for i := 1; i <= len(h); i++ {
		r, err := core.Check(h[:i], core.Config{})
		if err != nil {
			t.Fatalf("fresh Check of prefix %d: %v", i, err)
		}
		if !r.Opaque {
			return i
		}
	}
	return -1
}

// TestIncrementalMatchesCheckEveryPrefix is the satellite differential:
// feed every event of every corpus history through one Incremental and
// require its running verdict to agree with fresh one-shot Check calls
// on every prefix — opaque exactly while all prefixes are opaque, and
// flagged at exactly the shortest non-opaque prefix.
func TestIncrementalMatchesCheckEveryPrefix(t *testing.T) {
	n := 60
	if !testing.Short() {
		n = 250
	}
	for _, cfg := range []gen.Config{
		{Txs: 5, Objs: 3, MaxOps: 3, PStaleRead: 0.3},
		{Txs: 6, Objs: 2, MaxOps: 4, PStaleRead: 0.4, PLeaveLive: 0.5},
		{Txs: 4, Objs: 2, MaxOps: 3, PStaleRead: 0.2, PCommit: 0.4},
	} {
		for seed, h := range gen.Corpus(cfg, n, 7) {
			want := firstBadPrefix(t, h)
			inc := core.NewIncremental(core.Config{})
			flagged := -1
			for i, ev := range h {
				res, err := inc.Append(ev)
				if err != nil {
					t.Fatalf("cfg=%+v seed=%d event %d: %v", cfg, seed, i, err)
				}
				if res.Events != i+1 {
					t.Fatalf("cfg=%+v seed=%d: Events=%d after %d appends", cfg, seed, res.Events, i+1)
				}
				if !res.Opaque && flagged == -1 {
					flagged = res.PrefixLen
					if flagged != i+1 {
						t.Fatalf("cfg=%+v seed=%d: violation flagged at event %d with PrefixLen=%d",
							cfg, seed, i+1, flagged)
					}
				}
			}
			if flagged != want {
				t.Fatalf("cfg=%+v seed=%d: incremental flags prefix %d, one-shot scan says %d:\n%s",
					cfg, seed, flagged, want, h.Format())
			}
		}
	}
}

// TestIncrementalMatchesReferencePath: the unified incremental engine
// and the DisableMemo incremental path (fresh reference Check per
// checked prefix) agree on verdict and violation position.
func TestIncrementalMatchesReferencePath(t *testing.T) {
	n := 40
	if !testing.Short() {
		n = 120
	}
	for seed, h := range gen.Corpus(gen.Config{Txs: 5, Objs: 3, MaxOps: 3, PStaleRead: 0.35, PLeaveLive: 0.3}, n, 101) {
		uni := core.NewIncremental(core.Config{})
		ref := core.NewIncremental(core.Config{DisableMemo: true})
		for i, ev := range h {
			ru, errU := uni.Append(ev)
			rr, errR := ref.Append(ev)
			if errU != nil || errR != nil {
				t.Fatalf("seed=%d event %d: unified err=%v reference err=%v", seed, i, errU, errR)
			}
			if ru.Opaque != rr.Opaque || ru.PrefixLen != rr.PrefixLen {
				t.Fatalf("seed=%d event %d: unified (opaque=%v at %d) vs reference (opaque=%v at %d)",
					seed, i, ru.Opaque, ru.PrefixLen, rr.Opaque, rr.PrefixLen)
			}
		}
	}
}

// TestIncrementalAgreesWithFirstNonOpaquePrefix: the refactored
// FirstNonOpaquePrefix (now running on Incremental) returns the same
// positions as the retained DisableMemo prefix loop.
func TestIncrementalAgreesWithFirstNonOpaquePrefix(t *testing.T) {
	n := 40
	if !testing.Short() {
		n = 150
	}
	for seed, h := range gen.Corpus(gen.Config{Txs: 5, Objs: 3, MaxOps: 3, PStaleRead: 0.3}, n, 55) {
		got, err := core.FirstNonOpaquePrefix(h, core.Config{})
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		want, err := core.FirstNonOpaquePrefix(h, core.Config{DisableMemo: true})
		if err != nil {
			t.Fatalf("seed=%d (reference): %v", seed, err)
		}
		if got != want {
			t.Fatalf("seed=%d: FirstNonOpaquePrefix unified=%d reference=%d:\n%s", seed, got, want, h.Format())
		}
	}
}

// TestIncrementalFastPath: on a well-behaved committed workload the
// witness-revalidation fast path, not the search, must carry almost
// every check — that is the property making online monitoring cheap.
func TestIncrementalFastPath(t *testing.T) {
	b := history.NewBuilder()
	for i := 0; i < 30; i++ {
		tx := history.TxID(i + 1)
		b.Write(tx, "x", i).Read(tx, "x", i).Commits(tx)
	}
	inc := core.NewIncremental(core.Config{})
	res, err := inc.Append(b.MustHistory()...)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Opaque {
		t.Fatalf("sequential committed history flagged at %d", res.PrefixLen)
	}
	if res.FastPath <= res.Searches {
		t.Errorf("fast path carried %d checks, search %d — revalidation is not doing its job",
			res.FastPath, res.Searches)
	}
	if res.Nodes > 10*res.Searches+100 {
		t.Errorf("suspiciously many nodes (%d) for %d searches", res.Nodes, res.Searches)
	}
}

// TestIncrementalSkipRule: aborts of non-commit-pending transactions
// (voluntary tryA-A pairs and forceful aborts replacing an operation
// response) skip checking outright, and the verdict still matches a
// one-shot Check.
func TestIncrementalSkipRule(t *testing.T) {
	h := history.History{
		history.Inv(1, "x", "write", 1), history.Ret(1, "x", "write", history.OK),
		history.TryC(1), history.Commit(1),
		history.Inv(2, "x", "read", nil), history.Ret(2, "x", "read", 1),
		history.TryA(2), history.Abort(2), // voluntary abort: skippable
		history.Inv(3, "x", "read", nil), history.Abort(3), // forceful mid-op abort: skippable
		history.Inv(4, "x", "read", nil), history.Ret(4, "x", "read", 1),
		history.TryC(4), history.Abort(4), // abort of a commit-pending tx: NOT skippable
	}.MustWellFormed()
	inc := core.NewIncremental(core.Config{})
	res, err := inc.Append(h...)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Opaque {
		t.Fatalf("flagged at %d", res.PrefixLen)
	}
	if res.Skipped != 2 {
		t.Errorf("Skipped = %d, want 2 (T2's voluntary and T3's forceful abort)", res.Skipped)
	}
	r, err := core.Check(h, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Opaque != res.Opaque {
		t.Errorf("incremental says %v, one-shot Check says %v", res.Opaque, r.Opaque)
	}
}

// TestIncrementalViolationLatch: after the first violation the verdict
// latches (PrefixLen frozen) while the history keeps growing.
func TestIncrementalViolationLatch(t *testing.T) {
	inc := core.NewIncremental(core.Config{})
	// T1 reads a value nobody wrote: non-opaque at event 2.
	res, err := inc.Append(
		history.Inv(1, "x", "read", nil), history.Ret(1, "x", "read", 9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Opaque || res.PrefixLen != 2 {
		t.Fatalf("verdict %+v, want violation at prefix 2", res)
	}
	// Appending the writer that would explain the read in a longer
	// history must NOT un-flag: monitoring semantics are first-violation.
	res, err = inc.Append(
		history.Inv(2, "x", "write", 9), history.Ret(2, "x", "write", history.OK),
		history.TryC(2), history.Commit(2), history.TryC(1), history.Commit(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Opaque || res.PrefixLen != 2 || res.Events != 8 {
		t.Fatalf("latched verdict %+v, want non-opaque at 2 with 8 events", res)
	}
	if got := len(inc.History()); got != 8 {
		t.Errorf("history length %d, want 8", got)
	}
	// The full history IS opaque under one-shot Check — the latch is the
	// difference between Definition 1 and its online monitoring view.
	r, err := core.Check(inc.History(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Opaque {
		t.Error("full history should be opaque one-shot (writer explains the read)")
	}
}

// TestIncrementalErrors: ill-formed events and exhausted budgets latch.
func TestIncrementalErrors(t *testing.T) {
	t.Run("illformed", func(t *testing.T) {
		inc := core.NewIncremental(core.Config{})
		if _, err := inc.Append(history.Inv(1, "x", "read", nil)); err != nil {
			t.Fatal(err)
		}
		bad := history.Inv(1, "y", "read", nil) // invocation while one is pending
		_, err := inc.Append(bad)
		var wfe *history.WellFormedError
		if !errors.As(err, &wfe) {
			t.Fatalf("Append(bad) = %v, want WellFormedError", err)
		}
		// Latched: the identical error again, and the valid prefix survives.
		if _, err2 := inc.Append(history.Ret(1, "x", "read", 0)); err2 != err {
			t.Fatalf("error did not latch: %v", err2)
		}
		if got := inc.Result().Events; got != 1 {
			t.Errorf("Events = %d, want 1 (rejected events not recorded)", got)
		}
		if inc.Err() == nil {
			t.Error("Err() should report the latched error")
		}
	})
	t.Run("budget", func(t *testing.T) {
		// An adversarial history with several commit-pending transactions
		// and a 1-node budget cannot reach a verdict.
		b := history.NewBuilder()
		for i := 1; i <= 4; i++ {
			tx := history.TxID(i)
			b.Write(tx, "x", i).TryC(tx)
		}
		h := b.Read(5, "x", 3).MustHistory()
		inc := core.NewIncremental(core.Config{MaxNodes: 1})
		_, err := inc.Append(h...)
		if !errors.Is(err, core.ErrSearchLimit) {
			t.Fatalf("Append under 1-node budget = %v, want ErrSearchLimit", err)
		}
	})
}

// TestIncrementalSharedContext: a caller-supplied SearchContext is used
// (and exposed) so a follow-up Diagnose can reuse the monitoring tables.
func TestIncrementalSharedContext(t *testing.T) {
	ctx := core.NewSearchContext()
	inc := core.NewIncremental(core.Config{Context: ctx})
	if inc.Context() != ctx {
		t.Fatal("Context() does not expose the supplied context")
	}
	h := history.NewBuilder().
		Write(1, "x", 1).Commits(1).
		Read(2, "x", 1).Read(2, "y", 5). // y=5 unexplained: violation
		MustHistory()
	res, err := inc.Append(h...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Opaque {
		t.Fatal("expected a violation")
	}
	d, err := core.Diagnose(inc.History()[:res.PrefixLen], core.Config{Context: inc.Context()})
	if err != nil {
		t.Fatal(err)
	}
	if d.Opaque || d.PrefixLen != res.PrefixLen {
		t.Fatalf("diagnosis %+v disagrees with incremental verdict at %d", d, res.PrefixLen)
	}
}

// TestIncrementalLateConfiguredObject: a configured object that first
// appears after the checker interned its initial state must still start
// from its configured state. The registry grows when y appears, and with
// it the initial-state vector, so a cached initial state from before
// would read y as the default register 0 and flag r2(y)->5.
func TestIncrementalLateConfiguredObject(t *testing.T) {
	h := history.MustParse("w1(x,1) tryC1 C1 r2(y)->5 tryC2 C2")
	cfg := core.Config{Objects: spec.Registers(5, "y")}
	inc := core.NewIncremental(cfg)
	for i, ev := range h {
		res, err := inc.Append(ev)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		want, err := core.Check(h[:i+1], cfg)
		if err != nil {
			t.Fatalf("Check of prefix %d: %v", i+1, err)
		}
		if res.Opaque != want.Opaque {
			t.Fatalf("prefix %d: incremental opaque=%v, Check says %v", i+1, res.Opaque, want.Opaque)
		}
	}
	if !inc.Result().Opaque {
		t.Error("history flagged non-opaque, want opaque: y starts at its configured 5")
	}
}
