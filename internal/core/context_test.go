package core

import (
	"errors"
	"testing"

	"otm/internal/gen"
	"otm/internal/history"
	"otm/internal/spec"
)

// TestStateTableInterning checks the interning invariants of the state
// table directly: vectors of states with equal Keys intern to the same
// stateID, distinct vectors to distinct ids, and the default environment
// (missing object = register 0) is canonical — an explicit register 0
// and an absent entry produce the same interned state.
func TestStateTableInterning(t *testing.T) {
	ctx := NewSearchContext()
	ctx.registerObjects([]history.ObjID{"x", "y"})

	empty := ctx.initialState(spec.Objects{})
	again := ctx.initialState(spec.Objects{})
	if empty != again {
		t.Errorf("interning the empty environment twice gave ids %d and %d", empty, again)
	}
	explicit := ctx.initialState(spec.Objects{"x": spec.NewRegister(0), "y": spec.NewRegister(0)})
	if explicit != empty {
		t.Errorf("explicit register-0 environment interned to %d, absent-objects environment to %d; equal Keys must share a stateID", explicit, empty)
	}
	other := ctx.initialState(spec.Objects{"x": spec.NewRegister(1)})
	if other == empty {
		t.Errorf("distinct vectors (x=1 vs x=0) share stateID %d", other)
	}
	if s := ctx.Stats(); s.States != 2 {
		t.Errorf("Stats().States = %d, want 2 distinct vectors", s.States)
	}
}

// TestNewSearchContextStats: a context from NewSearchContext is its
// table set's only user, so after a check its Stats carry the set's
// insert counters — states, atoms, memo entries — not just its lookups.
func TestNewSearchContextStats(t *testing.T) {
	ctx := NewSearchContext()
	// Figure 1's H1 is not opaque, so the search fails subtrees and
	// memoizes them.
	h := history.MustParse("w1(x,1) tryC1 C1 r2(x)->1 w3(x,2) w3(y,2) tryC3 C3 r2(y)->2 tryC2 A2")
	r, err := Check(h, Config{Context: ctx})
	if err != nil || r.Opaque {
		t.Fatalf("H1: opaque=%v err=%v, want non-opaque", r.Opaque, err)
	}
	if s := ctx.Stats(); s.States == 0 || s.Atoms == 0 || s.MemoEntries == 0 {
		t.Errorf("NewSearchContext().Stats() after a check = %+v, want nonzero States, Atoms and MemoEntries", s)
	}
}

// TestTransitionCacheMatchesReplay is the transition-cache half of the
// differential suite: on a generated corpus, stepping every transaction
// through the cached interned-state path must agree with replayTx — the
// reference replay on copy-on-write object maps — in both legality and
// resulting per-object states, including when transactions are chained
// so that non-initial states are exercised and every cache entry is hit
// at least twice.
func TestTransitionCacheMatchesReplay(t *testing.T) {
	hs := gen.Corpus(gen.Config{Txs: 5, Objs: 3, MaxOps: 4, PStaleRead: 0.4}, 200, 7)
	ctx := NewSearchContext()
	for hi, h := range hs {
		txs := h.Transactions()
		execs := h.OpExecsFor(txs)
		ctx.registerObjects(h.Objects())

		for round := 0; round < 2; round++ { // second round must hit the cache
			vid := ctx.initialState(nil)
			states := spec.Objects{}
			for i := range txs {
				sig := ctx.sigOf(execs[i])
				nextVid, legalC := ctx.step(vid, sig, execs[i])
				nextStates, legalR := replayTx(states, execs[i])
				if legalC != legalR {
					t.Fatalf("history %d, T%d: cached legality %v, replayTx %v", hi, int(txs[i]), legalC, legalR)
				}
				if !legalC {
					continue // chain only over legal transactions
				}
				got := ctx.materialize(nextVid)
				for _, ob := range ctx.objs {
					want := "reg:0"
					if st, ok := nextStates[ob]; ok {
						want = st.Key()
					}
					if got := got[ob].Key(); got != want {
						t.Fatalf("history %d, T%d, object %s: cached state %q, replayTx %q", hi, int(txs[i]), ob, got, want)
					}
				}
				vid, states = nextVid, nextStates
			}
		}
	}
	if s := ctx.Stats(); s.TransHits == 0 || s.TransMisses == 0 {
		t.Errorf("differential did not exercise both cache paths: %+v", s)
	}
}

// TestMemoWideBitsetSpill covers the >128-transaction memo path: placed
// bitsets too wide for the inline comparable key go through the
// string-keyed spill table with the same semantics.
func TestMemoWideBitsetSpill(t *testing.T) {
	ctx := NewSearchContext()
	placed := newBitset(130) // 3 words -> spill
	placed.set(0)
	placed.set(129)
	if ctx.memoHas(1, placed, 5, 42) {
		t.Fatal("empty spill table reported a hit")
	}
	ctx.memoInsert(1, placed, 5, 42)
	if !ctx.memoHas(1, placed, 5, 42) {
		t.Error("inserted wide state not found")
	}
	// Any component differing must miss.
	for _, probe := range []struct {
		problem int32
		last    int
		vid     stateID
	}{{2, 5, 42}, {1, 6, 42}, {1, 5, 43}} {
		if ctx.memoHas(probe.problem, placed, probe.last, probe.vid) {
			t.Errorf("probe %+v hit, want miss", probe)
		}
	}
	placed.clear(129)
	if ctx.memoHas(1, placed, 5, 42) {
		t.Error("different placed bitset hit, want miss")
	}
	if s := ctx.Stats(); s.MemoEntries != 1 || s.MemoHits != 1 {
		t.Errorf("stats = %+v, want 1 entry and 1 hit", s)
	}
}

// TestTruncatedStatesReExploredOnLargerBudget is the soundness test for
// memo reuse across calls: when a check exhausts its node budget, the
// states whose subtrees were truncated must NOT be memoized as failures,
// so re-checking the same history on the same context with budget to
// spare reaches the true verdict. (Before truncation became a distinct
// search status, the parent of an exhausted subtree recorded the state
// as failed — harmless while memos died with the call, unsound the
// moment they are shared.)
func TestTruncatedStatesReExploredOnLargerBudget(t *testing.T) {
	hs := gen.Corpus(gen.Config{Txs: 6, Objs: 3, MaxOps: 4, PStaleRead: 0.3, PLeaveLive: 0.5}, 200, 11)
	starved := 0
	for i, h := range hs {
		want, err := Check(h, Config{})
		if err != nil {
			t.Fatalf("history %d: %v", i, err)
		}
		if want.Nodes < 2 {
			continue // cannot starve a 1-node verdict
		}
		ctx := NewSearchContext()
		_, err = Check(h, Config{Context: ctx, MaxNodes: want.Nodes - 1})
		if !errors.Is(err, ErrSearchLimit) {
			t.Fatalf("history %d: err=%v under a %d-node budget, want ErrSearchLimit", i, err, want.Nodes-1)
		}
		starved++
		got, err := Check(h, Config{Context: ctx})
		if err != nil {
			t.Fatalf("history %d: retry on the starved context: %v", i, err)
		}
		if got.Opaque != want.Opaque {
			t.Fatalf("history %d: retry on the starved context says opaque=%v, fresh verdict is %v:\n%s",
				i, got.Opaque, want.Opaque, h.Format())
		}
	}
	if starved < 50 {
		t.Errorf("only %d starved cases exercised; corpus too easy", starved)
	}
}

// TestSharedContextMatchesFreshAcrossCorpus: one long-lived context
// serving a whole mixed corpus — the checkpool-worker shape — must
// reproduce the verdicts of per-call fresh contexts and of the reference
// engine, while actually reusing tables (memo or transition hits > 0).
func TestSharedContextMatchesFreshAcrossCorpus(t *testing.T) {
	n := 300
	if !testing.Short() {
		n = 800
	}
	hs := gen.Corpus(gen.Config{Txs: 5, Objs: 3, MaxOps: 3, PStaleRead: 0.3, PLeaveLive: 0.3}, n, 23)
	ctx := NewSearchContext()
	shared := Config{Context: ctx}
	for i, h := range hs {
		got, err := Check(h, shared)
		if err != nil {
			t.Fatalf("history %d: shared context: %v", i, err)
		}
		want, err := Check(h, Config{DisableMemo: true})
		if err != nil {
			t.Fatalf("history %d: reference: %v", i, err)
		}
		if got.Opaque != want.Opaque {
			t.Fatalf("history %d: shared context says opaque=%v, reference says %v:\n%s",
				i, got.Opaque, want.Opaque, h.Format())
		}
	}
	s := ctx.Stats()
	if s.TransHits == 0 {
		t.Error("a corpus-wide context should hit the transition cache")
	}
	if s.States == 0 || s.Atoms == 0 || s.TxSigs == 0 || s.Problems == 0 {
		t.Errorf("stats not populated: %+v", s)
	}
}

// TestTableSizeCapFlushes: tables that have grown past the entry bound
// are dropped at the next call boundary and keep answering correctly —
// the policy that bounds a batch worker's memory on million-history
// runs. The context's private side (L1 step cache, owned-problem memo)
// is cleared in place; a full generation is swapped for a fresh one,
// which counts as a flush.
func TestTableSizeCapFlushes(t *testing.T) {
	ctx := NewSearchContext()
	h := history.MustParse("w1(x,1) tryC1 C1 r2(x)->1 tryC2 C2")
	check := func(what string) {
		t.Helper()
		r, err := Check(h, Config{Context: ctx})
		if err != nil || !r.Opaque {
			t.Fatalf("%s: opaque=%v err=%v", what, r.Opaque, err)
		}
	}
	check("first check")

	for i := 0; len(ctx.memo) <= maxTableEntries; i++ {
		ctx.memo[memoKey{problem: int32(i), lo: uint64(i)}] = struct{}{}
	}
	gen := ctx.gen
	check("after the private side outgrew the bound")
	if len(ctx.memo) > 16 {
		t.Errorf("private memo not cleared: %d entries", len(ctx.memo))
	}
	if ctx.gen != gen || ctx.Stats().Flushes != 0 {
		t.Errorf("a full private side swapped the generation (%d flushes)", ctx.Stats().Flushes)
	}

	gen.entries.Add(maxTableEntries) // as if the generation had filled up
	check("after the generation outgrew the bound")
	if ctx.gen == gen {
		t.Error("a full generation was not swapped for a fresh one")
	}
	if got := ctx.Stats().Flushes; got != 1 {
		t.Errorf("Flushes = %d, want 1 (one generation swap)", got)
	}
}

// TestSigOfResistsSeparatorInjection: replay signatures are
// length-framed, so a string value crafted to mimic field or record
// boundaries cannot make two different transactions share a signature.
// Regression test: before framing, a return value embedding the raw
// separator bytes could splice a fake second execution into its record,
// and the poisoned transition cache flipped an opacity verdict.
func TestSigOfResistsSeparatorInjection(t *testing.T) {
	ctx := NewSearchContext()
	ctx.registerObjects([]history.ObjID{"x"})
	mk := func(execs ...history.OpExec) int32 { return ctx.sigOf(execs) }
	read := func(ret history.Value) history.OpExec {
		return history.OpExec{Tx: 1, Obj: "x", Op: "read", Ret: ret}
	}
	// One exec whose return value embeds bytes that, unframed, rendered
	// identically to the two-exec sequence read->"x", read->"y".
	crafted := "x\x01\x00\x00\x00\x00read\x00n\x00sy"
	single := mk(read(crafted))
	double := mk(read("x"), read("y"))
	if single == double {
		t.Fatal("crafted single-exec signature collides with a two-exec signature")
	}
	// And end to end on one shared context: unified verdicts must match
	// the reference for both histories, in cache-poisoning order.
	h1 := history.History{
		history.Inv(1, "x", "write", crafted), history.Ret(1, "x", "write", history.OK),
		history.TryC(1), history.Commit(1),
		history.Inv(2, "x", "read", nil), history.Ret(2, "x", "read", crafted),
		history.TryC(2), history.Commit(2),
	}
	h2 := history.History{
		history.Inv(1, "x", "write", crafted), history.Ret(1, "x", "write", history.OK),
		history.TryC(1), history.Commit(1),
		history.Inv(2, "x", "read", nil), history.Ret(2, "x", "read", "x"),
		history.Inv(2, "x", "read", nil), history.Ret(2, "x", "read", "y"),
		history.TryC(2), history.Commit(2),
	}
	shared := Config{Context: ctx}
	for i, h := range []history.History{h1, h2} {
		got, err := Check(h, shared)
		if err != nil {
			t.Fatalf("h%d: %v", i+1, err)
		}
		want, err := Check(h, Config{DisableMemo: true})
		if err != nil {
			t.Fatalf("h%d reference: %v", i+1, err)
		}
		if got.Opaque != want.Opaque {
			t.Fatalf("h%d: unified says opaque=%v, reference says %v", i+1, got.Opaque, want.Opaque)
		}
	}
}

// TestIndexOfMiss covers the not-found path of the linear transaction
// lookup shared by the searcher and witness assembly.
func TestIndexOfMiss(t *testing.T) {
	txs := []history.TxID{3, 1, 2}
	if got := indexOf(txs, 2); got != 2 {
		t.Errorf("indexOf(2) = %d, want 2", got)
	}
	if got := indexOf(txs, 9); got != -1 {
		t.Errorf("indexOf(9) = %d, want -1", got)
	}
}

// TestStatsAdd pins the aggregation used by checkpool's per-worker
// accounting.
func TestStatsAdd(t *testing.T) {
	a := Stats{States: 1, Atoms: 2, TxSigs: 3, Problems: 4, MemoEntries: 5, MemoHits: 6, MemoMisses: 7, TransHits: 8, TransMisses: 9, Flushes: 10}
	b := a
	a.Add(b)
	want := Stats{States: 2, Atoms: 4, TxSigs: 6, Problems: 8, MemoEntries: 10, MemoHits: 12, MemoMisses: 14, TransHits: 16, TransMisses: 18, Flushes: 20}
	if a != want {
		t.Errorf("Add: got %+v, want %+v", a, want)
	}
}
