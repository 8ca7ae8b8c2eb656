package core

import (
	"errors"
	"fmt"
	"strings"
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
		execs := make([][]history.OpExec, len(txs))
		for i, tx := range txs {
			execs[i] = h.OpExecs(tx)
		}
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
// searcher's string-keyed spill map with the same semantics.
func TestMemoWideBitsetSpill(t *testing.T) {
	ctx := NewSearchContext()
	s := acquire(ctx)
	defer s.release()
	s.prepare(false, nil)
	placed := newBitset(130) // 3 words -> spill
	placed.set(0)
	placed.set(129)
	if s.memoHas(placed, 42) {
		t.Fatal("empty spill map reported a hit")
	}
	s.memoInsert(placed, 42)
	if !s.memoHas(placed, 42) {
		t.Error("inserted wide state not found")
	}
	if len(s.memo) != 0 || len(s.memoWide) != 1 {
		t.Errorf("wide state landed in the inline map: %d inline, %d wide entries", len(s.memo), len(s.memoWide))
	}
	// Either component differing must miss.
	if s.memoHas(placed, 43) {
		t.Error("different state hit, want miss")
	}
	placed.clear(129)
	if s.memoHas(placed, 42) {
		t.Error("different placed bitset hit, want miss")
	}
	if st := ctx.Stats(); st.MemoEntries != 1 || st.MemoHits != 1 {
		t.Errorf("stats = %+v, want 1 entry and 1 hit", st)
	}
}

// TestTruncatedStatesReExploredOnLargerBudget: a check that exhausts
// its node budget must leave nothing on its context that decides a later
// check, so re-checking the same history on the same context with budget
// to spare reaches the true verdict.
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
// engine, while actually reusing tables (transition hits > 0). The
// corpus is then checked a second time on the same warm context: a
// check's node count and witness are a function of its history alone,
// so every history must cost exactly the nodes and yield exactly the
// witness order of its first check and of a fresh context.
func TestSharedContextMatchesFreshAcrossCorpus(t *testing.T) {
	n := 300
	if !testing.Short() {
		n = 800
	}
	hs := gen.Corpus(gen.Config{Txs: 5, Objs: 3, MaxOps: 3, PStaleRead: 0.3, PLeaveLive: 0.3}, n, 23)
	ctx := NewSearchContext()
	shared := Config{Context: ctx}
	first := make([]Result, len(hs))
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
		first[i] = got
	}
	s := ctx.Stats()
	if s.TransHits == 0 {
		t.Error("a corpus-wide context should hit the transition cache")
	}
	if s.States == 0 || s.Atoms == 0 || s.TxSigs == 0 {
		t.Errorf("stats not populated: %+v", s)
	}

	order := func(r Result) string {
		if r.Witness == nil {
			return "none"
		}
		return fmt.Sprint(r.Witness.Order)
	}
	for i, h := range hs {
		again, err := Check(h, shared)
		if err != nil {
			t.Fatalf("history %d: second pass: %v", i, err)
		}
		fresh, err := Check(h, Config{})
		if err != nil {
			t.Fatalf("history %d: fresh context: %v", i, err)
		}
		for _, c := range []struct {
			name string
			r    Result
		}{{"second pass", again}, {"fresh context", fresh}} {
			if c.r.Opaque != first[i].Opaque || c.r.Nodes != first[i].Nodes || order(c.r) != order(first[i]) {
				t.Fatalf("history %d: %s opaque=%v nodes=%d order=%s, first pass opaque=%v nodes=%d order=%s:\n%s",
					i, c.name, c.r.Opaque, c.r.Nodes, order(c.r),
					first[i].Opaque, first[i].Nodes, order(first[i]), h.Format())
			}
		}
	}
}

// TestTableSizeCapFlushes: tables that have grown past the entry bound
// are dropped at the next call boundary and keep answering correctly —
// the policy that bounds a batch worker's memory on million-history
// runs. The context's private table, the atom step cache, is cleared in
// place; a full generation is swapped for a fresh one, which counts as a
// flush.
func TestTableSizeCapFlushes(t *testing.T) {
	const bound = 64
	tables := NewSharedTables()
	tables.maxEntries = bound
	ctx := tables.NewContext()
	h := history.MustParse("w1(x,1) tryC1 C1 r2(x)->1 tryC2 C2")
	check := func(what string) {
		t.Helper()
		r, err := Check(h, Config{Context: ctx})
		if err != nil || !r.Opaque {
			t.Fatalf("%s: opaque=%v err=%v", what, r.Opaque, err)
		}
	}
	check("first check")

	for i := 0; len(ctx.steps) <= bound; i++ {
		ctx.steps[atomStep{atom: int32(-1 - i)}] = atomStepVal{}
	}
	gen := ctx.gen
	check("after the step cache outgrew the bound")
	if len(ctx.steps) > 16 {
		t.Errorf("step cache not cleared: %d entries", len(ctx.steps))
	}
	if ctx.gen != gen || ctx.Stats().Flushes != 0 {
		t.Errorf("a full step cache swapped the generation (%d flushes)", ctx.Stats().Flushes)
	}

	gen.entries.Add(bound) // as if the generation had filled up
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

// TestStatsAdd pins the aggregation used by checkpool's per-worker
// accounting.
func TestStatsAdd(t *testing.T) {
	a := Stats{States: 1, Atoms: 2, TxSigs: 3, MemoEntries: 5, MemoHits: 6, MemoMisses: 7, TransHits: 8, TransMisses: 9, Flushes: 10}
	b := a
	a.Add(b)
	want := Stats{States: 2, Atoms: 4, TxSigs: 6, MemoEntries: 10, MemoHits: 12, MemoMisses: 14, TransHits: 16, TransMisses: 18, Flushes: 20}
	if a != want {
		t.Errorf("Add: got %+v, want %+v", a, want)
	}
}

// TestOneShotCheckOnWarmContext: a one-shot Check appends its history to
// the context's own Appender, so the Appender's state must never leak
// from one history to the next — not after a malformed history it
// rejected midway, not after an empty one, and not after one large
// enough to have its Appender replaced. Each check must match a check
// on a fresh context and the reference engine's verdict, and a rejected
// history must get exactly the error WellFormed reports, which is what
// the reference engine returns.
func TestOneShotCheckOnWarmContext(t *testing.T) {
	var chain history.History
	for tx := history.TxID(1); tx <= 300; tx++ {
		chain = append(chain, history.Inv(tx, "x", "write", int(tx)), history.Ret(tx, "x", "write", history.OK),
			history.TryC(tx), history.Commit(tx))
	}
	hs := []history.History{
		history.MustParse("w1(x,1) tryC1 C1 r2(x)->1 tryC2 C2"),
		history.MustParse("w1(x,1) tryC1 C1 C1"),       // rejected at its last event
		history.MustParse("w1(x,1) r2(x)->1 tryC1 C2"), // rejected with T1 commit-pending
		nil,
		history.MustParse("w1(x,1) w2(x,2) tryC1 C1 r3(x)->2 tryC3 C3 tryC2"),
		chain,
		history.MustParse("r1(x)->1 tryC1 C1"),
		history.MustParse("w1(x,1) tryC1 C1 r2(x)->1 tryC2 C2"),
	}
	ctx := NewSearchContext()
	for i, h := range hs {
		got, err := Check(h, Config{Context: ctx})
		want, wantErr := Check(h, Config{})
		ref, refErr := Check(h, Config{DisableMemo: true})
		if wfErr := h.WellFormed(); wfErr != nil {
			for _, e := range []error{err, wantErr, refErr} {
				if e == nil || e.Error() != wfErr.Error() {
					t.Fatalf("history %d: Check errors %v / fresh context %v / reference %v, WellFormed %v", i, err, wantErr, refErr, wfErr)
				}
			}
			var we *history.WellFormedError
			if !errors.As(err, &we) {
				t.Fatalf("history %d: error %T is not a *WellFormedError", i, err)
			}
			continue
		}
		if err != nil || wantErr != nil || refErr != nil {
			t.Fatalf("history %d: %v / fresh context %v / reference %v", i, err, wantErr, refErr)
		}
		if got.Opaque != ref.Opaque || got.Opaque != want.Opaque || got.Nodes != want.Nodes || fmt.Sprint(got.Witness) != fmt.Sprint(want.Witness) {
			t.Fatalf("history %d: warm context opaque=%v nodes=%d order=%v, fresh opaque=%v nodes=%d order=%v",
				i, got.Opaque, got.Nodes, got.Witness, want.Opaque, want.Nodes, want.Witness)
		}
	}
}

// nestingState is an object whose Step runs a Check on ctx: a checker
// call nested inside the search that steps it. Its Key differs from the
// plain register's; with equal Keys the interner would hand the search
// the register instead, and Step would never run.
type nestingState struct {
	ctx   *SearchContext
	inner history.History
}

func (nestingState) Name() string { return "nesting" }
func (nestingState) Key() string  { return "nesting" }

func (st nestingState) Step(string, history.Value, history.Value) (spec.State, bool) {
	_, _ = Check(st.inner, Config{Context: st.ctx})
	return st, true
}

// TestNestedCheckPanics: a Check made on a context from inside a search
// active on that same context would reset the outer search's searcher,
// Appender and generation under it, so it panics instead — and the
// outer call, unwound by the panic, leaves the context usable.
func TestNestedCheckPanics(t *testing.T) {
	ctx := NewSearchContext()
	objs := spec.Objects{"x": nestingState{ctx: ctx, inner: history.MustParse("w1(y,1) tryC1 C1")}}
	outer := history.MustParse("w1(x,1) tryC1 C1")
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "inside a search") {
				t.Fatalf("nested Check recovered %v, want the nesting panic", r)
			}
		}()
		_, _ = Check(outer, Config{Objects: objs, Context: ctx})
	}()
	r, err := Check(history.MustParse("w1(x,1) tryC1 C1 r2(x)->2 tryC2 C2"), Config{Context: ctx})
	if err != nil || r.Opaque {
		t.Fatalf("check after the panic: opaque=%v err=%v, want non-opaque", r.Opaque, err)
	}
}
