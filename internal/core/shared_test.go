package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"otm/internal/gen"
	"otm/internal/history"
	"otm/internal/spec"
)

// sharedCorpus is the mixed corpus the shared-table tests run on: small
// histories with stale reads and live transactions, diverse enough that
// verdicts split and the memo, transition and state tables all fill.
func sharedCorpus(n int, seed int64) []history.History {
	return gen.Corpus(gen.Config{Txs: 5, Objs: 3, MaxOps: 3, PStaleRead: 0.3, PLeaveLive: 0.3}, n, seed)
}

// TestSharedTablesDifferential is the concurrency differential: several
// goroutines, each with its own context derived from one SharedTables,
// all check the full corpus — so every table entry one worker inserts is
// probed by the others — and every verdict must match the DisableMemo
// reference engine. Run with -race in CI.
func TestSharedTablesDifferential(t *testing.T) {
	n := 150
	if !testing.Short() {
		n = 400
	}
	hs := sharedCorpus(n, 31)
	want := make([]bool, len(hs))
	for i, h := range hs {
		r, err := Check(h, Config{DisableMemo: true})
		if err != nil {
			t.Fatalf("history %d: reference: %v", i, err)
		}
		want[i] = r.Opaque
	}

	const goroutines = 8
	tables := NewSharedTables()
	got := make([][]bool, goroutines)
	stats := make([]Stats, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := tables.NewContext()
			cfg := Config{Context: ctx}
			out := make([]bool, len(hs))
			for i := range hs {
				// Rotate the order so goroutines race on different
				// histories at any instant.
				j := (i + g*len(hs)/goroutines) % len(hs)
				r, err := Check(hs[j], cfg)
				if err != nil {
					errs[g] = err
					return
				}
				out[j] = r.Opaque
			}
			got[g] = out
			stats[g] = ctx.Stats()
		}(g)
	}
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i := range hs {
			if got[g][i] != want[i] {
				t.Fatalf("goroutine %d, history %d: shared tables say opaque=%v, reference says %v:\n%s",
					g, i, got[g][i], want[i], hs[i].Format())
			}
		}
	}

	var s Stats
	for _, st := range stats {
		s.Add(st)
	}
	if s.States == 0 || s.Atoms == 0 || s.TxSigs == 0 || s.Problems == 0 {
		t.Errorf("pool-wide stats not populated: %+v", s)
	}
}

// TestSharedTablesStatesDedupAcrossContexts pins the point of sharing: a
// second context re-checking a corpus the tables already absorbed interns
// nothing new — it rides entirely on the first context's entries — and
// its counters show the hits.
func TestSharedTablesStatesDedupAcrossContexts(t *testing.T) {
	hs := sharedCorpus(200, 43)
	tables := NewSharedTables()

	ctx1 := tables.NewContext()
	for i, h := range hs {
		if _, err := Check(h, Config{Context: ctx1}); err != nil {
			t.Fatalf("history %d: first pass: %v", i, err)
		}
	}
	if s := ctx1.Stats(); s.States == 0 || s.TxSigs == 0 || s.Problems == 0 {
		t.Fatalf("first context interned nothing: %+v", s)
	}

	ctx2 := tables.NewContext()
	for i, h := range hs {
		if _, err := Check(h, Config{Context: ctx2}); err != nil {
			t.Fatalf("history %d: second pass: %v", i, err)
		}
	}
	s := ctx2.Stats()
	if s.States != 0 || s.TxSigs != 0 || s.Problems != 0 {
		t.Errorf("second context interned %d states, %d signatures, %d problems re-checking the same corpus, want 0",
			s.States, s.TxSigs, s.Problems)
	}
	if s.TransHits == 0 {
		t.Errorf("second context never hit the shared transition cache: %+v", s)
	}
}

// TestSharedTablesGenerationSwap forces the size bound: with a tiny
// maxEntries every few calls rotate the generation, and verdicts must
// stay correct across swaps (stateIDs never leak between generations).
func TestSharedTablesGenerationSwap(t *testing.T) {
	hs := sharedCorpus(200, 57)
	tables := NewSharedTables()
	tables.maxEntries = 64
	ctx := tables.NewContext()
	for i, h := range hs {
		got, err := Check(h, Config{Context: ctx})
		if err != nil {
			t.Fatalf("history %d: %v", i, err)
		}
		want, err := Check(h, Config{DisableMemo: true})
		if err != nil {
			t.Fatalf("history %d: reference: %v", i, err)
		}
		if got.Opaque != want.Opaque {
			t.Fatalf("history %d: across generation swaps opaque=%v, reference says %v:\n%s",
				i, got.Opaque, want.Opaque, hs[i].Format())
		}
	}
	s := ctx.Stats()
	if s.Flushes == 0 {
		t.Fatalf("maxEntries=64 over %d histories never swapped a generation: %+v", len(hs), s)
	}
	// Cumulative counters must cover retired generations too.
	if s.States == 0 || s.Atoms == 0 {
		t.Errorf("cumulative stats lost across swaps: %+v", s)
	}
}

// TestSharedTablesTruncationNotMemoized is the cross-worker soundness
// test for budget truncation: a context that exhausts its node budget
// must not have published truncated subtrees as failures, or a sibling
// context with budget to spare would replay the wrong verdict.
func TestSharedTablesTruncationNotMemoized(t *testing.T) {
	hs := gen.Corpus(gen.Config{Txs: 6, Objs: 3, MaxOps: 4, PStaleRead: 0.3, PLeaveLive: 0.5}, 200, 11)
	starved := 0
	for i, h := range hs {
		want, err := Check(h, Config{})
		if err != nil {
			t.Fatalf("history %d: %v", i, err)
		}
		if want.Nodes < 2 {
			continue
		}
		tables := NewSharedTables()
		starvedCtx := tables.NewContext()
		_, err = Check(h, Config{Context: starvedCtx, MaxNodes: want.Nodes - 1})
		if !errors.Is(err, ErrSearchLimit) {
			t.Fatalf("history %d: err=%v under a %d-node budget, want ErrSearchLimit", i, err, want.Nodes-1)
		}
		starved++
		got, err := Check(h, Config{Context: tables.NewContext()})
		if err != nil {
			t.Fatalf("history %d: sibling context after starvation: %v", i, err)
		}
		if got.Opaque != want.Opaque {
			t.Fatalf("history %d: sibling context on starved tables says opaque=%v, fresh verdict is %v:\n%s",
				i, got.Opaque, want.Opaque, h.Format())
		}
	}
	if starved < 50 {
		t.Errorf("only %d starved cases exercised; corpus too easy", starved)
	}
}

// TestSharedTablesRegistryGrowthNoFlush: histories introducing new
// objects extend the shared registry without a flush — canonical
// trimming keeps earlier vectors valid — and the same logical state
// keeps one id across the growth.
func TestSharedTablesRegistryGrowthNoFlush(t *testing.T) {
	tables := NewSharedTables()
	ctx := tables.NewContext()
	cfg := Config{Context: ctx}
	h1 := history.MustParse("w1(x,1) tryC1 C1 r2(x)->1 tryC2 C2")
	h2 := history.MustParse("w1(x,1) w1(y,2) tryC1 C1 r2(y)->2 tryC2 C2")

	r1, err := Check(h1, cfg)
	if err != nil || !r1.Opaque {
		t.Fatalf("h1: opaque=%v err=%v", r1.Opaque, err)
	}
	ctx.registerObjects([]history.ObjID{"x", "y"})
	before := ctx.initialState(nil)

	r2, err := Check(h2, cfg)
	if err != nil || !r2.Opaque {
		t.Fatalf("h2: opaque=%v err=%v", r2.Opaque, err)
	}
	if f := ctx.Stats().Flushes; f != 0 {
		t.Errorf("registry growth swapped a generation (%d flushes); shared tables must not flush on new objects", f)
	}
	if after := ctx.initialState(nil); after != before {
		t.Errorf("empty initial state changed id across registry growth: %d -> %d (trimming broken)", before, after)
	}
	// A sibling registering the objects in another order still agrees on
	// every vector id: indices come from the shared registry.
	sib := tables.NewContext()
	if _, err := Check(h2, Config{Context: sib}); err != nil {
		t.Fatal(err)
	}
	sib.registerObjects([]history.ObjID{"y", "x"})
	if got := sib.initialState(nil); got != before {
		t.Errorf("sibling context interned the empty initial state as %d, first context as %d", got, before)
	}
}

// TestSharedTablesIncrementalTruncate: shared tables also back the
// online checkers — an Incremental session with checkpointed truncation
// on a shared-backed context must match the DisableMemo reference
// event for event.
func TestSharedTablesIncrementalTruncate(t *testing.T) {
	h := history.MustParse(
		"w1(x,1) tryC1 C1 r2(x)->1 w2(y,2) tryC2 C2 " +
			"r3(y)->2 w3(x,3) tryC3 C3 r4(x)->3 tryC4 C4")
	tables := NewSharedTables()
	inc := NewIncremental(Config{Context: tables.NewContext()})
	ref := NewIncremental(Config{DisableMemo: true})
	for i, ev := range h {
		got, err := inc.Append(ev)
		if err != nil {
			t.Fatalf("event %d: shared: %v", i, err)
		}
		want, err := ref.Append(ev)
		if err != nil {
			t.Fatalf("event %d: reference: %v", i, err)
		}
		if got.Opaque != want.Opaque {
			t.Fatalf("event %d: shared says opaque=%v, reference %v", i, got.Opaque, want.Opaque)
		}
		// Truncate at every stable point to exercise the shared
		// enumeration path (pool-unique enum epochs).
		if inc.Stable() && inc.LiveLen() > 0 {
			if _, err := inc.TryTruncate(0); err != nil {
				t.Fatalf("event %d: TryTruncate: %v", i, err)
			}
		}
	}
	if inc.Result().Checkpoints == 0 {
		t.Error("session never truncated; enumeration path not exercised")
	}
}

// TestSharedTablesEnumEpochsUnique: two enumerations of the same stable
// prefix on sibling contexts must each see the full Reach set — a shared
// epoch would let the first walk's "visited" entries swallow the
// second's finals.
func TestSharedTablesEnumEpochsUnique(t *testing.T) {
	h := history.MustParse("w1(x,1) tryC1 C1 w2(x,2) tryC2 C2")
	tables := NewSharedTables()
	var roots [2][]spec.Objects
	for k := 0; k < 2; k++ {
		inc := NewIncremental(Config{Context: tables.NewContext()})
		if _, err := inc.Append(h...); err != nil {
			t.Fatal(err)
		}
		ok, err := inc.TryTruncate(0)
		if err != nil || !ok {
			t.Fatalf("run %d: TryTruncate ok=%v err=%v", k, ok, err)
		}
		roots[k] = inc.Roots()
	}
	if len(roots[0]) == 0 || len(roots[0]) != len(roots[1]) {
		t.Fatalf("sibling enumerations saw %d and %d reachable states; epochs must isolate walks",
			len(roots[0]), len(roots[1]))
	}
}

// TestSharedTablesConcurrentGrowth drives the open-addressed tables
// straight from their initial capacity under contention: every
// goroutine interns the same overlapping key set (in rotated orders) and
// publishes the same transitions, so inserts race with each other and
// with the many doublings on the way up. Every key must end with exactly
// one dense id that round-trips to its bytes, and every transition must
// be readable with its value. Run with -race in CI.
func TestSharedTablesConcurrentGrowth(t *testing.T) {
	const goroutines = 8
	const keys = 5000
	var kt keyTable
	var tt transTable
	kt.init()
	tt.init()
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%d", i)) }
	val := func(i int) transVal { return transVal{next: stateID(i % 97), legal: i%3 != 0} }

	ids := make([][]int32, goroutines)
	minted := make([]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]int32, keys)
			for n := 0; n < keys; n++ {
				i := (n + g*keys/goroutines) % keys
				id, fresh := kt.intern(key(i))
				if fresh {
					minted[g]++
				}
				ids[g][i] = id
				tt.put(transKey{state: stateID(i), sig: int32(i * 7)}, val(i))
			}
		}(g)
	}
	wg.Wait()

	total := 0
	for _, m := range minted {
		total += m
	}
	if total != keys {
		t.Fatalf("%d ids minted for %d distinct keys", total, keys)
	}
	seen := make(map[int32]bool, keys)
	for i := 0; i < keys; i++ {
		id := ids[0][i]
		for g := 1; g < goroutines; g++ {
			if ids[g][i] != id {
				t.Fatalf("key %d: goroutines 0 and %d got ids %d and %d", i, g, id, ids[g][i])
			}
		}
		if id < 0 || id >= keys || seen[id] {
			t.Fatalf("key %d: id %d not dense and unique", i, id)
		}
		seen[id] = true
		if got := kt.key(id); got != string(key(i)) {
			t.Fatalf("id %d holds key %q, want %q", id, got, key(i))
		}
		if got, ok := kt.get(key(i)); !ok || got != id {
			t.Fatalf("get(key %d) = %d, %v; want %d", i, got, ok, id)
		}
		v, ok := tt.get(transKey{state: stateID(i), sig: int32(i * 7)})
		if !ok || v != val(i) {
			t.Fatalf("transition %d = %+v, %v; want %+v", i, v, ok, val(i))
		}
	}
}
