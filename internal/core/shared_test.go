package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
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
// reference engine, and every node count the count of a fresh context:
// what other workers checked first never changes a check's cost. Run
// with -race in CI.
func TestSharedTablesDifferential(t *testing.T) {
	n := 150
	if !testing.Short() {
		n = 400
	}
	hs := sharedCorpus(n, 31)
	want := make([]bool, len(hs))
	wantNodes := make([]int, len(hs))
	for i, h := range hs {
		r, err := Check(h, Config{DisableMemo: true})
		if err != nil {
			t.Fatalf("history %d: reference: %v", i, err)
		}
		want[i] = r.Opaque
		if r, err = Check(h, Config{}); err != nil {
			t.Fatalf("history %d: fresh context: %v", i, err)
		}
		wantNodes[i] = r.Nodes
	}

	const goroutines = 8
	tables := NewSharedTables()
	got := make([][]bool, goroutines)
	gotNodes := make([][]int, goroutines)
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
			nodes := make([]int, len(hs))
			for i := range hs {
				// Rotate the order so goroutines race on different
				// histories at any instant.
				j := (i + g*len(hs)/goroutines) % len(hs)
				r, err := Check(hs[j], cfg)
				if err != nil {
					errs[g] = err
					return
				}
				out[j], nodes[j] = r.Opaque, r.Nodes
			}
			got[g], gotNodes[g] = out, nodes
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
			if gotNodes[g][i] != wantNodes[i] {
				t.Fatalf("goroutine %d, history %d: %d nodes on shared tables, %d on a fresh context:\n%s",
					g, i, gotNodes[g][i], wantNodes[i], hs[i].Format())
			}
		}
	}

	var s Stats
	for _, st := range stats {
		s.Add(st)
	}
	if s.States == 0 || s.Atoms == 0 || s.TxSigs == 0 {
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
	if s := ctx1.Stats(); s.States == 0 || s.TxSigs == 0 {
		t.Fatalf("first context interned nothing: %+v", s)
	}

	ctx2 := tables.NewContext()
	for i, h := range hs {
		if _, err := Check(h, Config{Context: ctx2}); err != nil {
			t.Fatalf("history %d: second pass: %v", i, err)
		}
	}
	s := ctx2.Stats()
	if s.States != 0 || s.TxSigs != 0 {
		t.Errorf("second context interned %d states and %d signatures re-checking the same corpus, want 0",
			s.States, s.TxSigs)
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

// TestIncrementalAcrossGenerationSwaps runs the differential of
// TestTruncatedMatchesCheckEveryPrefix — truncation attempted after every
// event, the first flagged prefix compared with a scan of fresh Check
// calls — on a table set whose tiny bound swaps the generation every few
// checks. The replay signatures and initial states an Incremental caches
// between checks are ids of one generation; reused after a swap they
// would name other signatures and states, or none.
func TestIncrementalAcrossGenerationSwaps(t *testing.T) {
	n := 60
	if !testing.Short() {
		n = 250
	}
	tables := NewSharedTables()
	tables.maxEntries = 16
	ctx := tables.NewContext()
	checkpoints := 0
	for _, cfg := range []gen.Config{
		{Txs: 5, Objs: 3, MaxOps: 3, PStaleRead: 0.3},
		{Txs: 6, Objs: 2, MaxOps: 4, PStaleRead: 0.4, PLeaveLive: 0.5},
		{Txs: 4, Objs: 2, MaxOps: 3, PStaleRead: 0.2, PCommit: 0.4},
	} {
		for seed, h := range gen.Corpus(cfg, n, 7) {
			want := -1
			for i := 1; i <= len(h) && want < 0; i++ {
				r, err := Check(h[:i], Config{})
				if err != nil {
					t.Fatalf("fresh Check of prefix %d: %v", i, err)
				}
				if !r.Opaque {
					want = i
				}
			}
			inc := NewIncremental(Config{Context: ctx})
			got := -1
			for i, ev := range h {
				res, err := inc.Append(ev)
				if err != nil {
					t.Fatalf("cfg=%+v seed=%d event %d: %v", cfg, seed, i, err)
				}
				if !res.Opaque && got < 0 {
					got = res.PrefixLen
				}
				if _, err := inc.TryTruncate(0); err != nil {
					t.Fatalf("cfg=%+v seed=%d event %d: TryTruncate: %v", cfg, seed, i, err)
				}
			}
			checkpoints += inc.Result().Checkpoints
			if got != want {
				t.Fatalf("cfg=%+v seed=%d: across generation swaps the checker flags prefix %d, a fresh scan says %d:\n%s",
					cfg, seed, got, want, h.Format())
			}
		}
	}
	if s := ctx.Stats(); s.Flushes == 0 || checkpoints == 0 {
		t.Fatalf("maxEntries=16: %d generation swaps and %d checkpoints; the test needs both", s.Flushes, checkpoints)
	}
	t.Logf("%d generation swaps, %d checkpoints", ctx.Stats().Flushes, checkpoints)
}

// TestSharedTablesTruncationNotMemoized is the cross-worker soundness
// test for budget truncation: a context that exhausts its node budget
// must leave nothing in the shared tables that decides a sibling
// context's verdict, so a sibling with budget to spare reaches the true
// one.
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
		// Truncate at every stable point to exercise the enumeration
		// path on shared tables.
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
// prefix on sibling contexts must each see the full Reach set. An
// enumeration's memo is its visited set; one that outlived its walk
// would let the first walk's "visited" entries swallow the second's
// finals.
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
// one dense id that round-trips to its bytes and that a later intern
// returns without minting, and every transition must be readable with
// its value. Run with -race in CI.
func TestSharedTablesConcurrentGrowth(t *testing.T) {
	const goroutines = 8
	const keys = 5000
	var kt keyTable
	var tt transTable
	kt.init()
	tt.init()
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%d", i)) }
	val := func(i int) transVal {
		switch i % 3 {
		case 0:
			return transVal{next: -1} // an illegal transition has no successor
		case 1:
			return transVal{next: stateID(i % 97), legal: true}
		}
		return transVal{next: math.MaxInt32 - stateID(i%97), legal: true}
	}

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
		if got, fresh := kt.intern(key(i)); fresh || got != id {
			t.Fatalf("intern(key %d) again = %d, fresh=%v; want %d, not fresh", i, got, fresh, id)
		}
		v, ok := tt.get(transKey{state: stateID(i), sig: int32(i * 7)})
		if !ok || v != val(i) {
			t.Fatalf("transition %d = %+v, %v; want %+v", i, v, ok, val(i))
		}
	}
}

// TestIncrementalRotatesOwnContextAtCheckpoint: an Incremental that
// created its own context runs on a fresh table generation after every
// successful TryTruncate, so what its tables hold stays bounded by the
// live suffix however long the session runs. One given a Config.Context
// keeps the caller's generation, and its tables keep growing. Both
// judge the same stream identically, through the checkpoints and up to
// a violation after the last one.
func TestIncrementalRotatesOwnContextAtCheckpoint(t *testing.T) {
	supplied := NewSearchContext()
	own := NewIncremental(Config{})
	given := NewIncremental(Config{Context: supplied})
	feed := func(src string) {
		t.Helper()
		for _, inc := range []*Incremental{own, given} {
			if _, err := inc.Append(history.MustParse(src)...); err != nil {
				t.Fatalf("%q: %v", src, err)
			}
		}
	}
	maxOwn := 0
	for i := 1; i <= 200; i++ {
		// Two overlapping writers of fresh values, then a reader: every
		// round interns new states, signatures and transitions.
		feed(fmt.Sprintf("w%d(x,%d) w%d(y,%d) tryC%d tryC%d C%d C%d r%d(x)->%d tryC%d C%d",
			3*i, i, 3*i+1, i, 3*i, 3*i+1, 3*i, 3*i+1, 3*i+2, i, 3*i+2, 3*i+2))
		ownGen, givenGen := own.ctx.gen, supplied.gen
		before := own.Resident()
		for _, inc := range []*Incremental{own, given} {
			if ok, err := inc.TryTruncate(0); !ok || err != nil {
				t.Fatalf("round %d: TryTruncate = %v, %v on a stable opaque suffix", i, ok, err)
			}
		}
		if own.ctx.gen == ownGen {
			t.Fatalf("round %d: the checker's own context kept its generation across a checkpoint", i)
		}
		if own.Resident() >= before {
			t.Fatalf("round %d: resident entries %d → %d across a checkpoint, want a drop", i, before, own.Resident())
		}
		if supplied.gen != givenGen {
			t.Fatalf("round %d: a checkpoint rotated a caller-supplied context", i)
		}
		maxOwn = max(maxOwn, before)
	}
	if given.Resident() < 10*maxOwn {
		t.Errorf("supplied context holds %d entries after 200 rounds, own context at most %d before a checkpoint; want the supplied one to keep growing", given.Resident(), maxOwn)
	}
	feed("r700(x)->7")
	for name, inc := range map[string]*Incremental{"own": own, "given": given} {
		if r := inc.Result(); r.Opaque || r.PrefixLen != r.Events || r.Checkpoints != 200 {
			t.Errorf("%s context: %+v, want the read of a value never written flagged after 200 checkpoints", name, r)
		}
	}
}

// TestCheckpointKeepsObjectsUntouchedSinceSwap: a generation swap
// empties the object registry, and the next suffix registers only the
// objects it touches. A checkpoint taken after the swap must still carry
// the state of every object an earlier checkpoint fixed — in the first
// script x, which T1 sets to 1 and nothing touches again until T3 reads
// it — or a read of such an object would be judged against its initial
// 0. The second script is a seeded sequential run of 300 one-object
// transactions over 6 registers, each reading the current value or
// writing a fresh one, so most checkpoints leave some written object
// untouched. Both ways a swap happens between checkpoints are covered:
// the checkpoint rotation of a checker's own context, and the size bound
// of a supplied one.
func TestCheckpointKeepsObjectsUntouchedSinceSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]int, 6)
	var run []string
	for i := 1; i <= 300; i++ {
		o := rng.Intn(len(vals))
		if rng.Intn(2) == 0 {
			run = append(run, fmt.Sprintf("r%d(x%d)->%d tryC%d C%d", i, o, vals[o], i, i))
			continue
		}
		vals[o] = i
		run = append(run, fmt.Sprintf("w%d(x%d,%d) tryC%d C%d", i, o, i, i, i))
	}
	for _, script := range [][]string{
		{"w1(x,1) tryC1 C1", "w2(y,2) tryC2 C2", "r3(x)->1 r3(y)->2 tryC3 C3"},
		run,
	} {
		tables := NewSharedTables()
		tables.maxEntries = 4
		for name, inc := range map[string]*Incremental{
			"own context":               NewIncremental(Config{}),
			"supplied context, bound 4": NewIncremental(Config{Context: tables.NewContext()}),
		} {
			for _, src := range script {
				if _, err := inc.Append(history.MustParse(src)...); err != nil {
					t.Fatalf("%s: %q: %v", name, src, err)
				}
				if r := inc.Result(); !r.Opaque {
					t.Fatalf("%s: %q flagged at prefix %d after %d checkpoints; the whole history is opaque", name, src, r.PrefixLen, r.Checkpoints)
				}
				if ok, err := inc.TryTruncate(0); !ok || err != nil {
					t.Fatalf("%s: TryTruncate after %q = %v, %v", name, src, ok, err)
				}
			}
		}
	}
}
