package checkpool

import (
	"runtime"
	"sync"
	"testing"

	"otm/internal/core"
	"otm/internal/history"
)

// TestSharedContextMatchesPerWorkerAndReference is the differential for
// the table layer under a pool: on one mixed corpus, a pool on a
// caller-supplied table set, a default pool (a fresh set per run) and a
// one-worker pool must each agree with the DisableMemo reference engine
// on every verdict.
func TestSharedContextMatchesPerWorkerAndReference(t *testing.T) {
	n := 300
	if !testing.Short() {
		n = 1000
	}
	hs := corpus(n)

	ref := New(Options{Workers: 4, Config: core.Config{DisableMemo: true}}).CheckAll(hs)
	runs := map[string][]Verdict{
		"supplied set": New(Options{Workers: 8, SharedContext: core.NewSharedTables()}).CheckAll(hs),
		"default":      New(Options{Workers: 8}).CheckAll(hs),
		"one worker":   New(Options{Workers: 1}).CheckAll(hs),
	}
	for name, got := range runs {
		for i := range hs {
			if got[i].Err != nil || ref[i].Err != nil {
				t.Fatalf("%s, history %d: errs %v, reference %v", name, i, got[i].Err, ref[i].Err)
			}
			if got[i].Result.Opaque != ref[i].Result.Opaque {
				t.Errorf("%s, history %d: opaque=%v, reference says %v:\n%s",
					name, i, got[i].Result.Opaque, ref[i].Result.Opaque, hs[i].Format())
			}
		}
	}
}

// TestSharedStatsPoolWide pins the point of one table set per run: the
// states-interned count of an 8-worker run stays within 10% of what a
// single worker interns for the same corpus — not ×Workers, as private
// per-worker tables would pay — and the aggregated stats carry both the
// insert counters and the workers' lookup counters.
func TestSharedStatsPoolWide(t *testing.T) {
	n := 300
	if !testing.Short() {
		n = 1000
	}
	hs := corpus(n)

	var single core.Stats
	New(Options{Workers: 1, Stats: &single}).CheckAll(hs)
	if single.States == 0 {
		t.Fatalf("single-worker baseline interned no states: %+v", single)
	}

	var shared core.Stats
	New(Options{Workers: 8, Stats: &shared}).CheckAll(hs)
	if shared.States == 0 || shared.Atoms == 0 || shared.TxSigs == 0 {
		t.Fatalf("8-worker run reported no insert counters: %+v", shared)
	}
	if limit := single.States + single.States/10; shared.States > limit {
		t.Errorf("8-worker run interned %d states, single worker %d; want within 10%% (≤%d), not ×Workers",
			shared.States, single.States, limit)
	}
	if shared.MemoHits+shared.MemoMisses == 0 {
		t.Errorf("8-worker run recorded no memo lookups: %+v", shared)
	}

	// Eight private table sets, each checking its worker's share of the
	// corpus, really do intern per worker; the shared run must undercut
	// them decisively.
	per := 0
	for w := 0; w < 8; w++ {
		ctx := core.NewSearchContext()
		for i := w; i < len(hs); i += 8 {
			if _, err := core.Check(hs[i], core.Config{Context: ctx}); err != nil {
				t.Fatal(err)
			}
		}
		per += ctx.Stats().States
	}
	if shared.States >= per {
		t.Errorf("8-worker run interned %d states, 8 private table sets %d; sharing should deduplicate",
			shared.States, per)
	}
}

// TestSharedStatsAddedOnce: the insert counters land in Options.Stats
// exactly once per run, not once per worker — a corpus checked by 8
// workers reports the same pool-wide States a 2-worker run does.
func TestSharedStatsAddedOnce(t *testing.T) {
	hs := corpus(200)
	counts := make([]int, 2)
	for i, workers := range []int{2, 8} {
		var stats core.Stats
		New(Options{Workers: workers, SharedContext: core.NewSharedTables(), Stats: &stats}).CheckAll(hs)
		counts[i] = stats.States
	}
	if counts[0] != counts[1] {
		t.Errorf("pool-wide States differ by worker count: 2 workers %d, 8 workers %d", counts[0], counts[1])
	}
}

// TestSharedContextIgnoredOnReferencePath: DisableMemo keeps the
// reference engine context-free even when shared tables are supplied —
// stats stay zero and verdicts still come back.
func TestSharedContextIgnoredOnReferencePath(t *testing.T) {
	hs := corpus(16)
	var stats core.Stats
	p := New(Options{
		Workers:       2,
		Config:        core.Config{DisableMemo: true},
		SharedContext: core.NewSharedTables(),
		Stats:         &stats,
	})
	for i, v := range p.CheckAll(hs) {
		if v.Err != nil {
			t.Fatalf("history %d: %v", i, v.Err)
		}
	}
	if stats != (core.Stats{}) {
		t.Errorf("reference batch populated stats through shared tables: %+v", stats)
	}
}

// TestSharedRaceStress hammers one SharedTables from every available
// core: two pools at max workers run concurrently over a duplicated
// corpus (every history checked many times, so workers collide on hot
// keys), and every verdict must match the reference. Run with -race in
// CI — the stress is the point.
func TestSharedRaceStress(t *testing.T) {
	n := 150
	if !testing.Short() {
		n = 400
	}
	base := corpus(n)
	want := make([]bool, n)
	for i, h := range base {
		r, err := core.Check(h, core.Config{DisableMemo: true})
		if err != nil {
			t.Fatalf("history %d: %v", i, err)
		}
		want[i] = r.Opaque
	}
	// Duplicate the corpus so shared entries are probed long after they
	// were inserted, across pool boundaries.
	hs := append(append([]history.History(nil), base...), base...)

	workers := runtime.GOMAXPROCS(0)
	tables := core.NewSharedTables()
	const pools = 2
	verdicts := make([][]Verdict, pools)
	var wg sync.WaitGroup
	for p := 0; p < pools; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			verdicts[p] = New(Options{Workers: workers, SharedContext: tables}).CheckAll(hs)
		}(p)
	}
	wg.Wait()

	for p := 0; p < pools; p++ {
		if len(verdicts[p]) != len(hs) {
			t.Fatalf("pool %d: %d verdicts, want %d", p, len(verdicts[p]), len(hs))
		}
		for i, v := range verdicts[p] {
			if v.Err != nil {
				t.Fatalf("pool %d, history %d: %v", p, i, v.Err)
			}
			if v.Result.Opaque != want[i%n] {
				t.Fatalf("pool %d, history %d: opaque=%v, reference says %v",
					p, i, v.Result.Opaque, want[i%n])
			}
		}
	}
}

// TestZeroValuePool pins the construction equivalence New restored: a
// zero Pool, New(Options{}) and new(Pool) behave identically (defaults
// are resolved once per run, not at construction), and withDefaults is
// idempotent so resolving them again could never change them anyway.
func TestZeroValuePool(t *testing.T) {
	hs := corpus(32)
	want := New(Options{}).CheckAll(hs)
	for name, p := range map[string]*Pool{"zero literal": {}, "new(Pool)": new(Pool)} {
		got := p.CheckAll(hs)
		if len(got) != len(want) {
			t.Fatalf("%s: %d verdicts, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i].Err != nil || got[i].Result.Opaque != want[i].Result.Opaque || got[i].Index != i {
				t.Fatalf("%s: verdict %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}

	once := Options{}.withDefaults()
	twice := once.withDefaults()
	if twice.Workers != once.Workers || twice.Window != once.Window {
		t.Errorf("withDefaults not idempotent: once {Workers:%d Window:%d}, twice {Workers:%d Window:%d}",
			once.Workers, once.Window, twice.Workers, twice.Window)
	}
	if once.Workers < 1 || once.Window != 4*once.Workers || once.Check == nil {
		t.Errorf("defaults not resolved: %+v", once)
	}
}
