package core

import (
	"testing"

	"otm/internal/gen"
	"otm/internal/history"
)

// cloneCorpus is the symmetric corpus of the symmetry-reduction tests:
// each history holds templates×clones transactions, the clones of one
// template fully interchangeable and all instances pairwise concurrent —
// maximal class sizes, the regime the reduction targets.
func cloneCorpus(n int, seed int64) []history.History {
	return gen.Corpus(gen.Config{
		Txs: 3, Objs: 2, MaxOps: 3, Clones: 3, PStaleRead: 0.3, PLeaveLive: 0.4,
	}, n, seed)
}

// checkWitness asserts that an opaque result carries a genuine
// Definition 1 certificate.
func checkWitness(t *testing.T, h history.History, res Result) {
	t.Helper()
	w := res.Witness
	s := w.Sequential
	if !s.Sequential() || !s.Complete() {
		t.Fatalf("witness S not complete-sequential:\n%s", s.Format())
	}
	if err := w.Completion.WellFormed(); err != nil {
		t.Fatalf("witness completion malformed: %v", err)
	}
	if !history.Equivalent(s, w.Completion) {
		t.Fatalf("witness S not equivalent to its completion:\n%s", s.Format())
	}
	if !history.PreservesRealTimeOrder(h, s) {
		t.Fatalf("witness S breaks the real-time order:\n%s", s.Format())
	}
	if tx, ok := AllLegal(s, nil); !ok {
		t.Fatalf("T%d illegal in witness S:\n%s", int(tx), s.Format())
	}
}

// TestSymmetryDifferential is the three-way engine differential on the
// symmetric corpus: the reduced engine, the unreduced engine
// (DisableSym) and the per-completion reference (DisableMemo) must agree
// on every verdict, the reduced engine must explore no more nodes than
// the unreduced one, and every opaque verdict must come with a valid
// witness. The reduced and unreduced engines share one context each
// across the corpus, so the tables they keep across calls are exercised
// too.
func TestSymmetryDifferential(t *testing.T) {
	n := 60
	if !testing.Short() {
		n = 200
	}
	symCtx, nosymCtx := NewSearchContext(), NewSearchContext()
	symNodes, nosymNodes, opaque := 0, 0, 0
	for i, h := range cloneCorpus(n, 7) {
		sym, err := Check(h, Config{Context: symCtx})
		if err != nil {
			t.Fatalf("history %d: %v", i, err)
		}
		nosym, err := Check(h, Config{Context: nosymCtx, DisableSym: true})
		if err != nil {
			t.Fatalf("history %d: unreduced: %v", i, err)
		}
		ref, err := Check(h, Config{DisableMemo: true})
		if err != nil {
			t.Fatalf("history %d: reference: %v", i, err)
		}
		if sym.Opaque != nosym.Opaque || sym.Opaque != ref.Opaque {
			t.Fatalf("history %d: reduced=%v unreduced=%v reference=%v:\n%s",
				i, sym.Opaque, nosym.Opaque, ref.Opaque, h.Format())
		}
		if sym.Opaque {
			opaque++
			checkWitness(t, h, sym)
		}
		symNodes += sym.Nodes
		nosymNodes += nosym.Nodes
	}
	if opaque == 0 {
		t.Error("corpus produced no opaque histories; the witness path went untested")
	}
	if symNodes > nosymNodes {
		t.Errorf("reduced search explored %d nodes, unreduced %d — the reduction must never add nodes",
			symNodes, nosymNodes)
	}
	s := symCtx.Stats()
	if s.SymClasses == 0 || s.SymPrunes == 0 {
		t.Errorf("clone corpus detected no symmetry: %+v", s)
	}
	if ns := nosymCtx.Stats(); ns.SymClasses != 0 || ns.SymPrunes != 0 {
		t.Errorf("DisableSym engine still counted symmetry work: %+v", ns)
	}
}

// TestClonePermutationInvariance: relabeling the interchangeable clones
// of one template — any permutation of their dense TxID block — yields a
// history the checker must give the identical verdict, with a valid
// witness when opaque. This is the observable statement of the symmetry
// the search engine exploits: if canonicalizing class orders lost
// witnesses, some rotation of some clone block would flip a verdict.
func TestClonePermutationInvariance(t *testing.T) {
	const templates, clones = 3, 3
	n := 60
	if !testing.Short() {
		n = 200
	}
	// rotate relabels each template's clone block c → c+r (mod clones),
	// leaving every event in place: the same interleaving, told about
	// different members of each class.
	rotate := func(h history.History, r int) history.History {
		out := make(history.History, len(h))
		for i, e := range h {
			if e.Tx >= 1 {
				tpl := (int(e.Tx) - 1) / clones
				c := (int(e.Tx) - 1) % clones
				e.Tx = history.TxID(1 + tpl*clones + (c+r)%clones)
			}
			out[i] = e
		}
		return out
	}

	ctx := NewSearchContext()
	cfg := Config{Context: ctx}
	for i, h := range gen.Corpus(gen.Config{
		Txs: templates, Objs: 2, MaxOps: 3, Clones: clones, PStaleRead: 0.3, PLeaveLive: 0.4,
	}, n, 101) {
		base, err := Check(h, cfg)
		if err != nil {
			t.Fatalf("history %d: %v", i, err)
		}
		for r := 1; r < clones; r++ {
			p := rotate(h, r)
			if err := p.WellFormed(); err != nil {
				t.Fatalf("history %d rot %d: relabeling broke well-formedness: %v", i, r, err)
			}
			got, err := Check(p, cfg)
			if err != nil {
				t.Fatalf("history %d rot %d: %v", i, r, err)
			}
			if got.Opaque != base.Opaque {
				t.Fatalf("history %d: verdict flipped under clone relabeling (rot %d): base=%v got=%v\n%s",
					i, r, base.Opaque, got.Opaque, h.Format())
			}
			if got.Opaque {
				checkWitness(t, p, got)
			}
		}
	}
}

// TestSharedTablesSymmetricCorpus: the symmetry-reduced engine under one
// SharedTables pool — several goroutines racing on the same clone-heavy
// problems, so interned signatures, states and transitions cross
// workers — must match the unreduced single-context verdicts. Run with
// -race in CI.
func TestSharedTablesSymmetricCorpus(t *testing.T) {
	n := 60
	if !testing.Short() {
		n = 150
	}
	hs := cloneCorpus(n, 55)
	want := make([]bool, len(hs))
	nosym := NewSearchContext()
	for i, h := range hs {
		r, err := Check(h, Config{Context: nosym, DisableSym: true})
		if err != nil {
			t.Fatalf("history %d: unreduced: %v", i, err)
		}
		want[i] = r.Opaque
	}

	const goroutines = 8
	tables := NewSharedTables()
	errs := make([]error, goroutines)
	stats := make([]Stats, goroutines)
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			ctx := tables.NewContext()
			cfg := Config{Context: ctx}
			for i := range hs {
				j := (i + g*len(hs)/goroutines) % len(hs)
				r, err := Check(hs[j], cfg)
				if err != nil {
					errs[g] = err
					return
				}
				if r.Opaque != want[j] {
					t.Errorf("goroutine %d, history %d: shared reduced engine says opaque=%v, unreduced says %v",
						g, j, r.Opaque, want[j])
					return
				}
			}
			stats[g] = ctx.Stats()
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	var total Stats
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		total.Add(stats[g])
	}
	if total.SymClasses == 0 || total.SymPrunes == 0 {
		t.Errorf("shared run detected no symmetry: %+v", total)
	}
}
