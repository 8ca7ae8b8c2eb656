package otm

// Guards the checked-in symmetric bench corpus and the node-count
// guarantee of the symmetry reduction on it, independently of the CI
// bench-smoke assertion (which parses the same numbers out of
// BenchmarkCheckOpacityBatch's output).

import (
	"testing"

	"otm/internal/core"
	"otm/internal/gen"
)

// TestSymmetricCorpusNodeReduction: on the corpus pinned by
// testdata/corpora/symmetric.json, the symmetry-reduced engine must
// agree with the unreduced engine on every verdict and explore at most
// half as many search nodes in total (the measured factor is ~12×; the
// 2× floor is the acceptance threshold, kept slack so corpus or engine
// tuning does not flake the suite). Everything is deterministic: the
// spec pins the generator config and seeds, and both engines are
// deterministic searches.
func TestSymmetricCorpusNodeReduction(t *testing.T) {
	spec, err := gen.LoadSpec("testdata/corpora/symmetric.json")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Clones < 2 {
		t.Fatalf("symmetric spec must request interchangeable clones, got %d", spec.Clones)
	}
	hs := spec.Corpus()

	symCtx, nosymCtx := core.NewSearchContext(), core.NewSearchContext()
	symNodes, nosymNodes, opaque := 0, 0, 0
	for i, h := range hs {
		sym, err := core.Check(h, core.Config{Context: symCtx})
		if err != nil {
			t.Fatalf("history %d: %v", i, err)
		}
		nosym, err := core.Check(h, core.Config{Context: nosymCtx, DisableSym: true})
		if err != nil {
			t.Fatalf("history %d: unreduced: %v", i, err)
		}
		if sym.Opaque != nosym.Opaque {
			t.Fatalf("history %d: reduced engine says opaque=%v, unreduced says %v:\n%s",
				i, sym.Opaque, nosym.Opaque, h.Format())
		}
		if sym.Opaque {
			opaque++
		}
		symNodes += sym.Nodes
		nosymNodes += nosym.Nodes
	}

	if opaque == 0 || opaque == len(hs) {
		t.Errorf("corpus verdicts do not split: %d/%d opaque", opaque, len(hs))
	}
	if symNodes*2 > nosymNodes {
		t.Errorf("symmetry reduction below the 2x floor on the pinned corpus: %d vs %d nodes (%.2fx)",
			symNodes, nosymNodes, float64(nosymNodes)/float64(symNodes))
	}
	stats := symCtx.Stats()
	if stats.SymClasses == 0 || stats.SymPrunes == 0 {
		t.Errorf("reduction counters not exercised on the symmetric corpus: %+v", stats)
	}
}
