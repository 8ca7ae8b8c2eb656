package core_test

import (
	"errors"
	"slices"
	"testing"

	"otm/internal/core"
	"otm/internal/gen"
	"otm/internal/history"
)

// TestMemoizedMatchesReference is the engine half of the differential
// suite: on a ≥1k random corpus the unified completion-aware engine must
// return exactly the verdicts of the retained per-completion reference,
// while exploring fewer nodes in aggregate. (Per history the unified
// engine may lose by a handful of nodes — branching on a commit-pending
// fate can wander where the reference's first completion succeeds
// immediately — so the node comparison is over the whole corpus.)
func TestMemoizedMatchesReference(t *testing.T) {
	n := 400
	if !testing.Short() {
		n = 1200
	}
	hs := gen.Corpus(gen.Config{Txs: 5, Objs: 3, MaxOps: 3, PStaleRead: 0.3}, n, 0)
	opaque, nonOpaque := 0, 0
	totalUnified, totalReference := 0, 0
	for i, h := range hs {
		uni, errU := core.Check(h, core.Config{})
		ref, errR := core.Check(h, core.Config{DisableMemo: true})
		if errU != nil || errR != nil {
			t.Fatalf("history %d: unified err=%v, reference err=%v", i, errU, errR)
		}
		if uni.Opaque != ref.Opaque {
			t.Fatalf("history %d: unified says opaque=%v, reference says %v:\n%s",
				i, uni.Opaque, ref.Opaque, h.Format())
		}
		totalUnified += uni.Nodes
		totalReference += ref.Nodes
		if uni.Opaque {
			opaque++
		} else {
			nonOpaque++
		}
	}
	if totalUnified >= totalReference {
		t.Errorf("unified engine explored %d nodes in aggregate, reference only %d",
			totalUnified, totalReference)
	}
	if min := n / 40; opaque < min || nonOpaque < min {
		t.Errorf("unbalanced corpus: %d opaque, %d non-opaque, want ≥%d each", opaque, nonOpaque, min)
	}
}

// TestUnifiedEngineNodeReduction targets the corpus the unified engine
// was built for: commit-pending-heavy histories, where the reference
// pays for 2^k completions while the unified search shares one memo
// across all fate assignments. Verdicts
// must agree on every input and the aggregate node count must be
// strictly smaller.
func TestUnifiedEngineNodeReduction(t *testing.T) {
	n := 150
	if !testing.Short() {
		n = 400
	}
	hs := gen.Corpus(gen.Config{Txs: 6, Objs: 3, MaxOps: 3, PStaleRead: 0.3, PLeaveLive: 0.8}, n, 0)
	totalUnified, totalReference := 0, 0
	commitPending := 0
	for i, h := range hs {
		commitPending += len(h.CommitPendingTxs())
		uni, errU := core.Check(h, core.Config{})
		ref, errR := core.Check(h, core.Config{DisableMemo: true})
		if errU != nil || errR != nil {
			t.Fatalf("history %d: unified err=%v, reference err=%v", i, errU, errR)
		}
		if uni.Opaque != ref.Opaque {
			t.Fatalf("history %d: unified says opaque=%v, reference says %v:\n%s",
				i, uni.Opaque, ref.Opaque, h.Format())
		}
		totalUnified += uni.Nodes
		totalReference += ref.Nodes
	}
	if commitPending < n/2 {
		t.Errorf("corpus is not commit-pending-heavy: %d commit-pending transactions over %d histories",
			commitPending, n)
	}
	if totalUnified >= totalReference {
		t.Errorf("unified engine explored %d nodes in aggregate, reference only %d",
			totalUnified, totalReference)
	}
	t.Logf("nodes: unified=%d reference=%d (%.1f%% of reference)",
		totalUnified, totalReference, 100*float64(totalUnified)/float64(totalReference))
}

// TestMemoizedMatchesReferenceUnderBudget stresses agreement when the
// node budget bites: whenever both engines reach a verdict within the
// budget the verdicts must agree, and exhaustion must surface as
// ErrSearchLimit (never a silent wrong verdict). Either engine may
// exhaust a budget the other survives — the two explore the state space
// in different orders — so no implication is asserted between their
// exhaustions.
func TestMemoizedMatchesReferenceUnderBudget(t *testing.T) {
	hs := gen.Corpus(gen.Config{Txs: 8, Objs: 2, MaxOps: 4, PStaleRead: 0.4}, 300, 10_000)
	exhausted, compared := 0, 0
	for i, h := range hs {
		cfg := core.Config{MaxNodes: 300}
		uni, errU := core.Check(h, cfg)
		cfg.DisableMemo = true
		ref, errR := core.Check(h, cfg)

		for _, err := range []error{errU, errR} {
			if err != nil && !errors.Is(err, core.ErrSearchLimit) {
				t.Fatalf("history %d: unexpected error: %v", i, err)
			}
		}
		if errU != nil || errR != nil {
			exhausted++
			continue
		}
		compared++
		if uni.Opaque != ref.Opaque {
			t.Fatalf("history %d: unified says opaque=%v, reference says %v:\n%s",
				i, uni.Opaque, ref.Opaque, h.Format())
		}
	}
	if exhausted == 0 {
		t.Error("corpus produced no budget-exhausted cases; tighten MaxNodes")
	}
	if compared == 0 {
		t.Error("corpus produced no comparable cases; loosen MaxNodes")
	}
}

// TestUnifiedBudgetIsShared: the unified engine charges the whole
// verdict — every completion branch — to one budget, and stops with
// ErrSearchLimit the moment it is exceeded.
func TestUnifiedBudgetIsSharedAndExact(t *testing.T) {
	hs := gen.Corpus(gen.Config{Txs: 6, Objs: 2, MaxOps: 3, PStaleRead: 0.4, PLeaveLive: 0.8}, 50, 77)
	for i, h := range hs {
		full, err := core.Check(h, core.Config{})
		if err != nil {
			t.Fatalf("history %d: %v", i, err)
		}
		if full.Nodes < 1 {
			t.Fatalf("history %d: engine reported %d nodes", i, full.Nodes)
		}
		// A budget one short of what the verdict needs must exhaust, and
		// must stop exactly at the budget.
		short, err := core.Check(h, core.Config{MaxNodes: full.Nodes - 1})
		if full.Nodes == 1 {
			continue // nothing to starve
		}
		if !errors.Is(err, core.ErrSearchLimit) {
			t.Fatalf("history %d: err=%v under a %d-node budget (full verdict needs %d)",
				i, err, full.Nodes-1, full.Nodes)
		}
		if short.Nodes != full.Nodes-1 {
			t.Errorf("history %d: exhausted run counted %d nodes, budget was %d",
				i, short.Nodes, full.Nodes-1)
		}
	}
}

// TestFindSerializationManyTxs: above 32 transactions witness assembly
// finds each transaction's slot through an index map, CheckStrong's
// extra ordering constraints are mapped to transaction indexes once per
// call, and the prefix scan's witness hints are index lists that each
// check extends. A chain of 40 value-linked writers has
// exactly one serialization: Check finds it twice on one shared context,
// CheckStrong finds it under the operation order, and every prefix is
// opaque.
func TestFindSerializationManyTxs(t *testing.T) {
	var h history.History
	for i := 1; i <= 40; i++ {
		tx := history.TxID(i)
		h = append(h,
			history.Inv(tx, "x", "read", nil), history.Ret(tx, "x", "read", i-1),
			history.Inv(tx, "x", "write", i), history.Ret(tx, "x", "write", history.OK),
			history.TryC(tx), history.Commit(tx))
	}
	h = h.MustWellFormed()
	want := h.Transactions()
	ctx := core.NewSearchContext()
	for round, check := range []func(history.History, core.Config) (core.Result, error){core.Check, core.Check, core.CheckStrong} {
		r, err := check(h, core.Config{Context: ctx})
		if err != nil || !r.Opaque {
			t.Fatalf("round %d: opaque=%v err=%v", round, r.Opaque, err)
		}
		if !slices.Equal(r.Witness.Order, want) {
			t.Fatalf("round %d: order %v, want %v", round, r.Witness.Order, want)
		}
	}
	if n, err := core.FirstNonOpaquePrefix(h, core.Config{Context: ctx}); err != nil || n != -1 {
		t.Fatalf("prefix scan: first non-opaque prefix %d, err %v; want every prefix opaque", n, err)
	}
}
