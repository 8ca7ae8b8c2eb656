package core_test

import (
	"slices"
	"testing"

	"otm/internal/core"
	"otm/internal/gen"
	"otm/internal/history"
	"otm/internal/stm/stmtest"
	"otm/internal/stm/tl2"
)

// TestWitnessMatchesDerivation pins the witness the unified engine
// assembles from its Appender to the derivation from h alone: for every
// opaque verdict, Completion is h.CompleteWith of the fates it chose,
// event for event, Sequential is buildSequential(Completion, Order), and
// the two form Definition 1's certificate. Completion shares h's array
// exactly when h is complete. The corpora leave transactions
// commit-pending and live (PLeaveLive 0.4 and 0.8), clone them (the
// pinned symmetric corpus), or record them from tl2, among them runs of
// 100 and 1,000 transactions, over the 32-transaction lookup cutoff.
// The 1,000-transaction run is the one opacheck's
// TestSingleModeLongRecordedHistory checks: a certificate check that
// scans the history once per pair of transactions takes minutes on it.
func TestWitnessMatchesDerivation(t *testing.T) {
	symSpec, err := gen.LoadSpec("../../testdata/corpora/symmetric.json")
	if err != nil {
		t.Fatal(err)
	}
	recorded := []history.History{
		stmtest.Interleaved(tl2.New(16), 100),
		stmtest.Interleaved(tl2.New(16), 1000),
	}
	for seed := int64(1); seed <= 300; seed++ {
		recorded = append(recorded, stmtest.Recorded(tl2.New(3), seed))
	}
	open, complete := 0, 0
	for _, corpus := range []struct {
		name string
		hs   []history.History
	}{
		{"live0.4", gen.Corpus(gen.Config{Txs: 6, Objs: 3, MaxOps: 4, PStaleRead: 0.3, PLeaveLive: 0.4}, 500, 1)},
		{"live0.8", gen.Corpus(gen.Config{Txs: 6, Objs: 3, MaxOps: 4, PStaleRead: 0.3, PLeaveLive: 0.8}, 500, 1)},
		{"symmetric", symSpec.Corpus()},
		{"recorded", recorded},
	} {
		ctx := core.NewSearchContext()
		for i, h := range corpus.hs {
			r, err := core.Check(h, core.Config{Context: ctx})
			if err != nil {
				t.Fatalf("%s %d: %v", corpus.name, i, err)
			}
			if !r.Opaque {
				if corpus.name == "recorded" {
					t.Fatalf("%s %d: a recorded tl2 history checked non-opaque", corpus.name, i)
				}
				continue
			}
			w := r.Witness
			if len(h.LiveTxs()) == 0 {
				complete++
			} else {
				open++
			}
			// The fates the search chose are the commits its completion
			// appended.
			commits := map[history.TxID]bool{}
			for _, e := range w.Completion[len(h):] {
				if e.Kind == history.KindCommit {
					commits[e.Tx] = true
				}
			}
			if want := h.CompleteWith(commits); !slices.Equal(w.Completion, want) {
				t.Fatalf("%s %d: Completion\n%v\nCompleteWith of its fates\n%v", corpus.name, i, w.Completion, want)
			}
			if want := core.BuildSequential(w.Completion, w.Order); !slices.Equal(w.Sequential, want) {
				t.Fatalf("%s %d: Sequential\n%v\nbuildSequential\n%v", corpus.name, i, w.Sequential, want)
			}
			// And the pair is Definition 1's certificate.
			switch {
			case !w.Sequential.Sequential():
				t.Fatalf("%s %d: Sequential is not sequential", corpus.name, i)
			case !history.Equivalent(w.Completion, w.Sequential):
				t.Fatalf("%s %d: Sequential is not equivalent to Completion", corpus.name, i)
			case !history.PreservesRealTimeOrder(h, w.Sequential):
				t.Fatalf("%s %d: Sequential does not preserve ≺H", corpus.name, i)
			}
			if tx, ok := core.AllLegal(w.Sequential, nil); !ok {
				t.Fatalf("%s %d: T%d is not legal in Sequential", corpus.name, i, int(tx))
			}
			shares := len(h) > 0 && &w.Completion[0] == &h[0]
			if shares != (len(h.LiveTxs()) == 0) {
				t.Fatalf("%s %d: Completion shares h's array: %v, with %d live transactions", corpus.name, i, shares, len(h.LiveTxs()))
			}
		}
	}
	if open == 0 || complete == 0 {
		t.Fatalf("opaque verdicts: %d with live transactions, %d complete; want both", open, complete)
	}
}
