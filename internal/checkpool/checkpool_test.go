package checkpool

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"otm/internal/core"
	"otm/internal/gen"
	"otm/internal/history"
)

func corpus(n int) []history.History {
	return gen.Corpus(gen.Config{Txs: 5, Objs: 3, MaxOps: 3, PStaleRead: 0.3}, n, 0)
}

// TestMatchesSequentialChecker is the pool half of the differential
// suite: the parallel pool must return exactly the verdicts the
// sequential checker returns, in input order.
func TestMatchesSequentialChecker(t *testing.T) {
	n := 300
	if !testing.Short() {
		n = 1000
	}
	hs := corpus(n)
	want := make([]bool, n)
	for i, h := range hs {
		res, err := core.Opaque(h)
		if err != nil {
			t.Fatalf("history %d: %v", i, err)
		}
		want[i] = res.Opaque
	}

	for _, workers := range []int{1, 4, 8} {
		p := New(Options{Workers: workers})
		verdicts := p.CheckAll(hs)
		if len(verdicts) != n {
			t.Fatalf("workers=%d: %d verdicts, want %d", workers, len(verdicts), n)
		}
		for i, v := range verdicts {
			if v.Index != i {
				t.Fatalf("workers=%d: verdict %d carries index %d", workers, i, v.Index)
			}
			if v.Err != nil {
				t.Fatalf("workers=%d: history %d: %v", workers, i, v.Err)
			}
			if v.Result.Opaque != want[i] {
				t.Errorf("workers=%d: history %d: pool says opaque=%v, sequential says %v",
					workers, i, v.Result.Opaque, want[i])
			}
		}
	}
}

func TestStreamPreservesOrderAndSources(t *testing.T) {
	hs := corpus(64)
	p := New(Options{Workers: 4})
	in := make(chan Item)
	go func() {
		for i, h := range hs {
			in <- Item{Source: fmt.Sprintf("line%d", i), History: h}
		}
		close(in)
	}()
	i := 0
	for v := range p.Run(in) {
		if v.Index != i || v.Source != fmt.Sprintf("line%d", i) {
			t.Fatalf("verdict %d: index=%d source=%q", i, v.Index, v.Source)
		}
		i++
	}
	if i != len(hs) {
		t.Fatalf("got %d verdicts, want %d", i, len(hs))
	}
}

func TestUpstreamErrorsPassThrough(t *testing.T) {
	parseErr := errors.New("parse: bad token")
	in := make(chan Item, 3)
	in <- Item{Source: "a", History: history.MustParse("w1(x,1) tryC1 C1")}
	in <- Item{Source: "b", Err: parseErr}
	in <- Item{Source: "c", History: history.MustParse("r1(x)->0 tryC1 C1")}
	close(in)

	var got []Verdict
	for v := range New(Options{Workers: 2}).Run(in) {
		got = append(got, v)
	}
	if len(got) != 3 {
		t.Fatalf("%d verdicts, want 3", len(got))
	}
	if !got[0].Opaque() || !got[2].Opaque() {
		t.Error("valid items must check opaque")
	}
	if !errors.Is(got[1].Err, parseErr) {
		t.Errorf("item b: err=%v, want the upstream parse error", got[1].Err)
	}
	if got[1].Opaque() {
		t.Error("errored item must not report opaque")
	}
}

// TestPerHistoryBudget: a starved node budget fails each history
// independently with ErrSearchLimit; the failure of one item does not
// taint its neighbours since every history gets a fresh budget.
func TestPerHistoryBudget(t *testing.T) {
	hs := corpus(20)
	p := New(Options{Workers: 4, Config: core.Config{MaxNodes: 1}})
	verdicts := p.CheckAll(hs)
	for i, v := range verdicts {
		if !errors.Is(v.Err, core.ErrSearchLimit) {
			t.Fatalf("history %d: err=%v, want ErrSearchLimit under a 1-node budget", i, v.Err)
		}
	}

	// The same corpus under the default budget is fully checkable.
	for i, v := range New(Options{Workers: 4}).CheckAll(hs) {
		if v.Err != nil {
			t.Fatalf("history %d: %v", i, v.Err)
		}
	}
}

func TestCustomCheckFunction(t *testing.T) {
	hs := corpus(16)
	p := New(Options{
		Workers: 2,
		Check: func(h history.History, cfg core.Config) (core.Result, error) {
			return core.CheckStrong(h, cfg)
		},
	})
	for i, v := range p.CheckAll(hs) {
		want, err := core.CheckStrong(hs[i], core.Config{})
		if err != nil {
			t.Fatalf("history %d: %v", i, err)
		}
		if v.Err != nil || v.Result.Opaque != want.Opaque {
			t.Fatalf("history %d: pool strong=%v err=%v, want %v", i, v.Result.Opaque, v.Err, want.Opaque)
		}
	}
}

// TestStatsAggregated: the pool sums its workers' SearchContext
// counters into Options.Stats, and the workers' contexts do not change
// any verdict relative to the reference engine.
func TestStatsAggregated(t *testing.T) {
	hs := corpus(64)
	var stats core.Stats
	p := New(Options{Workers: 4, Stats: &stats})
	verdicts := p.CheckAll(hs)
	for i, v := range verdicts {
		want, err := core.Check(hs[i], core.Config{DisableMemo: true})
		if err != nil {
			t.Fatalf("history %d: %v", i, err)
		}
		if v.Err != nil || v.Result.Opaque != want.Opaque {
			t.Fatalf("history %d: pool opaque=%v err=%v, reference %v", i, v.Result.Opaque, v.Err, want.Opaque)
		}
	}
	if stats.States == 0 || stats.Atoms == 0 {
		t.Errorf("worker stats not aggregated: %+v", stats)
	}

	// The reference engine uses no contexts: stats must stay zero.
	var refStats core.Stats
	rp := New(Options{Workers: 2, Config: core.Config{DisableMemo: true}, Stats: &refStats})
	rp.CheckAll(hs[:8])
	if refStats != (core.Stats{}) {
		t.Errorf("reference batch populated stats: %+v", refStats)
	}
}

func TestEmptyInput(t *testing.T) {
	in := make(chan Item)
	close(in)
	if _, open := <-New(Options{}).Run(in); open {
		t.Error("verdict channel must close on empty input")
	}
}

// TestRunToDeliversAll: with a healthy sink, RunTo delivers every
// verdict in input order and returns nil.
func TestRunToDeliversAll(t *testing.T) {
	hs := corpus(48)
	pulled := 0
	var got []Verdict
	err := New(Options{Workers: 4}).RunTo(context.Background(), counted(hs, &pulled), func(v Verdict) error {
		got = append(got, v)
		return nil
	})
	if err != nil {
		t.Fatalf("RunTo = %v, want nil", err)
	}
	if len(got) != len(hs) || pulled != len(hs) {
		t.Fatalf("delivered %d verdicts from %d items, want %d", len(got), pulled, len(hs))
	}
	for i, v := range got {
		if v.Index != i || v.Source != fmt.Sprintf("line%d", i) {
			t.Fatalf("verdict %d out of order: index=%d source=%q", i, v.Index, v.Source)
		}
	}
}

// TestRunToSinkErrorPropagates: the first sink failure stops
// deliveries, stops the input at the window, and is returned — the
// documented error-propagation path for failing verdict sinks.
func TestRunToSinkErrorPropagates(t *testing.T) {
	const workers = 2
	sinkErr := errors.New("disk full")
	delivered, pulled := 0, 0
	// Much more input than the window, so reading it all would show.
	err := New(Options{Workers: workers}).RunTo(context.Background(), counted(corpus(128), &pulled), func(v Verdict) error {
		if delivered++; delivered == 3 {
			return sinkErr
		}
		return nil
	})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("RunTo = %v, want the sink error", err)
	}
	if delivered != 3 {
		t.Errorf("sink called %d times after its error, want exactly 3", delivered)
	}
	// At the failing call at most the window was admitted beyond the
	// two delivered before it, plus at most one item already pulled.
	if limit := delivered + 4*workers; pulled > limit {
		t.Errorf("input advanced to item %d after the sink failed at 3, want at most %d", pulled, limit)
	}
}

// TestRunToCancelled: an external cancellation surfaces as ctx's error,
// so callers can tell "all delivered" from "cut short".
func TestRunToCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pulled := 0
	err := New(Options{Workers: 2}).RunTo(ctx, counted(corpus(16), &pulled), func(Verdict) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunTo on a cancelled context = %v, want context.Canceled", err)
	}
}

// TestVerdictLine pins the canonical batch line rendering that both
// opacheck and the distributed verdict logs use.
func TestVerdictLine(t *testing.T) {
	h, err := history.Parse("w1(x,1) tryC1 C1 r2(x)->1 tryC2 C2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Opaque(h)
	if err != nil || !res.Opaque {
		t.Fatalf("fixture history: opaque=%v err=%v", res.Opaque, err)
	}
	v := Verdict{Source: "corpus.txt:3", Result: res}
	want := fmt.Sprintf("corpus.txt:3 opaque nodes=%d order=%q", res.Nodes, res.Witness)
	if got := v.Line(); got != want {
		t.Errorf("opaque Line() = %q, want %q", got, want)
	}
	v = Verdict{Source: "corpus.txt:4", Result: core.Result{Nodes: 9}}
	if got := v.Line(); got != "corpus.txt:4 non-opaque nodes=9" {
		t.Errorf("non-opaque Line() = %q", got)
	}
	v = Verdict{Source: "corpus.txt:5", Err: errors.New(`parse: bad token "zzz"`)}
	if got := v.Line(); got != `corpus.txt:5 error parse: bad token "zzz"` {
		t.Errorf("error Line() = %q", got)
	}
}

// fmtWitness renders a witness order the way Witness.String did before
// it moved to strconv appends: one fmt.Sprintf per transaction.
type fmtWitness struct{ order []history.TxID }

func (w *fmtWitness) String() string {
	parts := make([]string, len(w.order))
	for i, tx := range w.order {
		parts[i] = fmt.Sprintf("T%d", int(tx))
	}
	return strings.Join(parts, " ")
}

// TestVerdictLineMatchesFmt pins Line and Witness.String byte for byte
// to the fmt renderings they replace, on sources that need quoting
// care, node counts at both ends of the range, edge-case witness
// orders and error verdicts.
func TestVerdictLineMatchesFmt(t *testing.T) {
	sources := []string{"", "corpus.txt:3", "a \"quoted\" \\ path\t:1", "ünïcödé:2", "bad\xffutf8:3"}
	nodes := []int{0, 42, int(int64(1)<<31 + 5), math.MaxInt}
	orders := [][]history.TxID{nil, {}, {1}, {2, -1, 3}, {-7}, {10, 200, 3000}}
	errs := []error{
		errors.New(`parse: bad token "zzz"`),
		fmt.Errorf("history: parsing %q: %w", "x\xff", errors.New("unrecognized token")),
		fmt.Errorf("prefix of length 3: %w", core.ErrSearchLimit),
		errors.New("tab\tand newline\n"),
	}
	for _, src := range sources {
		for _, n := range nodes {
			for _, order := range orders {
				w := &core.Witness{Order: order}
				if got, want := w.String(), (&fmtWitness{order}).String(); got != want {
					t.Fatalf("Witness%v.String() = %q, want %q", order, got, want)
				}
				v := Verdict{Source: src, Result: core.Result{Opaque: true, Nodes: n, Witness: w}}
				want := fmt.Sprintf("%s opaque nodes=%d order=%q", src, n, &fmtWitness{order})
				if got := v.Line(); got != want {
					t.Errorf("opaque Line() = %q, want %q", got, want)
				}
			}
			v := Verdict{Source: src, Result: core.Result{Opaque: true, Nodes: n}}
			if got, want := v.Line(), fmt.Sprintf("%s opaque nodes=%d order=%q", src, n, (*core.Witness)(nil)); got != want {
				t.Errorf("nil-witness Line() = %q, want %q", got, want)
			}
			v = Verdict{Source: src, Result: core.Result{Nodes: n}}
			if got, want := v.Line(), fmt.Sprintf("%s non-opaque nodes=%d", src, n); got != want {
				t.Errorf("non-opaque Line() = %q, want %q", got, want)
			}
		}
		for _, err := range errs {
			v := Verdict{Source: src, Result: core.Result{Nodes: 7}, Err: err}
			if got, want := v.Line(), fmt.Sprintf("%s error %v", src, err); got != want {
				t.Errorf("error Line() = %q, want %q", got, want)
			}
		}
	}
}
