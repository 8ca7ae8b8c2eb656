package gen

import (
	"testing"

	"otm/internal/history"
)

func TestHistoryDeterministic(t *testing.T) {
	cfg := Config{Txs: 5, Objs: 3, MaxOps: 4}
	a := History(cfg, 42)
	b := History(cfg, 42)
	if len(a) != len(b) {
		t.Fatal("same seed must give same history")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := History(cfg, 43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds should (virtually always) differ")
	}
}

func TestHistoryWellFormed(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		h := History(Config{Txs: 5, Objs: 3, MaxOps: 4, WithInit: seed%2 == 0}, seed)
		if err := h.WellFormed(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, h.Format())
		}
	}
}

func TestHistoryHasRequestedShape(t *testing.T) {
	h := History(Config{Txs: 6, Objs: 2, MaxOps: 3}, 7)
	txs := h.Transactions()
	if len(txs) != 6 {
		t.Errorf("%d transactions, want 6", len(txs))
	}
	for _, tx := range txs {
		if n := len(h.OpExecs(tx)); n < 1 || n > 3 {
			t.Errorf("T%d has %d ops, want 1..3", int(tx), n)
		}
	}
	for _, ob := range h.Objects() {
		if ob != "x0" && ob != "x1" {
			t.Errorf("unexpected object %s", ob)
		}
	}
}

func TestHistoryWithInit(t *testing.T) {
	h := History(Config{Txs: 3, Objs: 2, WithInit: true}, 9)
	if !h.Contains(0) || !h.Committed(0) {
		t.Fatal("T0 must exist and be committed")
	}
	if !h.Precedes(0, 1) {
		t.Error("T0 must precede the generated transactions")
	}
	// T0 writes every register.
	if got := len(h.OpExecs(0)); got != 2 {
		t.Errorf("T0 writes %d registers, want 2", got)
	}
}

// TestHistorySizedOnce pins the generators' one allocation: the plain
// generator's events fit the bound its slice is made with, and the
// symmetric generator's slice is made at exactly its length.
func TestHistorySizedOnce(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		for _, cfg := range []Config{
			{Txs: 6, Objs: 3, MaxOps: 4, PLeaveLive: 0.8},
			{Txs: 5, Objs: 2, MaxOps: 1, WithInit: true},
			{Txs: 3, Objs: 2, MaxOps: 3, Clones: 3},
			{Txs: 2, Objs: 4, MaxOps: 5, Clones: 2, WithInit: true},
		} {
			h := History(cfg, seed)
			want := len(h)
			if cfg.Clones <= 1 {
				want = cfg.Txs * (2*cfg.MaxOps + 2)
				if cfg.WithInit {
					want += 2*cfg.Objs + 2
				}
			}
			if cap(h) != want {
				t.Fatalf("%+v seed %d: %d events in a slice of capacity %d, want %d", cfg, seed, len(h), cap(h), want)
			}
		}
	}
}

// TestObjName pins the register names, including past the table of the
// first hundred.
func TestObjName(t *testing.T) {
	for i, want := range map[int]history.ObjID{0: "x0", 9: "x9", 10: "x01", 57: "x75", 99: "x99", 100: "x00", 123: "x32"} {
		if got := objName(i); got != want {
			t.Errorf("objName(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestHistoryUniqueWrites(t *testing.T) {
	type wk struct {
		ob history.ObjID
		v  history.Value
	}
	for seed := int64(0); seed < 100; seed++ {
		h := History(Config{Txs: 6, Objs: 3, MaxOps: 5}, seed)
		seen := map[wk]bool{}
		for _, e := range h {
			if e.Kind == history.KindInv && e.Op == "write" {
				k := wk{e.Obj, e.Arg}
				if seen[k] {
					t.Fatalf("seed %d: duplicate write %v to %s", seed, e.Arg, e.Obj)
				}
				seen[k] = true
			}
		}
	}
}

func TestHistoryMixesVerdicts(t *testing.T) {
	// The corpus must contain both opaque-looking and broken histories;
	// we proxy via the presence of stale reads versus faithful ones. A
	// full verdict mix check lives in the differential test.
	statuses := map[history.Status]int{}
	for seed := int64(0); seed < 100; seed++ {
		h := History(Config{Txs: 4, Objs: 2}, seed)
		for _, tx := range h.Transactions() {
			statuses[h.Status(tx)]++
		}
	}
	for _, st := range []history.Status{
		history.StatusCommitted, history.StatusAborted,
		history.StatusCommitPending, history.StatusLive,
	} {
		if statuses[st] == 0 {
			t.Errorf("corpus contains no %v transactions", st)
		}
	}
}

func TestMakeWorkload(t *testing.T) {
	w := MakeWorkload(3, 10, 5, 8, 0.5)
	if len(w) != 10 {
		t.Fatalf("%d transactions, want 10", len(w))
	}
	reads, writes := 0, 0
	vals := map[int]bool{}
	for _, ops := range w {
		if len(ops) < 1 || len(ops) > 5 {
			t.Errorf("transaction with %d ops", len(ops))
		}
		for _, op := range ops {
			if op.Obj < 0 || op.Obj >= 8 {
				t.Errorf("object %d out of range", op.Obj)
			}
			if op.Read {
				reads++
			} else {
				writes++
				if vals[op.Val] {
					t.Errorf("duplicate written value %d", op.Val)
				}
				vals[op.Val] = true
			}
		}
	}
	if reads == 0 || writes == 0 {
		t.Error("workload should mix reads and writes")
	}
	// Determinism.
	w2 := MakeWorkload(3, 10, 5, 8, 0.5)
	for i := range w {
		if len(w[i]) != len(w2[i]) {
			t.Fatal("workload not deterministic")
		}
	}
}

// TestShardRange: shards are contiguous, disjoint, balanced (sizes
// differ by at most one) and cover exactly [0, n) — the property that
// makes `histgen -shard i/k` regenerate precisely its slice.
func TestShardRange(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{0, 1}, {1, 1}, {5, 2}, {7, 3}, {2000, 8}, {10, 16}, {3, 7},
	} {
		covered := 0
		prevHi := 0
		minSize, maxSize := tc.n+1, -1
		for i := 0; i < tc.k; i++ {
			lo, hi := ShardRange(tc.n, i, tc.k)
			if lo != prevHi {
				t.Fatalf("n=%d k=%d: shard %d starts at %d, want %d (contiguous)", tc.n, tc.k, i, lo, prevHi)
			}
			if hi < lo {
				t.Fatalf("n=%d k=%d: shard %d is [%d, %d)", tc.n, tc.k, i, lo, hi)
			}
			if size := hi - lo; size < minSize {
				minSize = size
			} else if size > maxSize {
				maxSize = size
			}
			if maxSize < minSize {
				maxSize = minSize
			}
			covered += hi - lo
			prevHi = hi
		}
		if prevHi != tc.n || covered != tc.n {
			t.Errorf("n=%d k=%d: shards cover [0, %d) with %d indices, want exactly [0, %d)", tc.n, tc.k, prevHi, covered, tc.n)
		}
		if maxSize-minSize > 1 {
			t.Errorf("n=%d k=%d: shard sizes range %d..%d, want balanced within 1", tc.n, tc.k, minSize, maxSize)
		}
	}
	for _, bad := range []struct{ n, i, k int }{{10, -1, 2}, {10, 2, 2}, {10, 0, 0}, {-1, 0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ShardRange(%d, %d, %d) did not panic", bad.n, bad.i, bad.k)
				}
			}()
			ShardRange(bad.n, bad.i, bad.k)
		}()
	}
}
