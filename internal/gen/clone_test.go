package gen

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"otm/internal/history"
)

// TestCloneHistoryShape pins the contract of the symmetric-workload
// generator: deterministic, well-formed output holding Txs×Clones
// transactions with dense ids 1+t*Clones+c, where the clones of one
// template are behaviorally identical (equal history.OpSignature) and
// every pair of instances is concurrent (the real-time order constrains
// nothing).
func TestCloneHistoryShape(t *testing.T) {
	cfg := Config{Txs: 3, Objs: 2, MaxOps: 3, Clones: 3, PStaleRead: 0.3, PLeaveLive: 0.4}
	for seed := int64(0); seed < 30; seed++ {
		h := History(cfg, seed)
		if !reflect.DeepEqual(h, History(cfg, seed)) {
			t.Fatalf("seed %d: not deterministic", seed)
		}
		if err := h.WellFormed(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, h.Format())
		}
		txs := h.Transactions()
		if len(txs) != cfg.Txs*cfg.Clones {
			t.Fatalf("seed %d: %d transactions, want %d", seed, len(txs), cfg.Txs*cfg.Clones)
		}
		for tpl := 0; tpl < cfg.Txs; tpl++ {
			canonical := history.TxID(1 + tpl*cfg.Clones)
			for c := 1; c < cfg.Clones; c++ {
				clone := canonical + history.TxID(c)
				i, j := indexOfTx(txs, canonical), indexOfTx(txs, clone)
				if i < 0 || j < 0 {
					t.Fatalf("seed %d: ids %d/%d missing from %v", seed, canonical, clone, txs)
				}
				if history.OpSignature(h.OpExecs(canonical)) != history.OpSignature(h.OpExecs(clone)) {
					t.Fatalf("seed %d: T%d and T%d are clones but differ behaviorally:\n%s",
						seed, canonical, clone, h.Format())
				}
				if h.Status(canonical) != h.Status(clone) {
					t.Fatalf("seed %d: T%d and T%d disagree on fate", seed, canonical, clone)
				}
			}
		}
		if rt := h.RealTimeOrder(); len(rt) != 0 {
			t.Fatalf("seed %d: instances must be pairwise concurrent, got real-time pairs %v", seed, rt)
		}
	}
}

// TestCloneHistoryWithInit: the initializing transaction prefixes the
// symmetric workload exactly as it does the plain one — committed T0
// writing 0 to every register, really-preceding every instance.
func TestCloneHistoryWithInit(t *testing.T) {
	cfg := Config{Txs: 2, Objs: 2, MaxOps: 2, Clones: 2, WithInit: true}
	h := History(cfg, 1)
	if err := h.WellFormed(); err != nil {
		t.Fatal(err)
	}
	if len(h.Transactions()) != cfg.Txs*cfg.Clones+1 {
		t.Fatalf("%d transactions, want txs*clones+1", len(h.Transactions()))
	}
	if got := len(h.RealTimeOrder()); got != cfg.Txs*cfg.Clones {
		t.Errorf("T0 must really-precede every instance: %d pairs, want %d", got, cfg.Txs*cfg.Clones)
	}
}

// TestLoadSpec covers the corpus-spec loader: a round-trip through the
// JSON shape of testdata/corpora/*.json, and the rejection paths.
func TestLoadSpec(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	want := Spec{Txs: 3, Objs: 2, MaxOps: 3, PStaleRead: 0.3, PLeaveLive: 0.4, Clones: 3, N: 12, Base: 1}
	buf, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	s, err := LoadSpec(write("ok.json", string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	if s != want {
		t.Fatalf("round-trip: got %+v, want %+v", s, want)
	}
	cfg := s.Config()
	if cfg.Txs != want.Txs || cfg.Clones != want.Clones || cfg.PLeaveLive != want.PLeaveLive {
		t.Errorf("Config() dropped fields: %+v", cfg)
	}
	hs := s.Corpus()
	if len(hs) != want.N {
		t.Fatalf("Corpus() produced %d histories, want %d", len(hs), want.N)
	}
	if !reflect.DeepEqual(hs, Corpus(cfg, want.N, want.Base)) {
		t.Error("Corpus() must equal Corpus(spec.Config(), n, base)")
	}

	if _, err := LoadSpec(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := LoadSpec(write("bad.json", "{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := LoadSpec(write("zero.json", `{"txs":2,"n":0}`)); err == nil {
		t.Error("n=0 accepted")
	}
}

// indexOfTx is a test helper: the position of tx in txs, or -1.
func indexOfTx(txs []history.TxID, tx history.TxID) int {
	for i, t := range txs {
		if t == tx {
			return i
		}
	}
	return -1
}
