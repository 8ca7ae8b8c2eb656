// Package gen generates random well-formed histories and random STM
// workloads for property-based and differential testing. Everything is
// seeded and deterministic: the same Config and seed always produce the
// same history, so failures reported by fuzz-style tests are
// reproducible.
//
// The history generator simulates an interleaved execution of register
// transactions. Read return values are drawn adversarially — sometimes
// the "currently correct" committed value, sometimes a stale or foreign
// one — so that the produced corpus contains both opaque and non-opaque
// histories in useful proportions. Writes use globally unique values,
// satisfying the standing assumption of the graph characterization
// (internal/opg), and histories can be prefixed with the initializing
// transaction T0 that it also requires.
package gen

import (
	"fmt"
	"math/rand"

	"otm/internal/history"
)

// Config tunes the random history generator.
type Config struct {
	// Txs is the number of transactions (default 4). T0 is extra.
	Txs int
	// Objs is the number of registers, named "x0".."x<n-1>" (default 2).
	Objs int
	// MaxOps is the maximum operation executions per transaction
	// (default 3; at least 1).
	MaxOps int
	// PCommit is the probability that a transaction that survives to its
	// end requests commit and commits, in [0,1] (default 0.7). Otherwise
	// it aborts (half voluntarily, half forcefully after tryC).
	PCommit float64
	// PStaleRead is the probability that a read returns an adversarially
	// chosen value (initial value or any value written so far by anyone)
	// instead of the tracked committed value (default 0.25).
	PStaleRead float64
	// PLeaveLive is the probability that a transaction is left live
	// (possibly commit-pending) at the end of the history (default 0.15).
	PLeaveLive float64
	// WithInit prepends the committed initializing transaction T0
	// writing the initial value 0 to every register.
	WithInit bool
	// Clones switches to the symmetric-workload generator: each of the
	// Txs transaction templates is emitted Clones times (default 1 — the
	// plain generator). The clones of one template are fully
	// interchangeable: identical operation sequences — objects, argument
	// and return values included — identical fates, and pairwise
	// concurrent spans (every instance's events are round-robin
	// interleaved before any instance completes, so the real-time order
	// constrains nothing). Such corpora exercise the search engine's
	// symmetry classes maximally. Note that clones of a writing template
	// deliberately repeat each other's written values, so unlike the
	// plain generator's output these histories violate the unique-writes
	// assumption of the graph characterization (internal/opg); they are
	// inputs for the Definition 1 engines only.
	Clones int
}

func (c Config) withDefaults() Config {
	if c.Txs == 0 {
		c.Txs = 4
	}
	if c.Objs == 0 {
		c.Objs = 2
	}
	if c.MaxOps == 0 {
		c.MaxOps = 3
	}
	if c.PCommit == 0 {
		c.PCommit = 0.7
	}
	if c.PStaleRead == 0 {
		c.PStaleRead = 0.25
	}
	if c.PLeaveLive == 0 {
		c.PLeaveLive = 0.15
	}
	if c.Clones == 0 {
		c.Clones = 1
	}
	return c
}

// objNames holds objName's first hundred names, so a generated operation
// builds no string.
var objNames = func() (names [100]history.ObjID) {
	for i := range names {
		names[i] = objNameOf(i)
	}
	return names
}()

func objName(i int) history.ObjID {
	if i < len(objNames) {
		return objNames[i]
	}
	return objNameOf(i)
}

func objNameOf(i int) history.ObjID {
	return history.ObjID("x" + string(rune('0'+i%10)) + suffix(i/10))
}

func suffix(i int) string {
	if i == 0 {
		return ""
	}
	return string(rune('0' + i%10))
}

// History generates one random well-formed register history from cfg and
// seed.
func History(cfg Config, seed int64) history.History {
	cfg = cfg.withDefaults()
	if cfg.Clones > 1 {
		return cloneHistory(cfg, seed)
	}
	rng := rand.New(rand.NewSource(seed))

	type txState struct {
		id      history.TxID
		opsLeft int
		phase   int // 0 running, 1 commit-pending, 2 done
	}

	// Every transaction emits at most MaxOps operation executions and two
	// termination events.
	h := make(history.History, 0, initEvents(cfg)+cfg.Txs*(2*cfg.MaxOps+2))
	h = appendInit(h, cfg)
	// committed[ob] tracks a plausible "current committed value" — the
	// generator's approximation used for non-stale reads.
	committed := make(map[history.ObjID]history.Value)
	var writtenValues []int // all values written so far, for stale reads
	nextVal := 1            // unique write values

	var txs []*txState
	for i := 0; i < cfg.Txs; i++ {
		txs = append(txs, &txState{
			id:      history.TxID(i + 1),
			opsLeft: 1 + rng.Intn(cfg.MaxOps),
		})
	}

	running := len(txs)
	for running > 0 {
		t := txs[rng.Intn(len(txs))]
		if t.phase != 0 {
			continue
		}
		if t.opsLeft == 0 {
			// Terminate the transaction.
			switch {
			case rng.Float64() < cfg.PLeaveLive:
				if rng.Intn(2) == 0 {
					h = append(h, history.TryC(t.id)) // left commit-pending
				}
				// else: left live and idle.
				t.phase = 2
			case rng.Float64() < cfg.PCommit:
				h = append(h, history.TryC(t.id), history.Commit(t.id))
				t.phase = 2
			default:
				if rng.Intn(2) == 0 {
					h = append(h, history.TryA(t.id), history.Abort(t.id))
				} else {
					h = append(h, history.TryC(t.id), history.Abort(t.id))
				}
				t.phase = 2
			}
			if t.phase == 2 {
				running--
			}
			continue
		}
		t.opsLeft--
		ob := objName(rng.Intn(cfg.Objs))
		if rng.Intn(2) == 0 {
			// Write a globally unique value.
			v := nextVal
			nextVal++
			h = append(h,
				history.Inv(t.id, ob, "write", v),
				history.Ret(t.id, ob, "write", history.OK))
			writtenValues = append(writtenValues, v)
			// Approximate visibility: the value becomes the "committed"
			// candidate half the time (models the writer committing
			// before the next reader).
			if rng.Intn(2) == 0 {
				committed[ob] = v
			}
		} else {
			var v history.Value
			if rng.Float64() < cfg.PStaleRead || committed[ob] == nil {
				// Adversarial value: initial 0 or any written value.
				if len(writtenValues) == 0 || rng.Intn(3) == 0 {
					v = 0
				} else {
					v = writtenValues[rng.Intn(len(writtenValues))]
				}
			} else {
				v = committed[ob]
			}
			h = append(h,
				history.Inv(t.id, ob, "read", nil),
				history.Ret(t.id, ob, "read", v))
		}
	}

	return h
}

// initEvents is the number of events appendInit appends.
func initEvents(cfg Config) int {
	if !cfg.WithInit {
		return 0
	}
	return 2*cfg.Objs + 2
}

// appendInit appends, if cfg.WithInit is set, the initializing
// transaction T0 writing 0 to every register (including unused ones, so
// the read value 0 is always attributable). It draws nothing from the
// generator's rng, so the generators emit it first.
func appendInit(h history.History, cfg Config) history.History {
	if !cfg.WithInit {
		return h
	}
	for i := 0; i < cfg.Objs; i++ {
		h = append(h,
			history.Inv(0, objName(i), "write", 0),
			history.Ret(0, objName(i), "write", history.OK))
	}
	return append(h, history.TryC(0), history.Commit(0))
}

// Corpus generates n histories from cfg with consecutive seeds starting
// at base. It is the standard input of the differential suite and the
// batch-checking benchmarks: the same (cfg, n, base) triple always
// yields the same corpus.
func Corpus(cfg Config, n int, base int64) []history.History {
	hs := make([]history.History, n)
	for i := range hs {
		hs[i] = History(cfg, base+int64(i))
	}
	return hs
}

// ShardRange partitions the n histories of a corpus into k contiguous,
// disjoint shards and returns the half-open global-index range [lo, hi)
// of shard i (0 ≤ i < k). Shard sizes differ by at most one and the
// union of all shards is exactly [0, n), so a distributed run where
// worker i regenerates History(cfg, base+j) for j in its range covers
// the same corpus as Corpus(cfg, n, base) — without shipping it.
func ShardRange(n, i, k int) (lo, hi int) {
	if k < 1 || i < 0 || i >= k || n < 0 {
		panic(fmt.Sprintf("gen.ShardRange(%d, %d, %d): need 0 ≤ i < k and n ≥ 0", n, i, k))
	}
	return i * n / k, (i + 1) * n / k
}

// Op is one step of a generated STM workload.
type Op struct {
	// Read is true for a read, false for a write.
	Read bool
	// Obj is the object index.
	Obj int
	// Val is the value written (unique per workload when distinct
	// values are requested).
	Val int
}

// Workload is a sequence of transactions for one goroutine, each a
// sequence of ops.
type Workload [][]Op

// MakeWorkload builds a reproducible workload: txs transactions of up to
// maxOps operations over k objects, with readFrac (0..1) of operations
// being reads. Written values are unique across the workload, derived
// from seed.
func MakeWorkload(seed int64, txs, maxOps, k int, readFrac float64) Workload {
	rng := rand.New(rand.NewSource(seed))
	val := int(seed%1000)*100_000 + 1
	var w Workload
	for t := 0; t < txs; t++ {
		n := 1 + rng.Intn(maxOps)
		ops := make([]Op, 0, n)
		for o := 0; o < n; o++ {
			if rng.Float64() < readFrac {
				ops = append(ops, Op{Read: true, Obj: rng.Intn(k)})
			} else {
				ops = append(ops, Op{Obj: rng.Intn(k), Val: val})
				val++
			}
		}
		w = append(w, ops)
	}
	return w
}
