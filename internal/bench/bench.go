// Package bench implements the measurement scenarios behind the paper's
// §6 complexity claims: the Theorem 3 sweep (E9, `tmbench -sweep`,
// TestTheorem3Shape), the tightness table (E10, `tmbench -scan`,
// TestTightnessQuadratic) and the throughput comparison (E13, `tmbench
// -throughput`). The same code drives both the testing.B benchmarks at
// the repository root and the cmd/tmbench table generator, so the
// tables tmbench prints are regenerated by exactly the code that is
// unit-benchmarked.
package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"otm/internal/cm"
	"otm/internal/stm"
	"otm/internal/stm/dstm"
	"otm/internal/stm/gatm"
	"otm/internal/stm/mvstm"
	"otm/internal/stm/sistm"
	"otm/internal/stm/tl2"
	"otm/internal/stm/vstm"
)

// Engine describes one STM engine and the §6 properties it exhibits; the
// property columns are printed alongside measurements so the tables read
// like the paper's discussion.
type Engine struct {
	Name string
	New  func(n int) stm.TM

	SingleVersion  bool
	InvisibleReads bool
	Progressive    bool
	Opaque         bool
	// Expected per-operation complexity, for the table header.
	Complexity string
}

// Engines returns the five engines in presentation order.
func Engines() []Engine {
	return []Engine{
		{
			Name: "dstm", New: func(n int) stm.TM { return dstm.New(n, cm.Aggressive{}) },
			SingleVersion: true, InvisibleReads: true, Progressive: true, Opaque: true,
			Complexity: "Θ(k)",
		},
		{
			Name: "tl2", New: func(n int) stm.TM { return tl2.New(n) },
			SingleVersion: true, InvisibleReads: true, Progressive: false, Opaque: true,
			Complexity: "O(1)",
		},
		{
			Name: "tl2x", New: func(n int) stm.TM { return tl2.NewExtending(n) },
			SingleVersion: true, InvisibleReads: true, Progressive: false, Opaque: true,
			Complexity: "Θ(r) on conflict",
		},
		{
			Name: "vstm", New: func(n int) stm.TM { return vstm.New(n, cm.Aggressive{}) },
			SingleVersion: true, InvisibleReads: false, Progressive: true, Opaque: true,
			Complexity: "O(1)",
		},
		{
			Name: "mvstm", New: func(n int) stm.TM { return mvstm.New(n) },
			SingleVersion: false, InvisibleReads: true, Progressive: true, Opaque: true,
			Complexity: "indep. of k",
		},
		{
			Name: "gatm", New: func(n int) stm.TM { return gatm.New(n) },
			SingleVersion: true, InvisibleReads: true, Progressive: false, Opaque: false,
			Complexity: "O(1)",
		},
		{
			Name: "sistm", New: func(n int) stm.TM { return sistm.New(n) },
			SingleVersion: false, InvisibleReads: true, Progressive: false, Opaque: false,
			Complexity: "indep. of k",
		},
	}
}

// EngineByName returns the named engine descriptor.
func EngineByName(name string) (Engine, error) {
	for _, e := range Engines() {
		if e.Name == name {
			return e, nil
		}
	}
	return Engine{}, fmt.Errorf("bench: unknown engine %q", name)
}

// StepsForNextRead runs the Theorem 3 scenario on a fresh TM with k
// objects and returns the number of base-object steps the reader's
// decisive operation costs:
//
//	T1 reads objects 0..k/2-1.
//	T2 writes object k-1 and commits.
//	T1 invokes Read(k-1)  ←  measured.
//
// For a progressive, single-version, invisible-read TM this read must
// revalidate T1's whole read set — Ω(k) steps (the lower bound); for the
// other strategies it is O(1) or bounded independently of k. The read may
// legitimately end in a forceful abort (TL2 does exactly that); the abort
// path's steps are what is charged, mirroring the paper's "steps until
// the operation terminates".
func StepsForNextRead(e Engine, k int) (int64, error) {
	if k < 2 {
		return 0, errors.New("bench: k must be at least 2")
	}
	tm := e.New(k)
	t1 := tm.Begin()
	for i := 0; i < k/2; i++ {
		if _, err := t1.Read(i); err != nil {
			return 0, fmt.Errorf("bench: %s: priming read %d aborted", e.Name, i)
		}
	}
	t2 := tm.Begin()
	if err := t2.Write(k-1, 1); err != nil {
		return 0, fmt.Errorf("bench: %s: writer aborted", e.Name)
	}
	if err := t2.Commit(); err != nil {
		return 0, fmt.Errorf("bench: %s: writer commit failed", e.Name)
	}
	before := t1.Steps()
	_, _ = t1.Read(k - 1) // may abort (TL2); steps still counted
	steps := t1.Steps() - before
	t1.Abort()
	return steps, nil
}

// FullScanSteps returns the total base-object steps of one transaction
// that reads all k objects and commits — the Θ(k²) tightness measurement
// for dstm (E10) versus Θ(k) for the constant-per-op engines.
func FullScanSteps(e Engine, k int) (int64, error) {
	tm := e.New(k)
	tx := tm.Begin()
	for i := 0; i < k; i++ {
		if _, err := tx.Read(i); err != nil {
			return 0, fmt.Errorf("bench: %s: read %d aborted", e.Name, i)
		}
	}
	if err := tx.Commit(); err != nil {
		return 0, fmt.Errorf("bench: %s: commit failed", e.Name)
	}
	return tx.Steps(), nil
}

// ThroughputResult is one row of the E13 workload comparison.
type ThroughputResult struct {
	Engine     string
	Goroutines int
	Commits    int64
	Aborts     int64
	Duration   time.Duration
}

// OpsPerSec returns committed transactions per second.
func (r ThroughputResult) OpsPerSec() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Commits) / r.Duration.Seconds()
}

// AbortRate returns the fraction of attempts that aborted.
func (r ThroughputResult) AbortRate() float64 {
	total := r.Commits + r.Aborts
	if total == 0 {
		return 0
	}
	return float64(r.Aborts) / float64(total)
}

// ManagedEngine builds a progressive engine (dstm or vstm) with an
// explicit contention manager — the ablation axis of `tmbench -cm`: the
// same engine under Aggressive, Polite, Karma and Greedy policies.
func ManagedEngine(engine string, mgr cm.Manager) (Engine, error) {
	switch engine {
	case "dstm":
		return Engine{
			Name:          "dstm/" + mgr.Name(),
			New:           func(n int) stm.TM { return dstm.New(n, mgr) },
			SingleVersion: true, InvisibleReads: true, Progressive: true, Opaque: true,
			Complexity: "Θ(k)",
		}, nil
	case "vstm":
		return Engine{
			Name:          "vstm/" + mgr.Name(),
			New:           func(n int) stm.TM { return vstm.New(n, mgr) },
			SingleVersion: true, InvisibleReads: false, Progressive: true, Opaque: true,
			Complexity: "O(1)",
		}, nil
	default:
		return Engine{}, fmt.Errorf("bench: engine %q takes no contention manager", engine)
	}
}

// Managers returns the contention-manager policies for ablation runs.
func Managers() []cm.Manager {
	return []cm.Manager{cm.Aggressive{}, cm.Polite{}, cm.Karma{}, cm.Greedy{}}
}

// Throughput runs a closed-loop workload: g goroutines each commit
// txPerG transactions of opsPerTx operations over k objects, a readFrac
// fraction of them reads. It reports wall time, commits and aborts —
// the read-dominated comparison motivating invisible reads (§6).
func Throughput(e Engine, k, g, txPerG, opsPerTx int, readFrac float64) ThroughputResult {
	tm := e.New(k)
	var aborts atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			val := int(seed) * 1_000_000
			for n := 0; n < txPerG; n++ {
				attempts := 0
				err := stm.Atomically(tm, func(tx stm.Tx) error {
					attempts++
					for o := 0; o < opsPerTx; o++ {
						obj := rng.Intn(k)
						if rng.Float64() < readFrac {
							if _, err := tx.Read(obj); err != nil {
								return err
							}
						} else {
							val++
							if err := tx.Write(obj, val); err != nil {
								return err
							}
						}
					}
					return nil
				})
				if err != nil {
					// Atomically only returns application errors, which
					// this workload never produces.
					panic(err)
				}
				aborts.Add(int64(attempts - 1))
			}
		}(int64(i) + 1)
	}
	wg.Wait()
	return ThroughputResult{
		Engine:     e.Name,
		Goroutines: g,
		Commits:    int64(g * txPerG),
		Aborts:     aborts.Load(),
		Duration:   time.Since(start),
	}
}
