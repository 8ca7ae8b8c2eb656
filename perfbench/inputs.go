package main

// Input generation. Every input of every workload is a pure function of
// the seed: no goroutines, no clocks, no map iteration. The self-tests
// pin this (TestGenerationIsDeterministic, TestGeneratorsSpawnNoGoroutines).

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"otm/internal/bench"
	"otm/internal/gen"
	"otm/internal/history"
	"otm/internal/interleave"
	"otm/internal/stm"
)

// The batch workloads' generator shapes.
var (
	// adversarialConfig is the commitpending bench shape: stale reads
	// and mostly commit-pending transactions.
	adversarialConfig = gen.Config{Txs: 6, Objs: 3, MaxOps: 4, PStaleRead: 0.3, PLeaveLive: 0.8}
	// symmetricConfig is the generator config of the pinned symmetric
	// corpus (testdata/corpora/symmetric.json; TestSymmetricConfigMatchesPinnedSpec).
	symmetricConfig = gen.Config{Txs: 3, Objs: 2, MaxOps: 3, PStaleRead: 0.3, PLeaveLive: 0.4, Clones: 3}
	// recordedEngines are the opaque engines whose runs the recorded
	// workload replays.
	recordedEngines = []string{"tl2", "tl2x", "dstm", "vstm", "mvstm"}
)

// The recorded workload's schedule shape.
const (
	recordedTxs    = 6   // transactions per schedule
	recordedObjs   = 3   // registers per engine instance
	recordedMaxOps = 4   // operations per transaction, 1..recordedMaxOps
	recordedPAbort = 0.1 // share of transactions that end in tryA
)

// The monitor workload's script shape.
const (
	monitorObjs     = 4
	monitorOpsPerTx = 8
	monitorReadFrac = 0.9
	monitorSlots    = 4 // transactions open at a time
)

// batchInputs generates the n input lines of a batch workload, rendered
// in the textual history format opacheck reads. History i is generated
// from seed*n+i, so distinct seeds give disjoint corpora. lap, if set,
// is called after each history.
func batchInputs(workload string, seed int64, n int, lap func()) ([]string, error) {
	base := seed * int64(n)
	lines := make([]string, n)
	switch workload {
	case "recorded":
		engines := make([]bench.Engine, len(recordedEngines))
		for i, name := range recordedEngines {
			e, err := bench.EngineByName(name)
			if err != nil {
				return nil, err
			}
			engines[i] = e
		}
		for i := range lines {
			lines[i] = recordedHistory(engines[i%len(engines)], base+int64(i)).String()
			if lap != nil {
				lap()
			}
		}
	case "adversarial", "symmetric":
		cfg := adversarialConfig
		if workload == "symmetric" {
			cfg = symmetricConfig
		}
		for i := range lines {
			lines[i] = gen.History(cfg, base+int64(i)).String()
			if lap != nil {
				lap()
			}
		}
	default:
		return nil, fmt.Errorf("no batch workload %q", workload)
	}
	return lines, nil
}

// recordedHistory runs one seeded single-goroutine schedule on a fresh
// instance of engine behind stm.Recorder and returns the recorded
// history: recordedTxs transactions of random reads and unique-valued
// writes, each ending in tryC (or tryA), randomly interleaved step by
// step.
func recordedHistory(engine bench.Engine, seed int64) history.History {
	rng := rand.New(rand.NewSource(seed))
	perTx := make([][]interleave.Step, recordedTxs)
	val := 1
	for tx := range perTx {
		n := 1 + rng.Intn(recordedMaxOps)
		steps := make([]interleave.Step, 0, n+1)
		for o := 0; o < n; o++ {
			step := interleave.Step{Tx: tx, Action: interleave.Read, Obj: rng.Intn(recordedObjs)}
			if rng.Intn(2) == 0 {
				step.Action, step.Val = interleave.Write, val
				val++
			}
			steps = append(steps, step)
		}
		end := interleave.Commit
		if rng.Float64() < recordedPAbort {
			end = interleave.Abort
		}
		perTx[tx] = append(steps, interleave.Step{Tx: tx, Action: end})
	}
	var schedule []interleave.Step
	live := make([]int, recordedTxs)
	for i := range live {
		live[i] = i
	}
	for len(live) > 0 {
		k := rng.Intn(len(live))
		tx := live[k]
		schedule = append(schedule, perTx[tx][0])
		perTx[tx] = perTx[tx][1:]
		if len(perTx[tx]) == 0 {
			live = append(live[:k], live[k+1:]...)
		}
	}
	rec := stm.NewRecorder(engine.New(recordedObjs))
	interleave.Run(rec, schedule)
	return rec.History()
}

// scriptOp is one operation of a monitor-script transaction.
type scriptOp struct {
	read bool
	obj  int
	val  int
}

// script is the monitor workload's input: the transactions, issued in
// order, and the seed of the slot picker that interleaves the open ones.
type script struct {
	txs      [][]scriptOp
	pickSeed int64
}

// monitorScript generates a script of n transactions of monitorOpsPerTx
// operations each, monitorReadFrac of them reads over monitorObjs
// registers, with globally unique written values.
func monitorScript(seed int64, n int) *script {
	rng := rand.New(rand.NewSource(seed))
	s := &script{txs: make([][]scriptOp, n), pickSeed: rng.Int63()}
	val := 1
	for i := range s.txs {
		ops := make([]scriptOp, monitorOpsPerTx)
		for o := range ops {
			ops[o] = scriptOp{read: true, obj: rng.Intn(monitorObjs)}
			if rng.Float64() >= monitorReadFrac {
				ops[o].read, ops[o].val = false, val
				val++
			}
		}
		s.txs[i] = ops
	}
	return s
}

// render writes the script in a line-per-transaction text form, the
// bytes its digest covers.
func (s *script) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "picks %d\n", s.pickSeed)
	for _, ops := range s.txs {
		for o, op := range ops {
			if o > 0 {
				b.WriteByte(' ')
			}
			if op.read {
				fmt.Fprintf(&b, "r(%d)", op.obj)
			} else {
				fmt.Fprintf(&b, "w(%d,%d)", op.obj, op.val)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// digest is a short fingerprint of rendered inputs.
func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
