// Package interleave replays deterministic operation schedules against
// STM engines. A schedule is a list of steps, each naming a
// script-local transaction and one action; transactions are begun
// lazily on first use and all steps run from the calling goroutine, so
// the interleaving is exact — the executable counterpart of the paper's
// figure timelines.
//
// The package also ships the canonical schedules of the paper
// (the §2 zombie schedule, the H4 commit-pending/old-snapshot schedule,
// the Theorem 3 scenario, write skew) and a classifier that maps each
// engine's reaction to a behaviour class, producing the cross-engine
// matrix that `tmbench -matrix` prints and TestZombieBehaviourMatrix and
// TestWriteSkewMatrix pin.
package interleave

import (
	"errors"
	"fmt"

	"otm/internal/stm"
)

// Action is the kind of a schedule step.
type Action int

const (
	// Read object Obj in transaction Tx.
	Read Action = iota
	// Write Val to object Obj in transaction Tx.
	Write
	// Commit transaction Tx.
	Commit
	// Abort transaction Tx voluntarily.
	Abort
	// Begin forces transaction Tx to start now (otherwise transactions
	// begin lazily at their first operation). Use it to pin the snapshot
	// timestamps of engines that take them at Begin (mvstm takes its
	// snapshot at the first operation instead).
	Begin
)

// Step is one action of a schedule.
type Step struct {
	Tx     int // script-local transaction index (0-based)
	Action Action
	Obj    int
	Val    int
}

// Result is the outcome of one step.
type Result struct {
	Val int
	Err error
}

// Aborted reports whether the step ended in a forceful or voluntary
// abort error.
func (r Result) Aborted() bool { return errors.Is(r.Err, stm.ErrAborted) }

// Run replays the schedule against a fresh transaction set on tm and
// returns one Result per step. Steps on a transaction that has already
// completed yield ErrAborted results, mirroring the Tx contract.
func Run(tm stm.TM, steps []Step) []Result {
	txs := make(map[int]stm.Tx)
	get := func(i int) stm.Tx {
		tx, ok := txs[i]
		if !ok {
			tx = tm.Begin()
			txs[i] = tx
		}
		return tx
	}
	out := make([]Result, len(steps))
	for i, s := range steps {
		switch s.Action {
		case Begin:
			get(s.Tx)
		case Read:
			v, err := get(s.Tx).Read(s.Obj)
			out[i] = Result{Val: v, Err: err}
		case Write:
			out[i] = Result{Err: get(s.Tx).Write(s.Obj, s.Val)}
		case Commit:
			out[i] = Result{Err: get(s.Tx).Commit()}
		case Abort:
			get(s.Tx).Abort()
		default:
			out[i] = Result{Err: fmt.Errorf("interleave: unknown action %d", s.Action)}
		}
	}
	return out
}

// ZombieSchedule is the §2 schedule: T0 reads object 0, T1 overwrites
// objects 0 and 1 and commits, T0 reads object 1. The last read (index
// 5) is the probe: an opaque single-version engine must abort it, a
// multi-version engine serves the old value, a non-opaque single-version
// engine returns the new value — the zombie.
func ZombieSchedule() []Step {
	return []Step{
		{Tx: 0, Action: Read, Obj: 0},
		{Tx: 1, Action: Write, Obj: 0, Val: 1},
		{Tx: 1, Action: Write, Obj: 1, Val: 1},
		{Tx: 1, Action: Commit},
		{Tx: 0, Action: Read, Obj: 1}, // the probe
		{Tx: 0, Action: Commit},
	}
}

// ZombieProbe is the index of the probing read in ZombieSchedule.
const ZombieProbe = 4

// Behaviour classifies an engine's reaction to the zombie probe.
type Behaviour string

// The three behaviour classes of the probe read.
const (
	BehaviourAbort    Behaviour = "abort"     // forcefully aborted: opacity by invalidation
	BehaviourOldValue Behaviour = "old-value" // old snapshot served: opacity by versioning
	BehaviourZombie   Behaviour = "ZOMBIE"    // new value served: opacity violated
)

// Classify runs ZombieSchedule on tm and classifies the probe outcome.
func Classify(tm stm.TM) Behaviour {
	res := Run(tm, ZombieSchedule())
	probe := res[ZombieProbe]
	switch {
	case probe.Aborted():
		return BehaviourAbort
	case probe.Val == 0:
		return BehaviourOldValue
	default:
		return BehaviourZombie
	}
}

// WriteSkewSchedule: both transactions read objects 0 and 1 (each 50)
// and write 100−110 = −10 into different objects; under serializable
// engines at most one commit may survive with both writes... precisely:
// a serializable outcome forbids BOTH commits succeeding. Probe the two
// Commit results (indices 8 and 9).
func WriteSkewSchedule() []Step {
	return []Step{
		{Tx: 0, Action: Begin},
		{Tx: 1, Action: Begin},
		{Tx: 0, Action: Read, Obj: 0},
		{Tx: 0, Action: Read, Obj: 1},
		{Tx: 1, Action: Read, Obj: 0},
		{Tx: 1, Action: Read, Obj: 1},
		{Tx: 0, Action: Write, Obj: 0, Val: -10},
		{Tx: 1, Action: Write, Obj: 1, Val: -10},
		{Tx: 0, Action: Commit},
		{Tx: 1, Action: Commit},
	}
}

// Theorem3Schedule builds the E9 scenario for k objects: T0 reads
// objects 0..k/2−1, T1 writes object k−1 and commits, T0 reads object
// k−1 (the measured/probed step, at index k/2+2).
func Theorem3Schedule(k int) []Step {
	var steps []Step
	for i := 0; i < k/2; i++ {
		steps = append(steps, Step{Tx: 0, Action: Read, Obj: i})
	}
	steps = append(steps,
		Step{Tx: 1, Action: Write, Obj: k - 1, Val: 1},
		Step{Tx: 1, Action: Commit},
		Step{Tx: 0, Action: Read, Obj: k - 1},
	)
	return steps
}
