package stmtest

import (
	"math/rand"

	"otm/internal/history"
	"otm/internal/interleave"
	"otm/internal/stm"
)

// Interleaved records tm running n transactions from one goroutine, 4
// of them open at a time: each runs 8 operations on objects 0..15 (tm
// must hold at least 16), 90 % reads and 10 % writes of fresh values,
// then commits, and each step goes to an open transaction drawn from a
// seeded source. A transaction tm aborts stays in the history and frees
// its slot for the next one. One goroutine and a fixed seed make the
// history the same on every run of a deterministic engine, such as tl2.
func Interleaved(tm stm.TM, n int) history.History {
	const open, ops, objs = 4, 8, 16
	rng := rand.New(rand.NewSource(1))
	rec := stm.NewRecorder(tm)
	type slot struct {
		tx   stm.Tx
		done int
	}
	var slots []*slot
	begun, val := 0, 0
	for {
		for len(slots) < open && begun < n {
			slots = append(slots, &slot{tx: rec.Begin()})
			begun++
		}
		if len(slots) == 0 {
			return rec.History()
		}
		k := rng.Intn(len(slots))
		s := slots[k]
		var err error
		switch {
		case s.done == ops:
			err = s.tx.Commit()
		case rng.Intn(10) != 0:
			_, err = s.tx.Read(rng.Intn(objs))
		default:
			val++
			err = s.tx.Write(rng.Intn(objs), val)
		}
		s.done++
		if err != nil || s.done > ops {
			slots = append(slots[:k], slots[k+1:]...)
		}
	}
}

// Recorded records tm running one seeded schedule through
// interleave.Run, from one goroutine: 6 transactions of 1 to 4
// operations each on objects 0..2 (tm must hold at least 3), reads and
// writes of fresh values in equal shares, each ending in a commit or,
// one time in ten, a voluntary abort, interleaved step by step in an
// order drawn from seed. A deterministic engine, such as tl2, records
// the same history for the same seed on every run.
func Recorded(tm stm.TM, seed int64) history.History {
	const txs, objs, maxOps = 6, 3, 4
	rng := rand.New(rand.NewSource(seed))
	steps := make([][]interleave.Step, txs)
	val := 1
	for tx := range steps {
		n := 1 + rng.Intn(maxOps)
		for range n {
			st := interleave.Step{Tx: tx, Action: interleave.Read, Obj: rng.Intn(objs)}
			if rng.Intn(2) == 0 {
				st.Action, st.Val = interleave.Write, val
				val++
			}
			steps[tx] = append(steps[tx], st)
		}
		end := interleave.Commit
		if rng.Intn(10) == 0 {
			end = interleave.Abort
		}
		steps[tx] = append(steps[tx], interleave.Step{Tx: tx, Action: end})
	}
	var schedule []interleave.Step
	live := make([]int, txs)
	for i := range live {
		live[i] = i
	}
	for len(live) > 0 {
		k := rng.Intn(len(live))
		tx := live[k]
		schedule = append(schedule, steps[tx][0])
		if steps[tx] = steps[tx][1:]; len(steps[tx]) == 0 {
			live = append(live[:k], live[k+1:]...)
		}
	}
	rec := stm.NewRecorder(tm)
	interleave.Run(rec, schedule)
	return rec.History()
}
