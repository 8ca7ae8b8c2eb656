package stmtest

import (
	"math/rand"

	"otm/internal/history"
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
