package stmtest

import (
	"sync/atomic"

	"otm/internal/stm"
)

// Counting wraps a TM and counts the Read, Write, Commit and Abort calls
// made on the wrapped engine's transactions. Placed below an
// stm.Recorder, it counts the recorder's events: the recorder emits
// exactly one invocation and one response around each such call (the
// engines fail a call only with stm.ErrAborted, which the recorder
// records as the response), so Events is the number of events it
// handed to its tap or kept. The count comes from below the recorder,
// so it holds whatever the recorder retains (a tapped recorder keeps
// nothing).
type Counting struct {
	stm.TM
	calls atomic.Int64
}

// NewCounting wraps tm.
func NewCounting(tm stm.TM) *Counting { return &Counting{TM: tm} }

// Begin implements stm.TM.
func (c *Counting) Begin() stm.Tx { return &countingTx{Tx: c.TM.Begin(), calls: &c.calls} }

// Events returns the number of events a recorder wrapping c has emitted
// so far: two per counted call.
func (c *Counting) Events() int { return 2 * int(c.calls.Load()) }

type countingTx struct {
	stm.Tx
	calls *atomic.Int64
}

func (t *countingTx) Read(i int) (int, error) {
	t.calls.Add(1)
	return t.Tx.Read(i)
}

func (t *countingTx) Write(i, v int) error {
	t.calls.Add(1)
	return t.Tx.Write(i, v)
}

func (t *countingTx) Commit() error {
	t.calls.Add(1)
	return t.Tx.Commit()
}

func (t *countingTx) Abort() {
	t.calls.Add(1)
	t.Tx.Abort()
}
