// Package sistm implements a snapshot-isolation software transactional
// memory in the style of SI-STM (Riegel, Felber, Fetzer, TRANSACT 2006)
// — the second of the paper's named examples of TMs that "explicitly
// trade safety guarantees, while recognizing the resulting dangers, for
// improved performance" (§1).
//
// The engine is multi-version: every read comes from the transaction's
// birth snapshot, so — unlike gatm — a live transaction NEVER observes
// an inconsistent state (no §2 zombies, no divide-by-zero). What it
// gives up is serializability of committed transactions: commit-time
// validation covers only WRITE-write conflicts (first-committer-wins),
// so two transactions that read overlapping data and write disjoint
// objects can both commit — the classic write-skew anomaly. The
// committed history is then neither serializable nor opaque, which the
// checkers in this repository detect on recorded runs.
//
// Complexity-wise sistm matches mvstm: O(versions) per read,
// independent of the number of objects k — another demonstration that
// the Ω(k) bound of Theorem 3 is specifically about opacity-with-
// invisible-reads-single-version-progressiveness, not about cheap reads
// per se.
package sistm

import (
	"sync/atomic"

	"otm/internal/base"
	"otm/internal/stm"
)

// version is one committed version of an object (newest first).
type version struct {
	ver  uint64
	val  int
	next atomic.Pointer[version]
}

// TM is a snapshot-isolation transactional memory over Len integer
// registers.
type TM struct {
	clock base.U64
	lock  base.U64
	heads []base.Word[version]
}

// New returns an SI TM with n objects initialized to 0 at version 0.
func New(n int) *TM {
	t := &TM{heads: make([]base.Word[version], n)}
	for i := range t.heads {
		t.heads[i].Store(nil, &version{})
	}
	return t
}

// Name implements stm.TM.
func (t *TM) Name() string { return "sistm" }

// Len implements stm.TM.
func (t *TM) Len() int { return len(t.heads) }

// Begin implements stm.TM.
func (t *TM) Begin() stm.Tx {
	x := &tx{tm: t}
	x.readTS = t.clock.Load(&x.steps)
	return x
}

type tx struct {
	tm     *TM
	readTS uint64
	steps  base.StepCounter
	writes map[int]int
	done   bool
}

// Steps implements stm.Tx.
func (t *tx) Steps() int64 { return t.steps.Count() }

// Read implements stm.Tx: always from the birth snapshot — consistent,
// never aborts, never validated against other objects.
func (t *tx) Read(i int) (int, error) {
	if t.done {
		return 0, stm.ErrAborted
	}
	if v, ok := t.writes[i]; ok {
		return v, nil
	}
	v := t.tm.heads[i].Load(&t.steps)
	for v != nil && v.ver > t.readTS {
		t.steps.Step()
		v = v.next.Load()
	}
	if v == nil {
		return 0, stm.ErrAborted // unreachable: version 0 persists
	}
	return v.val, nil
}

// Write implements stm.Tx: buffered until commit.
func (t *tx) Write(i int, v int) error {
	if t.done {
		return stm.ErrAborted
	}
	if t.writes == nil {
		t.writes = make(map[int]int)
	}
	t.writes[i] = v
	return nil
}

// Commit implements stm.Tx: first-committer-wins on the WRITE set only.
// The read set is deliberately not validated — that is the whole
// difference from mvstm, and the source of write skew.
func (t *tx) Commit() error {
	if t.done {
		return stm.ErrAborted
	}
	t.done = true
	if len(t.writes) == 0 {
		return nil
	}
	for !t.tm.lock.CAS(&t.steps, 0, 1) {
	}
	for i := range t.writes {
		head := t.tm.heads[i].Load(&t.steps)
		if head.ver > t.readTS {
			// Someone committed a write to an object WE write since our
			// snapshot: first committer wins, we abort.
			t.tm.lock.Store(&t.steps, 0)
			return stm.ErrAborted
		}
	}
	// Install at clock+1, then publish the clock: a transaction born in
	// between samples the old value and skips every new version, never a
	// torn subset of them.
	wv := t.tm.clock.Load(&t.steps) + 1
	for i, val := range t.writes {
		head := t.tm.heads[i].Load(&t.steps)
		nv := &version{ver: wv, val: val}
		nv.next.Store(head)
		t.tm.heads[i].Store(&t.steps, nv)
	}
	t.tm.clock.Store(&t.steps, wv)
	t.tm.lock.Store(&t.steps, 0)
	return nil
}

// Abort implements stm.Tx.
func (t *tx) Abort() {
	t.done = true
}
