package stm

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"

	"otm/internal/history"
)

// ObjName maps object index i to the history object identifier used by
// the recorder ("r0", "r1", ...).
func ObjName(i int) history.ObjID {
	if 0 <= i && i < len(objNames) {
		return objNames[i]
	}
	return objNameOf(i)
}

// objNames holds ObjName's names for small indexes, so recording a read
// or a write formats nothing.
var objNames = func() (names [256]history.ObjID) {
	for i := range names {
		names[i] = objNameOf(i)
	}
	return names
}()

func objNameOf(i int) history.ObjID {
	return history.ObjID("r" + strconv.Itoa(i))
}

// Recorder wraps a TM and logs every transactional event of every
// transaction into a single totally-ordered history. The interleaving is
// faithful: each invocation event is appended (under the recorder's
// mutex) immediately before the engine processes the operation, and each
// response event immediately after — so the recorded order is a legal
// linearization of the real-time order of the run, exactly the "history"
// of the paper's model.
//
// Recorded histories can then be fed to internal/core.Check: a correct
// engine must only ever produce opaque histories.
//
// Every event goes to exactly one place: the tap, while one is set (see
// Tap), or the recorder's own history otherwise. A tapped recorder keeps
// nothing, so a run monitored for its whole length costs the recorder no
// memory however long it runs; the monitor decides what to retain.
type Recorder struct {
	inner TM

	mu     sync.Mutex
	h      history.History
	tap    func(history.Event)
	gate   func()
	nextTx atomic.Int64
}

// NewRecorder wraps tm. The returned Recorder is itself a TM.
func NewRecorder(tm TM) *Recorder {
	return &Recorder{inner: tm}
}

// Name implements TM.
func (r *Recorder) Name() string { return r.inner.Name() + "+rec" }

// Len implements TM.
func (r *Recorder) Len() int { return r.inner.Len() }

// Begin implements TM, assigning the new transaction the next history
// identifier T1, T2, ... A registered gate (see Gate) runs first, with
// no lock held, and may block the start of the transaction.
func (r *Recorder) Begin() Tx {
	r.mu.Lock()
	gate := r.gate
	r.mu.Unlock()
	if gate != nil {
		gate()
	}
	id := history.TxID(r.nextTx.Add(1))
	return &recTx{rec: r, id: id, inner: r.inner.Begin()}
}

// Gate registers fn to run at the start of every subsequent Begin,
// before the underlying engine is consulted and with no recorder lock
// held. A monitor uses it for admission control: blocking inside fn
// delays the start of NEW transactions without impeding the events of
// transactions already running — those never pass the gate, so whatever
// quiescent point fn is waiting for remains reachable. Contrast Tap,
// which runs under the recorder mutex and must never block. A nil fn
// removes the gate.
func (r *Recorder) Gate(fn func()) {
	r.mu.Lock()
	r.gate = fn
	r.mu.Unlock()
}

// History returns a snapshot of the recorded history: the events
// recorded while no tap was set, in recording order. Events handed to a
// tap are not in it, so a recorder tapped from its first event returns
// an empty history. For a run monitored through monitor.Attach, the
// retained history is the session's (monitor.Session.History).
func (r *Recorder) History() history.History {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.h.Clone()
}

// Tap registers fn to receive every subsequently recorded event, in
// recording order, in place of the recorder's own history: while a tap
// is set, History does not grow. fn runs while the recorder's mutex is
// held, so it sees exactly the total order of the run with no gaps or
// reorderings — the property an online opacity monitor needs — but it
// also serializes every transactional operation for its duration: keep
// it cheap (enqueue, not check) unless stop-the-world semantics are
// wanted, and never call back into the Recorder from inside it. A nil
// fn removes the tap, and recording into History resumes.
func (r *Recorder) Tap(fn func(history.Event)) {
	r.mu.Lock()
	r.tap = fn
	r.mu.Unlock()
}

func (r *Recorder) append(evs ...history.Event) {
	r.mu.Lock()
	if r.tap != nil {
		for _, e := range evs {
			r.tap(e)
		}
	} else {
		r.h = append(r.h, evs...)
	}
	r.mu.Unlock()
}

// recTx interposes on every operation of one transaction.
type recTx struct {
	rec   *Recorder
	id    history.TxID
	inner Tx
	done  bool
}

// Read implements Tx, recording inv/ret (or inv/A on forceful abort).
func (t *recTx) Read(i int) (int, error) {
	if t.done {
		return 0, ErrAborted
	}
	ob := ObjName(i)
	t.rec.append(history.Inv(t.id, ob, "read", nil))
	v, err := t.inner.Read(i)
	if err != nil {
		t.done = true
		t.rec.append(history.Abort(t.id))
		return 0, err
	}
	t.rec.append(history.Ret(t.id, ob, "read", v))
	return v, nil
}

// Write implements Tx.
func (t *recTx) Write(i int, v int) error {
	if t.done {
		return ErrAborted
	}
	ob := ObjName(i)
	t.rec.append(history.Inv(t.id, ob, "write", v))
	if err := t.inner.Write(i, v); err != nil {
		t.done = true
		t.rec.append(history.Abort(t.id))
		return err
	}
	t.rec.append(history.Ret(t.id, ob, "write", history.OK))
	return nil
}

// Commit implements Tx, recording tryC then C or A.
func (t *recTx) Commit() error {
	if t.done {
		return ErrAborted
	}
	t.done = true
	t.rec.append(history.TryC(t.id))
	err := t.inner.Commit()
	if err == nil {
		t.rec.append(history.Commit(t.id))
		return nil
	}
	if errors.Is(err, ErrAborted) {
		t.rec.append(history.Abort(t.id))
	}
	return err
}

// Abort implements Tx, recording tryA, A.
func (t *recTx) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.rec.append(history.TryA(t.id), history.Abort(t.id))
	t.inner.Abort()
}

// Steps implements Tx.
func (t *recTx) Steps() int64 { return t.inner.Steps() }
