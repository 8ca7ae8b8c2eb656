package history

import "fmt"

// Span is one transaction's extent in a history: the indexes of its
// first and last events so far, and whether it has completed (its last
// event is a commit or abort). The real-time order ≺H is a pure function
// of spans — a completed transaction precedes exactly the transactions
// whose first event follows its last — which is why the Appender
// maintains them: consumers that re-check every growing prefix derive
// the ≺H constraints from the maintained spans instead of re-scanning
// the whole event sequence per check.
type Span struct {
	First, Last int
	Completed   bool
}

// Appender grows a history one event at a time while maintaining
// well-formedness incrementally: Append rejects (and does not record) any
// event that would make the history ill-formed, paying O(1) per event
// instead of re-scanning the whole history. Its per-transaction state
// machine is the package's one decision procedure for well-formedness:
// WellFormed runs it too. It is the append-driven counterpart of
// Builder, built for consumers that interleave appends with checks on
// the growing history — the online opacity monitor taps a live STM run
// into one Appender and hands every prefix to the incremental checker
// without ever re-validating from scratch.
//
// Alongside the phase machine the Appender maintains the transaction
// list (first-event order), per-transaction spans and operation
// executions, and the object list, so Transactions, Spans, OpExecs and
// Objects are O(1) views rather than per-call scans — an event changes
// one transaction's entries and at most appends one object, which is
// what lets a consumer re-checking every prefix pay per event for what
// the event changed. It also supports Truncate: dropping a
// fully-completed prefix and re-basing the remainder, the history-layer
// half of checkpointed monitor truncation.
//
// The zero Appender is not ready for use; call NewAppender.
type Appender struct {
	h      History
	phases map[TxID]txPhase

	txs     []TxID         // live transactions, in first-event order
	spanIdx map[TxID]int32 // index into txs/spans/execs
	spans   []Span
	// execs holds each transaction's operation executions; a pending
	// invocation is its transaction's last execution. Slices past
	// len(execs) are kept for reuse by later transactions.
	execs [][]OpExec
	open  int // live transactions not yet completed

	objs    []ObjID // objects operated on, in first-appearance order
	objSeen map[ObjID]struct{}
}

// NewAppender returns an empty Appender.
func NewAppender() *Appender {
	return &Appender{
		phases:  make(map[TxID]txPhase),
		spanIdx: make(map[TxID]int32),
		objSeen: make(map[ObjID]struct{}),
	}
}

// Append validates ev against the history built so far and appends it.
// On a well-formedness violation it returns a *WellFormedError (with
// Index set to the position the event would have occupied) and leaves
// the history unchanged, so a monitor can flag the offending event and
// keep its previously validated prefix intact.
func (a *Appender) Append(ev Event) error {
	i := len(a.h)
	switch a.phases[ev.Tx] {
	case phaseCommitted:
		return wfErr(i, ev, "event follows commit event")
	case phaseAborted:
		return wfErr(i, ev, "event follows abort event")
	case phaseIdle:
		switch ev.Kind {
		case KindInv:
			a.phases[ev.Tx] = phaseOpPending
		case KindTryCommit:
			a.phases[ev.Tx] = phaseCommitPending
		case KindTryAbort:
			a.phases[ev.Tx] = phaseAbortPending
		default:
			return wfErr(i, ev, "response event with no pending invocation")
		}
	case phaseOpPending:
		switch ev.Kind {
		case KindRet:
			if inv := a.pending(ev.Tx); !Matches(inv, ev) {
				return wfErr(i, ev, "response does not match pending invocation "+inv.String())
			}
			a.phases[ev.Tx] = phaseIdle
		case KindAbort:
			a.phases[ev.Tx] = phaseAborted
		default:
			return wfErr(i, ev, "invocation while an operation response is pending")
		}
	case phaseCommitPending:
		switch ev.Kind {
		case KindCommit:
			a.phases[ev.Tx] = phaseCommitted
		case KindAbort:
			a.phases[ev.Tx] = phaseAborted
		default:
			return wfErr(i, ev, "only commit or abort may follow a commit-try")
		}
	case phaseAbortPending:
		if ev.Kind != KindAbort {
			return wfErr(i, ev, "only abort may follow an abort-try")
		}
		a.phases[ev.Tx] = phaseAborted
	}
	a.record(ev, i)
	a.h = append(a.h, ev)
	return nil
}

// pending returns the invocation event of tx's pending operation, which
// is its last execution. Only valid while tx is op-pending.
func (a *Appender) pending(tx TxID) Event {
	ex := a.execs[a.spanIdx[tx]]
	e := ex[len(ex)-1]
	return Inv(tx, e.Obj, e.Op, e.Arg)
}

// record folds one accepted event into the transaction list, spans,
// operation executions and object list.
func (a *Appender) record(ev Event, i int) {
	t, ok := a.spanIdx[ev.Tx]
	if !ok {
		t = int32(len(a.txs))
		a.spanIdx[ev.Tx] = t
		a.txs = append(a.txs, ev.Tx)
		a.spans = append(a.spans, Span{First: i})
		if n := len(a.execs); n < cap(a.execs) {
			a.execs = a.execs[:n+1]
			a.execs[n] = a.execs[n][:0]
		} else {
			a.execs = append(a.execs, nil)
		}
		a.open++
	}
	sp := &a.spans[t]
	sp.Last = i
	switch ev.Kind {
	case KindInv:
		a.execs[t] = append(a.execs[t], OpExec{Tx: ev.Tx, Obj: ev.Obj, Op: ev.Op, Arg: ev.Arg, Pending: true})
		a.addObject(ev.Obj)
	case KindRet:
		e := &a.execs[t][len(a.execs[t])-1]
		e.Ret, e.Pending = ev.Ret, false
	case KindCommit, KindAbort:
		// An abort in place of an operation response leaves the
		// invocation pending, as History.OpExecs reports it.
		sp.Completed = true
		a.open--
	}
}

// addObject appends ob to the object list unless it is already there.
// Invocations suffice: a response is accepted only on its invocation's
// object.
func (a *Appender) addObject(ob ObjID) {
	if _, ok := a.objSeen[ob]; !ok {
		a.objSeen[ob] = struct{}{}
		a.objs = append(a.objs, ob)
	}
}

// Len returns the number of events appended so far.
func (a *Appender) Len() int { return len(a.h) }

// History returns the history built so far as a view: the slice shares
// the Appender's backing array and stays valid across further Appends
// (they never write below the returned length) but not across Reset or
// Truncate. Use Snapshot for an independent copy.
func (a *Appender) History() History { return a.h }

// Snapshot returns an independent copy of the history built so far.
func (a *Appender) Snapshot() History { return a.h.Clone() }

// Transactions returns the transactions of the history built so far, in
// order of their first event, exactly as History.Transactions would —
// but as an O(1) view of the maintained list instead of an O(events)
// scan. The slice is valid until the next Append, Truncate or Reset and
// must not be mutated.
func (a *Appender) Transactions() []TxID { return a.txs }

// Spans returns the per-transaction spans, indexed like Transactions.
// Same view semantics as Transactions.
func (a *Appender) Spans() []Span { return a.spans }

// OpExecs returns the operation executions of every transaction, indexed
// like Transactions, exactly as History().OpExecs would report each one:
// completed executions in order, then the pending invocation, if any.
// Same view semantics as Transactions; an Append may also complete the
// last execution of a returned slice in place.
func (a *Appender) OpExecs() [][]OpExec { return a.execs }

// Objects returns the objects operated on in the history built so far,
// in order of first appearance, exactly as History().Objects() would.
// Same view semantics as Transactions.
func (a *Appender) Objects() []ObjID { return a.objs }

// Open returns the number of transactions that have started but not yet
// completed (no commit or abort event). A history with Open() == 0 is a
// quiescent point: every later event belongs to a transaction whose
// first event follows every current transaction's last, so the real-time
// order forces all current transactions before all future ones — the
// stability condition checkpointed truncation relies on.
func (a *Appender) Open() int { return a.open }

// Status returns the status of tx in the history built so far, exactly
// as History.Status would report it, but in O(1) from the maintained
// phase instead of a backward scan.
func (a *Appender) Status(tx TxID) Status {
	switch a.phases[tx] {
	case phaseCommitPending:
		return StatusCommitPending
	case phaseCommitted:
		return StatusCommitted
	case phaseAborted:
		return StatusAborted
	default:
		return StatusLive
	}
}

// Truncate drops the first n events and re-bases the remainder as a
// standalone history, as if only events n.. had ever been appended. The
// cut must be stable: no transaction may have events on both sides, and
// every transaction entirely inside the dropped prefix must have
// completed — Truncate returns an error (and changes nothing) otherwise.
//
// Dropped transactions are forgotten entirely, including their terminal
// phases: a later event reusing a dropped transaction's identifier is
// treated as a fresh transaction rather than rejected as following a
// commit/abort. Bounding monitor state requires forgetting; a correct TM
// never reuses transaction identifiers (the model gives retries fresh
// ones), so only already-buggy streams can exploit the blind spot.
//
// Histories previously returned by History become invalid, as with
// Reset; Snapshot copies are unaffected.
func (a *Appender) Truncate(n int) error {
	if n < 0 || n > len(a.h) {
		return fmt.Errorf("history: truncate %d of %d events", n, len(a.h))
	}
	if n == 0 {
		return nil
	}
	for t, sp := range a.spans {
		if sp.First < n && (sp.Last >= n || !sp.Completed) {
			return fmt.Errorf("history: truncation at %d is not a stable cut: T%d spans it or is incomplete",
				n, int(a.txs[t]))
		}
	}
	a.h = append(a.h[:0], a.h[n:]...)
	keep := 0
	for t, sp := range a.spans {
		tx := a.txs[t]
		if sp.First < n {
			delete(a.spanIdx, tx)
			delete(a.phases, tx)
			continue
		}
		a.txs[keep] = tx
		a.spans[keep] = Span{First: sp.First - n, Last: sp.Last - n, Completed: sp.Completed}
		// Swap rather than overwrite, so the dropped transaction's
		// slice stays past the new length for reuse.
		a.execs[keep], a.execs[t] = a.execs[t], a.execs[keep]
		a.spanIdx[tx] = int32(keep)
		keep++
	}
	a.txs = a.txs[:keep]
	a.spans = a.spans[:keep]
	a.execs = a.execs[:keep]
	a.objs = a.objs[:0]
	clear(a.objSeen)
	for _, ev := range a.h {
		if ev.Kind == KindInv {
			a.addObject(ev.Obj)
		}
	}
	return nil
}

// Reset discards the history and all transaction state, retaining the
// allocated capacity for reuse. Histories previously returned by History
// become invalid; Snapshot copies are unaffected.
func (a *Appender) Reset() {
	a.h = a.h[:0]
	clear(a.phases)
	a.txs = a.txs[:0]
	a.spans = a.spans[:0]
	a.execs = a.execs[:0]
	clear(a.spanIdx)
	a.open = 0
	a.objs = a.objs[:0]
	clear(a.objSeen)
}
