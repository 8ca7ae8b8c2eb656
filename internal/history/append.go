package history

import "fmt"

// Span is one transaction's extent in a history: the indexes of its
// first and last events so far, and whether it has completed (its last
// event is a commit or abort). The real-time order ≺H is a pure function
// of spans — a completed transaction precedes exactly the transactions
// whose first event follows its last — which is why the Appender
// maintains them: consumers that re-check every growing prefix derive
// the ≺H constraints from the maintained spans instead of re-scanning
// the whole event sequence per check. History's ≺H helpers read them
// off a transaction table built in one pass.
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
// without ever re-validating from scratch. Load runs the same machine
// over a whole history in place, for one-shot consumers.
//
// The machine's state is a transaction table — the transactions in
// first-event order, each with its span and the kind of its last event —
// beside which the Appender keeps each transaction's operation
// executions, each event's transaction index and the object list, so
// Transactions, Spans, OpExecs, EventTxs and Objects are O(1) views
// rather than per-call scans — an event changes one transaction's
// entries and at most appends one object, which is what lets a consumer
// re-checking every prefix pay per event for what the event changed.
// Both lists are numberings, so an event finds its transaction (after
// trying the previous event's) and its object by a short scan, and
// through a map only in long lists. The Appender also supports
// Truncate: dropping a fully-completed prefix and re-basing the
// remainder, the history-layer half of checkpointed monitor truncation.
//
// The zero Appender is ready for use; NewAppender returns one.
type Appender struct {
	h History
	// loaded records that h is the history Load was given, capped at its
	// length: nothing may write into its array, so Truncate and Reset drop
	// it rather than reuse it. The first Append reallocates (the cap
	// leaves no room) and clears it.
	loaded bool

	// txTable holds the live transactions in first-event order, with
	// each one's span and the kind of its last event, which is its state
	// in the well-formedness machine.
	txTable
	// execs holds each transaction's operation executions; a pending
	// invocation is its transaction's last execution. Slices past
	// len(execs) are kept for reuse by later transactions.
	execs [][]OpExec
	open  int     // live transactions not yet completed
	evTx  []int32 // each event's index into txs

	objs numbering[ObjID] // objects operated on, in first-appearance order
}

// NewAppender returns an empty Appender.
func NewAppender() *Appender { return new(Appender) }

// Append validates ev against the history built so far and appends it.
// On a well-formedness violation it returns a *WellFormedError (with
// Index set to the position the event would have occupied) and leaves
// the history unchanged, so a monitor can flag the offending event and
// keep its previously validated prefix intact.
func (a *Appender) Append(ev Event) error {
	if err := a.add(&ev, len(a.h)); err != nil {
		return err
	}
	a.h = append(a.h, ev)
	a.loaded = false
	return nil
}

// Load resets the Appender to h: it validates and indexes h's events in
// order, exactly as appending them one by one would, but without copying
// them. History then returns h itself, capped at its length, so a later
// Append reallocates instead of writing into h's array; Truncate and
// Reset drop it the same way, and nothing the Appender does writes into
// h. On an ill-formed h Load returns the *WellFormedError the appends
// would have returned, with the prefix before the offending event
// loaded.
func (a *Appender) Load(h History) error {
	a.Reset()
	a.loaded = true
	for i := range h {
		if err := a.add(&h[i], i); err != nil {
			a.h = h[:i:i]
			return err
		}
	}
	a.h = h[:len(h):len(h)]
	return nil
}

// add runs the well-formedness machine on ev, the event at position i,
// and folds it into the transaction table, operation executions, event
// index and object list; it changes nothing when ev is rejected. The
// caller records ev itself in a.h.
//
// The machine's state for a transaction Ti is the kind of its last
// event. H|Ti must be a prefix of O · F, where O is a sequence of
// operation executions and F is one of ⟨inv, A⟩, ⟨tryA, A⟩, ⟨tryC, C⟩
// or ⟨tryC, A⟩ (paper, §4), so that kind alone decides which events may
// follow. A transaction with no events yet is between operation
// executions, as after a response.
func (a *Appender) add(ev *Event, i int) error {
	var t int32
	if n := len(a.evTx); n > 0 && a.txs.keys[a.evTx[n-1]] == ev.Tx {
		t = a.evTx[n-1]
	} else {
		t = a.txs.find(ev.Tx)
	}
	last := KindRet
	if t >= 0 {
		last = a.last[t]
	}
	switch last {
	case KindCommit:
		return wfErr(i, *ev, "event follows commit event")
	case KindAbort:
		return wfErr(i, *ev, "event follows abort event")
	case KindRet: // between operation executions
		if !ev.Kind.Invocation() {
			return wfErr(i, *ev, "response event with no pending invocation")
		}
	case KindInv: // an operation response is pending
		switch ev.Kind {
		case KindRet:
			// Matched in place against the pending execution; the
			// invocation event is rebuilt only for the error text.
			x := &a.execs[t][len(a.execs[t])-1]
			if x.Obj != ev.Obj || x.Op != ev.Op {
				return wfErr(i, *ev, "response does not match pending invocation "+Inv(ev.Tx, x.Obj, x.Op, x.Arg).String())
			}
			x.Ret, x.Pending = ev.Ret, false
		case KindAbort: // in place of the response
		default:
			return wfErr(i, *ev, "invocation while an operation response is pending")
		}
	case KindTryCommit:
		if ev.Kind != KindCommit && ev.Kind != KindAbort {
			return wfErr(i, *ev, "only commit or abort may follow a commit-try")
		}
	case KindTryAbort:
		if ev.Kind != KindAbort {
			return wfErr(i, *ev, "only abort may follow an abort-try")
		}
	}
	if t < 0 {
		t = a.begin(ev.Tx, i)
	}
	a.record(t, i, ev.Kind)
	switch ev.Kind {
	case KindInv:
		a.execs[t] = append(a.execs[t], OpExec{Tx: ev.Tx, Obj: ev.Obj, Op: ev.Op, Arg: ev.Arg, Pending: true})
		// Invocations suffice: a response is accepted only on its
		// invocation's object.
		if a.objs.find(ev.Obj) < 0 {
			a.objs.push(ev.Obj)
		}
	case KindCommit, KindAbort:
		// An abort in place of an operation response leaves the
		// invocation pending, as History.OpExecs reports it.
		a.open--
	}
	a.evTx = append(a.evTx, t)
	return nil
}

// begin appends transaction tx, whose first event is at position i, to
// the transaction table and returns its index.
func (a *Appender) begin(tx TxID, i int) int32 {
	if n := len(a.execs); n < cap(a.execs) {
		a.execs = a.execs[:n+1]
		a.execs[n] = a.execs[n][:0]
	} else {
		a.execs = append(a.execs, nil)
	}
	a.open++
	return a.txTable.begin(tx, i)
}

// Len returns the number of events appended so far.
func (a *Appender) Len() int { return len(a.h) }

// History returns the history built so far as a view: the slice shares
// the Appender's backing array and stays valid across further Appends
// (they never write below the returned length) but not across Reset or
// Truncate. After Load it is the loaded history itself, capped at its
// length. Use Snapshot for an independent copy.
func (a *Appender) History() History { return a.h }

// Snapshot returns an independent copy of the history built so far.
func (a *Appender) Snapshot() History { return a.h.Clone() }

// Transactions returns the transactions of the history built so far, in
// order of their first event, exactly as History.Transactions would —
// but as an O(1) view of the maintained list instead of an O(events)
// scan. The slice is valid until the next Append, Load, Truncate or
// Reset and must not be mutated.
func (a *Appender) Transactions() []TxID { return a.txs.keys }

// Spans returns the per-transaction spans, indexed like Transactions.
// Same view semantics as Transactions.
func (a *Appender) Spans() []Span { return a.spans }

// OpExecs returns the operation executions of every transaction, indexed
// like Transactions, exactly as History().OpExecs would report each one:
// completed executions in order, then the pending invocation, if any.
// Same view semantics as Transactions; an Append may also complete the
// last execution of a returned slice in place.
func (a *Appender) OpExecs() [][]OpExec { return a.execs }

// EventTxs returns, for every event of History, the index of its
// transaction in Transactions. Same view semantics as Transactions.
func (a *Appender) EventTxs() []int32 { return a.evTx }

// Objects returns the objects operated on in the history built so far,
// in order of first appearance, exactly as History().Objects() would.
// Same view semantics as Transactions.
func (a *Appender) Objects() []ObjID { return a.objs.keys }

// Open returns the number of transactions that have started but not yet
// completed (no commit or abort event). A history with Open() == 0 is a
// quiescent point: every later event belongs to a transaction whose
// first event follows every current transaction's last, so the real-time
// order forces all current transactions before all future ones — the
// stability condition checkpointed truncation relies on.
func (a *Appender) Open() int { return a.open }

// Status returns the status of tx in the history built so far, exactly
// as History.Status would report it, from the maintained last-event kind
// instead of a backward scan.
func (a *Appender) Status(tx TxID) Status {
	if n := len(a.evTx); n > 0 && a.txs.keys[a.evTx[n-1]] == tx {
		return kindStatus(a.last[a.evTx[n-1]])
	}
	if t := a.txs.find(tx); t >= 0 {
		return kindStatus(a.last[t])
	}
	return StatusLive
}

// StatusAt returns the status of the transaction at index i of
// Transactions.
func (a *Appender) StatusAt(i int) Status { return kindStatus(a.last[i]) }

// Complete returns the member of Complete(H) of the history built so
// far in which the commit-pending transaction at index i of
// Transactions commits iff fate[i], and every other live transaction
// aborts; fate's entries for other transactions are ignored. Its events
// are History's followed by the completion events of each live
// transaction, in transaction order — exactly what History.CompleteWith
// returns for the same fates. When no transaction is live the result is
// History itself, not a copy.
func (a *Appender) Complete(fate []bool) History {
	if a.open == 0 {
		return a.h
	}
	out := make(History, len(a.h), len(a.h)+2*a.open)
	copy(out, a.h)
	for t, k := range a.last {
		if !completes(k) {
			out = appendCompletion(out, a.txs.keys[t], k, k == KindTryCommit && fate[t])
		}
	}
	return out
}

// Truncate drops the first n events and re-bases the remainder as a
// standalone history, as if only events n.. had ever been appended. The
// cut must be stable: no transaction may have events on both sides, and
// every transaction entirely inside the dropped prefix must have
// completed — Truncate returns an error (and changes nothing) otherwise.
//
// Dropped transactions are forgotten entirely, including their commit
// or abort events: a later event reusing a dropped transaction's identifier is
// treated as a fresh transaction rather than rejected as following a
// commit/abort. Bounding monitor state requires forgetting; a correct TM
// never reuses transaction identifiers (the model gives retries fresh
// ones), so only already-buggy streams can exploit the blind spot.
//
// Histories previously returned by History become invalid, as with
// Reset; Snapshot copies are unaffected. A loaded history is never
// written to: its remainder is copied.
func (a *Appender) Truncate(n int) error {
	if n < 0 || n > len(a.h) {
		return fmt.Errorf("history: truncate %d of %d events", n, len(a.h))
	}
	if n == 0 {
		return nil
	}
	// Transactions are in first-event order, so the ones the cut drops
	// are a prefix of the list: the d that start before n.
	d := 0
	for ; d < len(a.spans) && a.spans[d].First < n; d++ {
		if sp := a.spans[d]; sp.Last >= n || !sp.Completed {
			return fmt.Errorf("history: truncation at %d is not a stable cut: T%d spans it or is incomplete",
				n, int(a.txs.keys[d]))
		}
	}
	if a.loaded {
		a.h = append(History(nil), a.h[n:]...)
		a.loaded = false
	} else {
		a.h = append(a.h[:0], a.h[n:]...)
	}
	a.txs.dropFirst(d)
	kept := len(a.txs.keys)
	copy(a.last, a.last[d:])
	copy(a.spans, a.spans[d:])
	for t := range kept {
		a.spans[t].First -= n
		a.spans[t].Last -= n
		// Swap rather than overwrite, so the dropped transactions'
		// slices stay past the new length for reuse.
		a.execs[t], a.execs[t+d] = a.execs[t+d], a.execs[t]
	}
	a.last = a.last[:kept]
	a.spans = a.spans[:kept]
	a.execs = a.execs[:kept]
	a.evTx = a.evTx[:copy(a.evTx, a.evTx[n:])]
	for i := range a.evTx {
		a.evTx[i] -= int32(d)
	}
	a.objs.reset()
	for i := range a.h {
		if a.h[i].Kind == KindInv {
			a.objs.add(a.h[i].Obj)
		}
	}
	return nil
}

// Reset discards the history and all transaction state, retaining the
// allocated capacity for reuse — except a loaded history's array, which
// is dropped. Histories previously returned by History become invalid;
// Snapshot copies are unaffected.
func (a *Appender) Reset() {
	if a.loaded {
		a.h, a.loaded = nil, false
	} else {
		a.h = a.h[:0]
	}
	a.txs.reset()
	a.last = a.last[:0]
	a.spans = a.spans[:0]
	a.execs = a.execs[:0]
	a.evTx = a.evTx[:0]
	a.open = 0
	a.objs.reset()
}
