// Package history implements the formal model of transactional-memory
// histories from Guerraoui & Kapałka, "On the Correctness of
// Transactional Memory" (PPoPP 2008), Section 4.
//
// A history is the sequence of all invocation and response events issued
// and received by transactions in a given execution. The package provides
// the model's basic vocabulary: events, projections (H|Ti, H|ob),
// well-formedness, equivalence, transaction status, the real-time order
// ≺H, sequential and complete histories, and the set Complete(H) of
// completions of a history.
//
// The package is purely descriptive: it says nothing about whether a
// history is correct. Correctness criteria (opacity and the weaker
// criteria of the paper's Section 3) are built on top of this package by
// internal/core, internal/opg and internal/criteria.
package history

import "fmt"

// TxID identifies a transaction. Transaction identifiers are unique per
// history; retrying an aborted transaction is modelled as a new
// transaction with a fresh identifier (paper, §4). By convention T0 is
// reserved for an initializing transaction when the graph
// characterization of §5.4 is used.
type TxID int

// ObjID identifies a shared object, e.g. "x" or "y".
type ObjID string

// Value is the type of operation arguments and return values. Values
// stored in events must be comparable with == (ints, strings, booleans,
// comparable structs); histories containing non-comparable values have
// undefined equality semantics.
type Value = any

// OK is the conventional return value of operations that always succeed,
// such as a register write (the paper's "ok").
const OK = "ok"

// Kind distinguishes the six kinds of transactional events of the model.
type Kind int

const (
	// KindInv is an operation invocation event inv_i(ob, op, args).
	KindInv Kind = iota
	// KindRet is an operation response event ret_i(ob, op, val).
	KindRet
	// KindTryCommit is a commit-try event tryC_i.
	KindTryCommit
	// KindTryAbort is an abort-try event tryA_i.
	KindTryAbort
	// KindCommit is a commit event C_i.
	KindCommit
	// KindAbort is an abort event A_i.
	KindAbort
)

// String returns the conventional short name of the event kind.
func (k Kind) String() string {
	switch k {
	case KindInv:
		return "inv"
	case KindRet:
		return "ret"
	case KindTryCommit:
		return "tryC"
	case KindTryAbort:
		return "tryA"
	case KindCommit:
		return "C"
	case KindAbort:
		return "A"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Invocation reports whether k is an invocation event (operation
// invocation, commit-try or abort-try). Invocation events are initiated
// by transactions; response events by the TM.
func (k Kind) Invocation() bool {
	return k == KindInv || k == KindTryCommit || k == KindTryAbort
}

// Response reports whether k is a response event (operation response,
// commit or abort).
func (k Kind) Response() bool { return !k.Invocation() }

// Event is a single transactional event. Obj, Op, Arg and Ret are
// meaningful only for the kinds that carry them: Obj/Op/Arg for KindInv,
// Obj/Op/Ret for KindRet; the remaining kinds use none of them.
type Event struct {
	Kind Kind
	Tx   TxID
	Obj  ObjID
	Op   string
	Arg  Value
	Ret  Value
}

// Inv constructs an operation invocation event inv_tx(obj, op, arg).
func Inv(tx TxID, obj ObjID, op string, arg Value) Event {
	return Event{Kind: KindInv, Tx: tx, Obj: obj, Op: op, Arg: arg}
}

// Ret constructs an operation response event ret_tx(obj, op, ret).
func Ret(tx TxID, obj ObjID, op string, ret Value) Event {
	return Event{Kind: KindRet, Tx: tx, Obj: obj, Op: op, Ret: ret}
}

// TryC constructs a commit-try event tryC_tx.
func TryC(tx TxID) Event { return Event{Kind: KindTryCommit, Tx: tx} }

// TryA constructs an abort-try event tryA_tx.
func TryA(tx TxID) Event { return Event{Kind: KindTryAbort, Tx: tx} }

// Commit constructs a commit event C_tx.
func Commit(tx TxID) Event { return Event{Kind: KindCommit, Tx: tx} }

// Abort constructs an abort event A_tx.
func Abort(tx TxID) Event { return Event{Kind: KindAbort, Tx: tx} }

// Matches reports whether response event r matches invocation event e:
// same transaction and, for operations, the same object and operation. A
// commit event matches a commit-try; an abort event matches any pending
// invocation (an operation invocation, an abort-try, or a commit-try),
// per the paper's well-formedness rules.
func Matches(e, r Event) bool {
	if e.Tx != r.Tx || !e.Kind.Invocation() || !r.Kind.Response() {
		return false
	}
	switch e.Kind {
	case KindInv:
		return (r.Kind == KindRet && r.Obj == e.Obj && r.Op == e.Op) || r.Kind == KindAbort
	case KindTryCommit:
		return r.Kind == KindCommit || r.Kind == KindAbort
	case KindTryAbort:
		return r.Kind == KindAbort
	}
	return false
}

// History is a finite sequence of transactional events, totally ordered
// by the time at which they were issued (simultaneous events may be
// ordered arbitrarily). The zero value is the empty history.
type History []Event

// Clone returns a copy of h that shares no storage with h.
func (h History) Clone() History {
	out := make(History, len(h))
	copy(out, h)
	return out
}

// Append returns h with the given events appended (h itself is not
// modified if its backing array lacks capacity; callers should use the
// return value).
func (h History) Append(evs ...Event) History {
	return append(h.Clone(), evs...)
}

// Concat returns the concatenation h · h2.
func (h History) Concat(h2 History) History {
	out := make(History, 0, len(h)+len(h2))
	out = append(out, h...)
	out = append(out, h2...)
	return out
}

// OpExec is an operation execution: a pair of an operation invocation
// event and its matching operation response event
// exec_i(ob, op, args, val). If Pending is true the response event is
// missing (the invocation is pending at the end of the history) and Ret
// is meaningless.
type OpExec struct {
	Tx      TxID
	Obj     ObjID
	Op      string
	Arg     Value
	Ret     Value
	Pending bool
}
