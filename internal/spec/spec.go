// Package spec implements sequential specifications of shared objects
// (paper, §4, "Sequential specification of a shared object").
//
// A sequential specification Seq(ob) is a prefix-closed set of
// object-local histories. This package represents such sets operationally
// as immutable state machines: a State accepts or rejects one operation
// execution at a time, returning the successor state. A sequence of
// operation executions is in Seq(ob) iff the state machine accepts every
// execution in order starting from the object's initial state. Sequences
// ending with a pending invocation are always in Seq(ob) when their
// completed prefix is (the paper notes this as "a minor detail"); callers
// therefore only feed completed executions to Step.
//
// States are immutable values: Step returns a new State and never mutates
// the receiver. This makes cloning free and lets correctness checkers
// backtrack and memoize cheaply (see State.Key).
package spec

import (
	"strings"

	"otm/internal/history"
)

// Value is the type of operation arguments and return values, re-exported
// from the history model for convenience.
type Value = history.Value

// OK is the conventional return value of always-succeeding mutators.
const OK = history.OK

// State is one state of an object's sequential specification.
type State interface {
	// Name returns the object type name, e.g. "register" or "counter".
	Name() string

	// Step checks one operation execution against the specification in
	// this state. It returns the successor state and true if the
	// execution (operation op called with argument arg returning ret) is
	// allowed here, or an unspecified state and false otherwise.
	Step(op string, arg, ret Value) (State, bool)

	// Key returns a fingerprint of the state: two states of the same
	// object with equal keys accept exactly the same continuations. Used
	// by checkers to memoize search states.
	Key() string
}

// Objects maps each shared object of a history to the initial state of
// its sequential specification. It is the "input parameter to the TM
// correctness criterion" that §3.4 calls for: the semantics of the
// objects is supplied alongside the history, not baked into the
// criterion.
type Objects map[history.ObjID]State

// Registers returns an Objects map giving every listed object a register
// specification with the given initial value — the common case in the
// paper's examples, where all shared objects are read/write registers.
func Registers(initial Value, ids ...history.ObjID) Objects {
	out := make(Objects, len(ids))
	for _, id := range ids {
		out[id] = NewRegister(initial)
	}
	return out
}

// ParseCounters builds the object environment a comma-separated list of
// object names describes — the -counter flag of the CLIs and the counter
// list of a distributed run's manifest: each named object is a counter
// initialized to 0, and everything else defaults to a register inside
// the checkers. Blank names are skipped.
func ParseCounters(list string) Objects {
	objs := Objects{}
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); name != "" {
			objs[history.ObjID(name)] = NewCounter(0)
		}
	}
	return objs
}

// RegistersFor returns register specifications (initial value zero) for
// every object appearing in h. This is the default object environment
// used by checkers when the caller supplies none.
func RegistersFor(h history.History, initial Value) Objects {
	out := make(Objects)
	for _, id := range h.Objects() {
		out[id] = NewRegister(initial)
	}
	return out
}

// Clone returns a shallow copy of the map. States themselves are
// immutable and shared.
func (o Objects) Clone() Objects {
	out := make(Objects, len(o))
	for k, v := range o {
		out[k] = v
	}
	return out
}
