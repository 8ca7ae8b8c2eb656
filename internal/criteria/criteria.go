// Package criteria implements the correctness criteria that the paper's
// Section 3 examines — and rejects — as candidate TM correctness
// conditions: serializability, strict serializability, global atomicity
// (with or without real-time ordering), strict recoverability, and
// rigorous scheduling. Having them executable allows the verdict tables
// of the paper's examples to be regenerated mechanically: e.g. the
// history of Figure 1 satisfies global atomicity and recoverability yet
// is not opaque.
//
// All criteria share the model of internal/history and the sequential
// specifications of internal/spec; the serializability-style ones are
// decided by internal/core's opacity checker on the committed
// projection.
package criteria

import (
	"otm/internal/core"
	"otm/internal/history"
	"otm/internal/spec"
)

// CommittedProjection returns the subsequence of h containing only the
// events of committed transactions — the input to serializability-style
// criteria, which say nothing about live or aborted transactions.
func CommittedProjection(h history.History) history.History {
	committed := make(map[history.TxID]bool)
	for _, tx := range h.CommittedTxs() {
		committed[tx] = true
	}
	var out history.History
	for _, e := range h {
		if committed[e.Tx] {
			out = append(out, e)
		}
	}
	return out
}

// serializable decides the serializability-style criteria on core.Check.
// When every transaction of a history is committed, Complete(H) = {H}
// and Definition 1 asks for exactly a legal sequential equivalent that
// preserves ≺H, so opacity of the committed projection is strict
// serializability of h (the projection keeps the relative order of its
// events, so its ≺ is ≺H restricted to the committed transactions).
// Without real time, commitsLast first erases ≺ altogether.
func serializable(h history.History, objs spec.Objects, realTime bool) (bool, error) {
	// Check sees only the projection, which drops the events of an
	// ill-formed transaction that is not committed.
	if err := h.WellFormed(); err != nil {
		return false, err
	}
	proj := CommittedProjection(h)
	if !realTime {
		proj = commitsLast(proj)
	}
	r, err := core.Check(proj, core.Config{Objects: objs})
	return r.Opaque, err
}

// commitsLast moves every commit event of h to the end, in order. A
// commit is the last event of its transaction, so each H|Ti is
// unchanged; and since no transaction of a well-formed history starts
// with its commit, no transaction completes before another's first
// event: the result has no ≺ pair.
func commitsLast(h history.History) history.History {
	out := make(history.History, 0, len(h))
	for _, e := range h {
		if e.Kind != history.KindCommit {
			out = append(out, e)
		}
	}
	for _, e := range h {
		if e.Kind == history.KindCommit {
			out = append(out, e)
		}
	}
	return out
}

// Serializable reports whether h is serializable (§3.2): all committed
// transactions issue the same operations and receive the same responses
// as in some legal sequential history consisting of exactly those
// transactions. Real-time order is NOT required. objs supplies the object
// semantics (nil = registers initialized to 0); with arbitrary objects
// this is the paper's global atomicity (§3.4), which generalizes
// serializability beyond read/write registers. An ill-formed h gets its
// *history.WellFormedError, not a verdict.
func Serializable(h history.History, objs spec.Objects) (bool, error) {
	return serializable(h, objs, false)
}

// StrictlySerializable reports whether h is serializable in the strict
// sense: the witness sequential history must additionally preserve the
// real-time order ≺H of the committed transactions. An ill-formed h gets
// its *history.WellFormedError, not a verdict.
func StrictlySerializable(h history.History, objs spec.Objects) (bool, error) {
	return serializable(h, objs, true)
}

// GloballyAtomic reports whether h satisfies global atomicity with
// real-time ordering (§3.4 extended as in §5.1): after removing all
// non-committed transactions from h, the result is equivalent to some
// legal sequential history that preserves the real-time order of the
// committed transactions. In this model — which already supports
// arbitrary objects and multiple versions — global atomicity with
// real-time order coincides with strict serializability of the committed
// projection; the function exists to keep the paper's vocabulary. An
// ill-formed h gets its *history.WellFormedError, not a verdict.
func GloballyAtomic(h history.History, objs spec.Objects) (bool, error) {
	return serializable(h, objs, true)
}
