package history

import "fmt"

// txPhase is the per-transaction state machine used to decide
// well-formedness. For every transaction Ti, H|Ti must be a prefix of
// O · F where O is a sequence of operation executions and F is one of
// ⟨inv, A⟩, ⟨tryA, A⟩, ⟨tryC, C⟩ or ⟨tryC, A⟩ (paper, §4).
type txPhase uint8

const (
	phaseIdle          txPhase = iota // between operation executions
	phaseOpPending                    // operation invoked, response pending
	phaseCommitPending                // tryC issued, C/A pending
	phaseAbortPending                 // tryA issued, A pending
	phaseCommitted
	phaseAborted
)

// status returns the status of a transaction in phase p.
func (p txPhase) status() Status {
	switch p {
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

// lastKind returns the kind of the last event of a transaction in phase
// p, the one fact its completion depends on: each phase is entered by
// exactly one kind (idle by a response, or by no event at all, which
// completes alike).
func (p txPhase) lastKind() Kind {
	return [...]Kind{KindRet, KindInv, KindTryCommit, KindTryAbort, KindCommit, KindAbort}[p]
}

// WellFormedError describes the first well-formedness violation found in
// a history.
type WellFormedError struct {
	Index int   // position of the offending event in the history
	Ev    Event // the offending event
	Msg   string
}

func (e *WellFormedError) Error() string {
	return fmt.Sprintf("history not well-formed at event %d (%s): %s", e.Index, e.Ev, e.Msg)
}

// wfErr builds the error for one offending event.
func wfErr(i int, e Event, msg string) error {
	return &WellFormedError{Index: i, Ev: e, Msg: msg}
}

// WellFormed checks that h is a well-formed history and returns a
// *WellFormedError describing the first violation, or nil. The rules,
// from §4 of the paper, applied to each H|Ti independently:
//
//   - events strictly alternate invocation / matching response;
//   - no event follows a commit or abort event;
//   - only a commit or abort event can follow a commit-try event;
//   - only an abort event can follow an abort-try event;
//   - an abort event may arrive in place of an operation response.
//
// The decision is the Appender's: h is loaded into a fresh one, and its
// first rejection is the error.
func (h History) WellFormed() error {
	var a Appender
	return a.Load(h)
}

// MustWellFormed panics if h is not well-formed. It is intended for test
// fixtures and example construction where malformed histories are
// programming errors.
func (h History) MustWellFormed() History {
	if err := h.WellFormed(); err != nil {
		panic(err)
	}
	return h
}
