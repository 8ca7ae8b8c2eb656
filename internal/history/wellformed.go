package history

import "fmt"

// txPhase is the per-transaction state machine used to decide
// well-formedness. For every transaction Ti, H|Ti must be a prefix of
// O · F where O is a sequence of operation executions and F is one of
// ⟨inv, A⟩, ⟨tryA, A⟩, ⟨tryC, C⟩ or ⟨tryC, A⟩ (paper, §4).
type txPhase int

const (
	phaseIdle          txPhase = iota // between operation executions
	phaseOpPending                    // operation invoked, response pending
	phaseCommitPending                // tryC issued, C/A pending
	phaseAbortPending                 // tryA issued, A pending
	phaseCommitted
	phaseAborted
)

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

// wfErr builds the error for one offending event. A plain function, not
// a per-event closure: WellFormed and Appender.Append, which the
// checkers run, share it.
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
func (h History) WellFormed() error {
	// Per-transaction state lives in small parallel slices scanned
	// linearly — for the transaction counts of checkable histories a
	// map (and the per-event closure the previous implementation
	// allocated for its error path) costs more than the scan.
	txs := make([]TxID, 0, 8)
	phases := make([]txPhase, 0, 8)
	pendings := make([]Event, 0, 8)
	for i, e := range h {
		t := indexOfTx(txs, e.Tx)
		if t < 0 {
			if len(txs) == 32 {
				// Enough transactions to make the linear scan
				// quadratic; restart on the map-based path.
				return h.wellFormedMap()
			}
			t = len(txs)
			txs = append(txs, e.Tx)
			phases = append(phases, phaseIdle)
			pendings = append(pendings, Event{})
		}
		p := phases[t]
		switch p {
		case phaseCommitted:
			return wfErr(i, e, "event follows commit event")
		case phaseAborted:
			return wfErr(i, e, "event follows abort event")
		case phaseIdle:
			switch e.Kind {
			case KindInv:
				phases[t] = phaseOpPending
				pendings[t] = e
			case KindTryCommit:
				phases[t] = phaseCommitPending
			case KindTryAbort:
				phases[t] = phaseAbortPending
			default:
				return wfErr(i, e, "response event with no pending invocation")
			}
		case phaseOpPending:
			switch e.Kind {
			case KindRet:
				if !Matches(pendings[t], e) {
					return wfErr(i, e, fmt.Sprintf("response does not match pending invocation %s", pendings[t]))
				}
				phases[t] = phaseIdle
			case KindAbort:
				phases[t] = phaseAborted
			default:
				return wfErr(i, e, "invocation while an operation response is pending")
			}
		case phaseCommitPending:
			switch e.Kind {
			case KindCommit:
				phases[t] = phaseCommitted
			case KindAbort:
				phases[t] = phaseAborted
			default:
				return wfErr(i, e, "only commit or abort may follow a commit-try")
			}
		case phaseAbortPending:
			if e.Kind != KindAbort {
				return wfErr(i, e, "only abort may follow an abort-try")
			}
			phases[t] = phaseAborted
		}
	}
	return nil
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

// wellFormedMap is WellFormed with map-backed per-transaction state, for
// histories with too many transactions for the linear fast path.
func (h History) wellFormedMap() error {
	phases := make(map[TxID]txPhase)
	pendings := make(map[TxID]Event)
	for i, e := range h {
		switch phases[e.Tx] {
		case phaseCommitted:
			return wfErr(i, e, "event follows commit event")
		case phaseAborted:
			return wfErr(i, e, "event follows abort event")
		case phaseIdle:
			switch e.Kind {
			case KindInv:
				phases[e.Tx] = phaseOpPending
				pendings[e.Tx] = e
			case KindTryCommit:
				phases[e.Tx] = phaseCommitPending
			case KindTryAbort:
				phases[e.Tx] = phaseAbortPending
			default:
				return wfErr(i, e, "response event with no pending invocation")
			}
		case phaseOpPending:
			switch e.Kind {
			case KindRet:
				if !Matches(pendings[e.Tx], e) {
					return wfErr(i, e, fmt.Sprintf("response does not match pending invocation %s", pendings[e.Tx]))
				}
				phases[e.Tx] = phaseIdle
			case KindAbort:
				phases[e.Tx] = phaseAborted
			default:
				return wfErr(i, e, "invocation while an operation response is pending")
			}
		case phaseCommitPending:
			switch e.Kind {
			case KindCommit:
				phases[e.Tx] = phaseCommitted
			case KindAbort:
				phases[e.Tx] = phaseAborted
			default:
				return wfErr(i, e, "only commit or abort may follow a commit-try")
			}
		case phaseAbortPending:
			if e.Kind != KindAbort {
				return wfErr(i, e, "only abort may follow an abort-try")
			}
			phases[e.Tx] = phaseAborted
		}
	}
	return nil
}
