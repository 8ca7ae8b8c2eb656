package history

import "fmt"

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
