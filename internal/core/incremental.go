package core

import (
	"fmt"

	"otm/internal/history"
	"otm/internal/spec"
)

// IncrementalResult is the running verdict of an Incremental checker: it
// covers every event appended so far (including trailing invocation
// events — an invocation alone can never introduce a violation its
// response would not, see the skip-rule notes on Incremental).
type IncrementalResult struct {
	// Opaque reports whether every prefix observed so far is opaque.
	// Once false it stays false: the monitor semantics of
	// FirstNonOpaquePrefix, which flag the first prefix a correct TM
	// could never have emitted (Definition 1 itself is not
	// prefix-closed; see TestOpacityNotPrefixClosed).
	Opaque bool
	// PrefixLen is the length of the shortest non-opaque prefix, or -1
	// while Opaque.
	PrefixLen int
	// Events is the number of events appended.
	Events int
	// Nodes is the total number of search nodes explored across all
	// appends (witness revalidations explore none).
	Nodes int
	// FastPath counts the checks resolved by revalidating the previous
	// prefix's witness against the extended history — no search at all.
	FastPath int
	// Searches counts the checks that ran the full serialization search.
	Searches int
	// Skipped counts the response events proven verdict-preserving
	// without even a revalidation: an abort of a transaction that was
	// not commit-pending leaves the induced search problem — statuses,
	// replay signatures, ordering constraints — bit-for-bit identical.
	Skipped int
	// Checkpoints counts successful truncations (TryTruncate), and
	// TruncatedEvents the events collapsed behind the latest checkpoint
	// in total; Events - TruncatedEvents is the live-suffix length.
	Checkpoints     int
	TruncatedEvents int
	// Roots is the number of reachable final states the current
	// checkpoint carries (0 while no checkpoint exists: the single
	// implicit root is the configured initial state). Every prefix check
	// must fail from all roots before a violation is declared.
	Roots int
	// TruncNodes is the total number of enumeration nodes explored by
	// truncation attempts, successful or not — the amortized price of
	// keeping the session O(live-suffix). Kept separate from Nodes so
	// checking cost and checkpointing cost stay individually visible.
	TruncNodes int
}

// Incremental decides opacity for successive prefixes of one growing
// history: Append feeds events as they occur and returns the verdict for
// the extended prefix. It generalizes FirstNonOpaquePrefix — which scans
// the prefixes of a history fixed up front — into the append-driven form
// an online monitor needs, and it is what FirstNonOpaquePrefix itself
// now runs on.
//
// Successive checks reuse one SearchContext (cfg.Context if supplied),
// so object states interned and transitions cached while checking one
// prefix serve every longer prefix. On top of that, each check first
// revalidates the previous prefix's witness serialization (extended with
// any new transactions) via SerializeOptions.Hint: for histories a
// correct TM emits, the witness almost always extends, making the
// per-event cost a linear replay over cached transitions instead of a
// search. Two event classes skip checking entirely: invocation events
// (pending operations are invisible to replay, a commit-try only widens
// the completion choice, and a fresh transaction serializes last as an
// empty abort) and abort events of transactions that were not
// commit-pending (the statuses, signatures and ordering constraints of
// the induced problem are unchanged). The differential suite pins both
// rules against one-shot Check on every prefix.
//
// Once a violation is observed the verdict latches and later appends
// only extend the recorded history — opacity monitoring stops at the
// first event a correct TM could not have produced. Errors latch too:
// an ill-formed event (rejected by history.Appender, leaving the valid
// prefix intact) or an exhausted per-check node budget poisons the
// checker, and every later Append returns the same error.
//
// An Incremental is single-goroutine, like the SearchContext it runs
// on. cfg.DisableMemo selects the reference path: a fresh one-shot
// Check per checked prefix, retained for differential testing.
type Incremental struct {
	cfg Config
	ctx *SearchContext
	app *history.Appender

	res  IncrementalResult
	err  error
	hint *Serialization

	known map[history.TxID]struct{} // transactions already in hint.Order
	cand  []history.TxID            // scratch for the extended candidate

	// Checkpoint state (see TryTruncate): the reachable final states of
	// every serialization of the collapsed stable prefix, materialized
	// as durable Objects maps (merged over cfg.Objects) because stateIDs
	// do not survive generation swaps. nil means no checkpoint yet —
	// the single implicit root is cfg.Objects. rootPref is the index of
	// the root that last admitted a serialization; trying it first keeps
	// the hint fast path a single replay in the steady state.
	roots    []spec.Objects
	rootPref int
}

// NewIncremental returns a checker for one growing history. A nil
// cfg.Context gets a private SearchContext (shared across all appends);
// cfg.MaxNodes bounds each prefix check individually, exactly as it
// bounds each Check of a FirstNonOpaquePrefix scan.
func NewIncremental(cfg Config) *Incremental {
	if !cfg.DisableMemo && cfg.Context == nil {
		cfg.Context = NewSearchContext()
	}
	return &Incremental{
		cfg:   cfg,
		ctx:   cfg.Context,
		app:   history.NewAppender(),
		res:   IncrementalResult{Opaque: true, PrefixLen: -1},
		known: make(map[history.TxID]struct{}),
	}
}

// Result returns the current verdict.
func (inc *Incremental) Result() IncrementalResult { return inc.res }

// Err returns the latched error, if any.
func (inc *Incremental) Err() error { return inc.err }

// History returns the live suffix as a view: every event appended since
// the last checkpoint, or since creation while no truncation has
// happened (valid across further appends but not across TryTruncate;
// clone to retain independently).
func (inc *Incremental) History() history.History { return inc.app.History() }

// Context returns the SearchContext the checker runs on (nil on the
// DisableMemo reference path). Sharing it with a follow-up Diagnose of
// the violating prefix reuses everything interned during monitoring;
// the usual single-goroutine rules apply.
func (inc *Incremental) Context() *SearchContext { return inc.ctx }

// ContextStats returns the search-table counters of the checker's
// SearchContext — states and atoms interned, memo entries and hit rates
// — or the zero Stats on the DisableMemo reference path, which runs
// with no context. It follows the context's single-goroutine rules
// (call it from the appending goroutine, between appends); the monitor
// mirrors the result into lock-free counters so telemetry scrapes never
// touch the context itself.
func (inc *Incremental) ContextStats() Stats {
	if inc.ctx == nil {
		return Stats{}
	}
	return inc.ctx.Stats()
}

// Append extends the history with evs, in order, and returns the verdict
// covering every event appended so far. A non-nil error (ill-formed
// event, exhausted node budget) latches; the returned result is the last
// valid verdict.
func (inc *Incremental) Append(evs ...history.Event) (IncrementalResult, error) {
	for _, ev := range evs {
		if err := inc.appendOne(ev); err != nil {
			return inc.res, err
		}
	}
	return inc.res, nil
}

func (inc *Incremental) appendOne(ev history.Event) error {
	if inc.err != nil {
		return inc.err
	}
	// The skip rule needs the transaction's status in the prefix
	// *before* this event.
	wasCommitPending := ev.Kind == history.KindAbort &&
		inc.app.Status(ev.Tx) == history.StatusCommitPending
	if err := inc.app.Append(ev); err != nil {
		inc.err = fmt.Errorf("prefix of length %d: %w", inc.res.Events+1, err)
		return inc.err
	}
	inc.res.Events++
	switch {
	case !inc.res.Opaque:
		// Latched: the history keeps growing (for diagnosis and
		// reporting) but no further checking happens.
		return nil
	case ev.Kind.Invocation():
		return nil
	case ev.Kind == history.KindAbort && !wasCommitPending:
		inc.res.Skipped++
		return nil
	}
	return inc.check()
}

// check decides the current prefix and folds the outcome into the
// running result. With a checkpoint in place the prefix is the live
// suffix and the decomposition of TryTruncate applies: the full history
// is opaque iff the suffix serializes from at least one checkpoint root,
// so the roots are tried in turn — last-successful first, carrying the
// witness hint — under one shared node budget, and only a failure from
// every root is a violation.
func (inc *Incremental) check() error {
	if inc.cfg.DisableMemo {
		return inc.checkReference()
	}
	h := inc.app.History()
	txs := inc.app.Transactions()
	maxNodes := inc.cfg.MaxNodes
	if maxNodes == 0 {
		maxNodes = defaultMaxNodes
	}
	var nodes int
	hint := inc.candidate(txs)
	var ser *Serialization
	var err error
	for ri := range inc.rootCount() {
		root := inc.rootAt((inc.rootPref + ri) % inc.rootCount())
		ser, err = FindSerialization(SerializeOptions{
			Source: h,
			Txs:    txs,
			Decide: func(tx history.TxID) Decision {
				// O(1) from the appender's maintained phases; Check derives
				// the same decisions from History.Status scans.
				switch inc.app.Status(tx) {
				case history.StatusCommitted:
					return DecideCommitted
				case history.StatusCommitPending:
					return DecideBranch
				default:
					return DecideAborted
				}
			},
			// ≺ constraints from the appender's maintained spans: setup
			// cost scales with the live transaction count, not the
			// session's event count.
			RealTimeSpans: inc.app.Spans(),
			Objects:       root,
			MaxNodes:      maxNodes,
			Nodes:         &nodes, // accumulates: one budget across all roots
			Context:       inc.ctx,
			Hint:          hint,
			DisableSym:    inc.cfg.DisableSym,
		})
		if err != nil || ser != nil {
			if ser != nil {
				inc.rootPref = (inc.rootPref + ri) % inc.rootCount()
			}
			break
		}
	}
	inc.res.Nodes += nodes
	if nodes == 0 {
		// The search explores at least one node whenever it runs, so a
		// zero delta means the hint validated.
		inc.res.FastPath++
	} else {
		inc.res.Searches++
	}
	if err != nil {
		inc.err = fmt.Errorf("prefix of length %d: %w", inc.res.Events, err)
		return inc.err
	}
	if ser == nil {
		inc.res.Opaque = false
		inc.res.PrefixLen = inc.res.Events
		inc.hint = nil
		return nil
	}
	inc.hint = ser
	return nil
}

// rootCount returns the number of initial states prefix checks run from:
// the checkpoint roots, or 1 (the configured initial state) while no
// checkpoint exists.
func (inc *Incremental) rootCount() int {
	if len(inc.roots) == 0 {
		return 1
	}
	return len(inc.roots)
}

// rootAt returns the initial Objects of root i.
func (inc *Incremental) rootAt(i int) spec.Objects {
	if len(inc.roots) == 0 {
		return inc.cfg.Objects
	}
	return inc.roots[i]
}

// candidate extends the previous witness order with the transactions
// that appeared since — in first-event order, at the end, where a fresh
// (live, so unconstrained-by-≺H) transaction can always go.
func (inc *Incremental) candidate(txs []history.TxID) *Serialization {
	if inc.hint == nil {
		for _, tx := range txs {
			inc.known[tx] = struct{}{}
		}
		return nil
	}
	if len(inc.hint.Order) == len(txs) {
		return inc.hint
	}
	inc.cand = append(inc.cand[:0], inc.hint.Order...)
	for _, tx := range txs {
		if _, ok := inc.known[tx]; !ok {
			inc.known[tx] = struct{}{}
			inc.cand = append(inc.cand, tx)
		}
	}
	return &Serialization{Order: inc.cand, Commits: inc.hint.Commits}
}

// checkReference is the DisableMemo path: a fresh one-shot Check of the
// whole prefix, no context, no hint — the independent implementation the
// incremental engine is differentially tested against.
func (inc *Incremental) checkReference() error {
	r, err := Check(inc.app.History(), inc.cfg)
	inc.res.Nodes += r.Nodes
	inc.res.Searches++
	if err != nil {
		inc.err = fmt.Errorf("prefix of length %d: %w", inc.res.Events, err)
		return inc.err
	}
	if !r.Opaque {
		inc.res.Opaque = false
		inc.res.PrefixLen = inc.res.Events
	}
	return nil
}
