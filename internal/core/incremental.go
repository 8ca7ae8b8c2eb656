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
// any new transactions) before searching: for histories a correct TM
// emits, the witness almost always extends, making the per-event cost a
// linear replay over cached transitions instead of a search. The check's setup is incremental too (see liveSuffix): the
// transactions' executions, spans and objects are views the
// history.Appender maintains, and only the transaction the event
// changed is re-signed. Two event classes skip checking entirely:
// invocation events (pending operations are invisible to replay, a
// commit-try only widens the completion choice, and a fresh transaction
// serializes last as an empty abort) and abort events of transactions
// that were not commit-pending (the statuses, signatures and ordering
// constraints of the induced problem are unchanged). The differential suite pins both
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
	// ownCtx records that the checker created ctx itself (cfg.Context
	// was nil), so it is its table set's only user: a checkpoint then
	// retires the set's generation (see TryTruncate). A context the
	// caller supplied is never rotated.
	ownCtx bool
	app    *history.Appender

	res  IncrementalResult
	err  error
	hint *serialization
	live liveSuffix

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
// cfg.Context gets a private SearchContext (shared across all appends),
// whose tables every successful TryTruncate empties;
// cfg.MaxNodes bounds each prefix check individually, exactly as it
// bounds each Check of a FirstNonOpaquePrefix scan.
func NewIncremental(cfg Config) *Incremental {
	own := !cfg.DisableMemo && cfg.Context == nil
	if own {
		cfg.Context = NewSearchContext()
	}
	inc := &Incremental{
		cfg:    cfg,
		ctx:    cfg.Context,
		ownCtx: own,
		app:    history.NewAppender(),
		res:    IncrementalResult{Opaque: true, PrefixLen: -1},
	}
	inc.live.app = inc.app
	return inc
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

// Resident returns the number of entries the table generation the
// checker runs on holds — state vectors, replay signatures, transitions
// and atoms — or 0 on the DisableMemo reference path. With a context of
// its own, that is what the checks since the last checkpoint interned.
// Same goroutine rules as ContextStats.
func (inc *Incremental) Resident() int {
	if inc.ctx == nil {
		return 0
	}
	return inc.ctx.resident()
}

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
	maxNodes := inc.cfg.MaxNodes
	if maxNodes == 0 {
		maxNodes = defaultMaxNodes
	}
	var nodes int
	hint := inc.candidate()
	var found bool
	var err error
	s := acquire(inc.ctx)
	defer s.release()
	for ri := range inc.rootCount() {
		inc.live.root = (inc.rootPref + ri) % inc.rootCount()
		found, err = s.findSerialization(serializeOptions{
			live:       &inc.live,
			objects:    inc.rootAt(inc.live.root),
			maxNodes:   maxNodes,
			nodes:      &nodes, // accumulates: one budget across all roots
			hint:       hint,
			disableSym: inc.cfg.DisableSym,
		})
		if err != nil || found {
			if found {
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
	if !found {
		inc.res.Opaque = false
		inc.res.PrefixLen = inc.res.Events
		inc.hint = nil
		return nil
	}
	if inc.hint == nil {
		inc.hint = new(serialization)
	}
	s.keep(inc.hint)
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

// candidate extends the previous witness in place with the transactions
// that appeared since — in first-event order, at the end, where a fresh
// (live, so unconstrained-by-≺H) transaction can always go — and returns
// it. The witness orders every transaction of the prefix it was found
// for, and the transaction list only grows between truncations (which
// drop the witness), so the new transactions are exactly the indexes
// past the witness's length. They have no fate in it, so they abort.
func (inc *Incremental) candidate() *serialization {
	if inc.hint != nil {
		for i := len(inc.hint.pos); i < len(inc.app.Transactions()); i++ {
			inc.hint.pos = append(inc.hint.pos, int32(i))
		}
	}
	return inc.hint
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

// liveSuffix is what an Incremental keeps between checks so that a
// check's setup pays for what the latest event changed rather than for
// a re-derivation over the whole live suffix. The Appender's views stand
// in for the scans of the history setup would otherwise make (execution
// extraction, object list, real-time spans), and two caches carry
// interned ids from check to check:
//
//   - sigs holds each transaction's replay signature, indexed like
//     Appender.Transactions. A transaction is re-signed only when its
//     count of completed executions changed: executions are only ever
//     appended or completed in place, and a signature covers exactly
//     the completed ones.
//   - roots holds each checkpoint root's interned initial state.
//
// Both hold ids of one table generation (gen) and are dropped when the
// context pins another one. The root states are also dropped when the
// registry grows: an initial state is a vector over the registered
// objects, so a configured object that first appears later changes the
// vector. The Incremental drops both on truncation, which replaces the
// transactions and the roots. A one-shot Check sets its search up from a
// liveSuffix too, emptied for every history (SearchContext.oneShot).
type liveSuffix struct {
	app  *history.Appender
	root int // the root the current call starts from

	gen    *sharedGen
	sigs   []int32
	signed []int // completed executions sigs[i] covers
	nobjs  int   // registry mirror length the roots were interned at
	roots  []stateID
}

// sync drops the cached ids ctx's pinned generation or registry has
// outdated. Called by setup after pinning and registering objects.
func (l *liveSuffix) sync(ctx *SearchContext) {
	if l.gen != ctx.gen {
		l.gen = ctx.gen
		l.reset()
	}
	if l.nobjs != len(ctx.objs) {
		l.nobjs = len(ctx.objs)
		l.roots = l.roots[:0]
	}
}

// reset drops both caches.
func (l *liveSuffix) reset() {
	l.sigs, l.signed = l.sigs[:0], l.signed[:0]
	l.roots = l.roots[:0]
}

// sig returns the interned replay signature of transaction i, whose
// executions are execs, re-signing it only if it completed an execution
// since it was last signed. Transactions are visited in index order, so
// an index past the cache is the next one to append.
func (l *liveSuffix) sig(ctx *SearchContext, i int, execs []history.OpExec) int32 {
	done := len(execs)
	if done > 0 && execs[done-1].Pending {
		done--
	}
	if i == len(l.sigs) {
		l.sigs = append(l.sigs, ctx.sigOf(execs))
		l.signed = append(l.signed, done)
	} else if l.signed[i] != done {
		l.sigs[i], l.signed[i] = ctx.sigOf(execs), done
	}
	return l.sigs[i]
}

// initial returns the interned initial state of the current root, whose
// objects are objs.
func (l *liveSuffix) initial(ctx *SearchContext, objs spec.Objects) stateID {
	for len(l.roots) <= l.root {
		l.roots = append(l.roots, -1)
	}
	if l.roots[l.root] < 0 {
		l.roots[l.root] = ctx.initialState(objs)
	}
	return l.roots[l.root]
}
