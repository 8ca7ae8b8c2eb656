package core

import (
	"otm/internal/history"
	"otm/internal/spec"
)

// Decision tells the serialization search how to treat one transaction's
// commit status when the transaction is placed.
type Decision int

const (
	// DecideCommitted: the transaction's effects update the object states
	// seen by transactions placed after it.
	DecideCommitted Decision = iota
	// DecideAborted: the transaction is checked for legality but leaves
	// no trace on the object states.
	DecideAborted
	// DecideBranch marks a commit-pending transaction whose fate the
	// search chooses: placement branches on committing it (its effects
	// become visible) versus aborting it (no trace). This is how the
	// search covers Complete(H) without enumerating the 2^k completions
	// as an outer loop — each completion corresponds to one assignment of
	// fates along a search path, and the memo table and node budget are
	// shared across all of them.
	DecideBranch
)

// SerializeOptions parameterizes the serialization search shared by the
// opacity checker and the weaker criteria of internal/criteria.
type SerializeOptions struct {
	// Source supplies the per-transaction event sequences. For opacity
	// this is the history under test itself: completions only append
	// commit/abort events, so the operation executions of every
	// transaction are identical across all of Complete(H).
	Source history.History
	// Txs are the transactions to serialize. For opacity this is every
	// transaction of the history; for serializability-style criteria,
	// only the committed ones.
	Txs []history.TxID
	// Decide maps each transaction to how its placement treats the object
	// states (committed, aborted, or branch on both).
	Decide func(history.TxID) Decision
	// Preds are ordering constraints: each pair (a, b) requires a to be
	// serialized before b. Pairs mentioning transactions outside Txs are
	// ignored.
	Preds [][2]history.TxID
	// RealTime, when non-nil, additionally constrains the order by the
	// real-time order ≺ of this history restricted to Txs (a completed
	// transaction precedes every transaction whose first event follows
	// its last). The searcher derives the constraint bitsets straight
	// from the transaction spans, so hot callers avoid materializing
	// the quadratic pair list of History.RealTimeOrder.
	RealTime history.History
	// RealTimeSpans, when non-nil, supplies the transaction spans —
	// indexed like Txs — that RealTime would be scanned for, skipping
	// the O(events) event scan entirely. Incremental prefix checking
	// passes the spans its history.Appender maintains per event, which
	// is what makes the per-check setup cost a function of the
	// transaction count rather than the history length. Takes
	// precedence over RealTime.
	RealTimeSpans []history.Span
	// Objects are the initial object states; nil entries default to
	// integer registers initialized to 0.
	Objects spec.Objects
	// MaxNodes bounds the search (0 = default); *Nodes accumulates the
	// node count across calls when non-nil.
	MaxNodes int
	Nodes    *int
	// Context supplies the interned-state tables (state interner,
	// transition cache, failure memo) the search runs on. nil means a
	// fresh context for this call; passing one reuses the tables across
	// calls — see SearchContext for why that is sound. Ignored by the
	// DisableMemo reference engine.
	Context *SearchContext
	// Hint optionally supplies a candidate serialization — an order over
	// exactly Txs plus commit fates for the DecideBranch transactions —
	// to validate before searching. A candidate that places every
	// transaction legally under the ordering constraints is returned as
	// the result without exploring a single search node; an invalid one
	// costs one linear walk over cached transitions and falls back to
	// the full search. Incremental prefix checking threads the previous
	// prefix's witness through here, which is what makes the common
	// "history still opaque" append a replay instead of a search.
	// Ignored by the DisableMemo reference engine.
	Hint *Serialization
	// DisableMemo runs the reference engine instead: the plain
	// backtracking search on copy-on-write spec.Objects maps, with no
	// interning, no memoization and no partial-order reduction. It exists
	// as the independent implementation the interned engine is
	// differentially tested against and should not be set on production
	// paths.
	DisableMemo bool
	// DisableSym turns off the symmetry reduction: every transaction is
	// its own class and interchangeable placements are all explored.
	// Differential-testing hook for isolating the reduction (the memo
	// problem signature carries the class map, so reduced and unreduced
	// searches never share memo entries); not for production paths.
	DisableSym bool

	// enumerate switches the searcher from witness finding to
	// reachable-final-state enumeration (see enumerateFinals). It scopes
	// the memo under a distinct problem kind: enumeration entries mean
	// "subtree already enumerated", not "subtree has no witness", and
	// the two must never answer each other's lookups.
	enumerate bool
}

// Serialization is the successful outcome of FindSerialization.
type Serialization struct {
	// Order is the serialization of the transactions.
	Order []history.TxID
	// Commits records the fate the search chose for every DecideBranch
	// transaction: true = committed, false = aborted. Transactions with a
	// fixed Decision do not appear. The map is in the shape expected by
	// history.CompleteWith.
	Commits map[history.TxID]bool
}

// outcome is the tri-state result of one search subtree. Distinguishing
// outTruncated from outFailed is what keeps a shared memo sound: a
// subtree cut short by the node budget proves nothing about the state it
// hangs from, so truncation propagates to the root without a memo insert,
// and a later call with budget to spare re-explores the state.
type outcome int8

const (
	outFailed outcome = iota
	outFound
	outTruncated
)

// searcher is the interned-state serialization engine. One instance
// serves one FindSerialization call, but the tables it searches over
// live in the SearchContext and persist across calls: object states are
// interned to stateIDs (vector comparison is word equality, not string
// building), each transaction's replay is cached per distinct state, and
// failure verdicts are memoized under a fixed-size comparable key of
// (problem, placed bitset, last placement, stateID). Isomorphic search
// prefixes — different placement orders and different commit/abort fate
// assignments reaching the same placed set and object states — are
// explored once; the last placed transaction is part of the key because
// the partial-order reduction prunes successors relative to it.
type searcher struct {
	ctx    *SearchContext
	active bool

	n       int
	txs     []history.TxID
	txIdx   map[history.TxID]int32 // index into txs; nil for small n
	execs   [][]history.OpExec
	sigs    []int32
	decide  []Decision
	fate    []bool // chosen fate per placed transaction (branch txs)
	preds   []bitset
	foot    []bitset // per-transaction object footprint (bit per object)
	words   []uint64 // shared backing store of preds, foot, succ and placed
	spans   []int    // scratch: first/last event index per transaction
	compl   []bool   // scratch: completed flag per transaction
	placed  bitset
	order   []history.TxID
	init    stateID
	problem int32

	// classPrev implements the symmetry reduction: classPrev[i] is the
	// index of the previous member of i's symmetry class (-1 when i is
	// the canonical, lowest-index member). Two transactions are in one
	// class when they are fully interchangeable: identical replay
	// signature (hence identical footprint and legality behavior from any
	// state), identical commit decision, and identical constraint
	// position (equal predecessor and successor bitsets — which also
	// rules out any ordering constraint between the two). The search only
	// places a member once its classPrev is placed, so each class is
	// placed in increasing index order; see symmetry.go for why pruning
	// the other interleavings never loses a witness or a reachable final
	// state.
	classPrev []int32
	succ      []bitset // scratch: per-transaction successor bitsets

	// The incremental legality watch: legality of candidate i depends
	// only on the current states of the objects in foot[i], so a computed
	// verdict stays valid until one of those objects changes. ver is the
	// per-call version clock, bumped on every state change — placements
	// of state-changing transactions and their backtracks alike — and
	// objVer[o] records the clock at object o's last possible change.
	// legalVal[i]/legalVer[i] cache candidate i's last verdict and the
	// clock it was computed at; the cached verdict is fresh while no
	// watched object's version exceeds it. Only illegal verdicts are
	// consumed from the cache (a legal placement still needs the
	// successor state from the transition cache), which is exactly the
	// hot case: an illegal candidate is re-scanned at every node of the
	// enclosing subtree, and the watch answers those scans with an array
	// probe instead of a transition-cache probe (or a replay, at states
	// the cache has never seen).
	ver      int32
	objVer   []int32
	legalVal []bool
	legalVer []int32

	maxNodes int
	nodes    *int
}

// grow returns s resized to n elements, reusing its backing array when
// capacity allows. Contents are unspecified; callers overwrite.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// setup prepares the searcher for one call, reusing the scratch slices
// of previous calls on the same context.
func (s *searcher) setup(ctx *SearchContext, o SerializeOptions, maxNodes int, nodes *int) {
	n := len(o.Txs)
	s.ctx = ctx
	s.n = n
	s.txs = o.Txs
	s.maxNodes = maxNodes
	s.nodes = nodes

	// Enough transactions to make the linear indexOf scans of setup,
	// addRealTimePreds and validate quadratic: build an index map.
	if n > 32 {
		if s.txIdx == nil {
			s.txIdx = make(map[history.TxID]int32, n)
		} else {
			clear(s.txIdx)
		}
		for i, tx := range o.Txs {
			s.txIdx[tx] = int32(i)
		}
	} else {
		s.txIdx = nil
	}

	// Between calls is the only safe point to bound the tables: nothing
	// for this call has been interned yet. The context pins (and possibly
	// rotates) the generation of its table set here — unless this is a
	// re-entrant call on a borrowed searcher (s != &ctx.srch), whose
	// outer call still holds stateIDs into the pinned generation.
	if s == &ctx.srch {
		ctx.pin()
		// The private side (step cache, owned-problem memo) grows
		// independently of the generation; dropping it is always sound
		// and only costs re-derivation.
		if len(ctx.steps)+len(ctx.memo)+len(ctx.memoWide) > maxTableEntries {
			clear(ctx.steps)
			clear(ctx.memo)
			clear(ctx.memoWide)
			ctx.owned = ctx.owned[:0]
			ctx.memoOwnProblem = -1
		}
	}

	// Registry order only needs to be stable within the generation —
	// state vectors are never compared across table sets — so
	// first-appearance order does fine and skips a sort per call.
	ctx.registerObjects(o.Source.Objects())

	s.execs = o.Source.OpExecsFor(o.Txs)
	s.sigs = grow(s.sigs, n)
	s.decide = grow(s.decide, n)
	s.fate = grow(s.fate, n)
	for i, tx := range o.Txs {
		s.sigs[i] = ctx.sigOf(s.execs[i])
		s.decide[i] = o.Decide(tx)
	}

	// preds, foot, succ and placed share one zeroed word block.
	tw := (n + 63) / 64
	ow := (len(ctx.objs) + 63) / 64
	s.words = grow(s.words, 2*n*tw+n*ow+tw)
	clear(s.words)
	s.preds = grow(s.preds, n)
	s.foot = grow(s.foot, n)
	s.succ = grow(s.succ, n)
	off := 0
	for i := 0; i < n; i++ {
		s.preds[i] = bitset(s.words[off : off+tw])
		off += tw
	}
	for i := 0; i < n; i++ {
		s.foot[i] = bitset(s.words[off : off+ow])
		off += ow
		for _, e := range s.execs[i] {
			if !e.Pending {
				s.foot[i].set(int(ctx.objIdx[e.Obj]))
			}
		}
	}
	for i := 0; i < n; i++ {
		s.succ[i] = bitset(s.words[off : off+tw])
		off += tw
	}
	s.placed = bitset(s.words[off : off+tw])

	for _, p := range o.Preds {
		i := s.indexOfTx(p[0])
		j := s.indexOfTx(p[1])
		if i >= 0 && j >= 0 {
			s.preds[j].set(i)
		}
	}
	if o.RealTimeSpans != nil {
		s.addSpanPreds(o.RealTimeSpans)
	} else if o.RealTime != nil {
		s.addRealTimePreds(o.RealTime)
	}

	if cap(s.order) < n {
		s.order = make([]history.TxID, 0, n)
	} else {
		s.order = s.order[:0]
	}

	s.computeClasses(o.DisableSym)

	// The legality watch starts every call cold: version clock at zero,
	// every object version at zero, every cached verdict invalid.
	s.ver = 0
	s.objVer = grow(s.objVer, len(ctx.objs))
	clear(s.objVer)
	s.legalVal = grow(s.legalVal, n)
	s.legalVer = grow(s.legalVer, n)
	for i := range s.legalVer {
		s.legalVer[i] = -1
	}

	// A nil Objects map reads like an empty one, so no defaulting
	// allocation is needed.
	s.init = ctx.initialState(o.Objects)
	kind, salt := byte(problemSearch), int32(0)
	if o.enumerate {
		// Epochs are unique per table set: another context's
		// enumeration sharing a salt would suppress this one's finals.
		kind, salt = problemEnum, ctx.tables.enumEpoch.Add(1)
	}
	s.problem = ctx.problemOf(kind, salt, s.init, s.sigs, s.decide, s.preds, s.classPrev)
}

// addSpanPreds sets the predecessor bits induced by the real-time order,
// from caller-maintained spans indexed like s.txs: a completed
// transaction precedes exactly the transactions whose span starts after
// its ends. Identical constraints to addRealTimePreds, without its
// O(events) span-derivation scan.
func (s *searcher) addSpanPreds(spans []history.Span) {
	n := s.n
	for i := 0; i < n; i++ {
		if !spans[i].Completed {
			continue
		}
		last := spans[i].Last
		for j := 0; j < n; j++ {
			if i != j && spans[j].First > last {
				s.preds[j].set(i)
			}
		}
	}
}

// addRealTimePreds sets the predecessor bits induced by the real-time
// order of src over s.txs: one event scan computes each transaction's
// span and whether it completed (last event commit or abort), and a
// completed transaction precedes exactly the transactions whose span
// starts after its ends.
func (s *searcher) addRealTimePreds(src history.History) {
	n := s.n
	s.spans = grow(s.spans, 2*n)
	first, last := s.spans[:n], s.spans[n:]
	for i := range first {
		first[i] = -1
		last[i] = -1
	}
	s.compl = grow(s.compl, n)
	completed := s.compl
	for i := range completed {
		completed[i] = false
	}
	for hi, e := range src {
		j := s.indexOfTx(e.Tx)
		if j < 0 {
			continue
		}
		if first[j] < 0 {
			first[j] = hi
		}
		last[j] = hi
		completed[j] = e.Kind == history.KindCommit || e.Kind == history.KindAbort
	}
	for i := 0; i < n; i++ {
		if !completed[i] {
			continue
		}
		for j := 0; j < n; j++ {
			if i != j && first[j] > last[i] {
				s.preds[j].set(i)
			}
		}
	}
}

// indexOfTx returns the index of tx in s.txs, through the index map when
// one was built (large transaction counts), or -1.
func (s *searcher) indexOfTx(tx history.TxID) int {
	if s.txIdx != nil {
		if i, ok := s.txIdx[tx]; ok {
			return int(i)
		}
		return -1
	}
	return indexOf(s.txs, tx)
}

// validate checks one full candidate serialization — hint.Order over
// exactly s.txs plus hint.Commits fates for the DecideBranch
// transactions (absent entries default to abort, which never perturbs
// the object states) — without searching: each transaction in turn must
// have its predecessors already placed and replay legally on the current
// interned state. On success s.order, s.fate and s.placed hold the
// serialization exactly as a successful search would leave them; on
// failure the walk state is rolled back so the full search starts clean.
// Validation runs entirely on the transition cache and explores no
// search nodes.
func (s *searcher) validate(hint *Serialization) bool {
	if len(hint.Order) != s.n {
		return false
	}
	vid := s.init
	ok := true
	for _, tx := range hint.Order {
		i := s.indexOfTx(tx)
		if i < 0 || s.placed.has(i) || !s.placed.covers(s.preds[i]) {
			ok = false
			break
		}
		next, legal := s.ctx.step(vid, s.sigs[i], s.execs[i])
		if !legal {
			ok = false
			break
		}
		fate := false
		switch s.decide[i] {
		case DecideCommitted:
			fate = true
		case DecideBranch:
			fate = hint.Commits[tx]
		}
		if fate {
			vid = next
		}
		s.fate[i] = fate
		s.placed.set(i)
		s.order = append(s.order, tx)
	}
	if ok && len(s.order) == s.n {
		return true
	}
	clear(s.placed)
	s.order = s.order[:0]
	return false
}

// result assembles the Serialization from the searcher's final walk
// state (s.order and, for DecideBranch transactions, s.fate) — shared by
// the search success path and the validated-hint fast path.
func (s *searcher) result(o SerializeOptions) *Serialization {
	ser := &Serialization{Order: append([]history.TxID(nil), s.order...)}
	for i, tx := range o.Txs {
		if s.decide[i] == DecideBranch {
			if ser.Commits == nil {
				ser.Commits = make(map[history.TxID]bool)
			}
			ser.Commits[tx] = s.fate[i]
		}
	}
	return ser
}

// prunable implements the partial-order reduction: placing candidate i
// directly after last is skipped when the swapped order — i first, then
// last — is a valid placement too, reaches the identical search state,
// and is lexicographically smaller (i < last by index). The swap is valid
// exactly when the two transactions commute (disjoint completed-operation
// footprints: neither one's legality or resulting states can depend on
// the other) and i was already placeable before last was placed (last is
// not a predecessor of i; i's other predecessors were placed earlier).
// Every equivalence class of serializations under such adjacent swaps
// retains its lexicographically least member, which passes this test at
// every step, so pruning the rest never loses a witness.
func (s *searcher) prunable(i, last int) bool {
	return last >= 0 && i < last &&
		!s.preds[i].has(last) &&
		!s.foot[i].intersects(s.foot[last])
}

// search tries to extend the partial serialization. placed is mutated in
// place (set before recursing, cleared on backtrack); count is the number
// of placed transactions; vid is the interned object-state vector
// produced by the committed transactions placed so far; last is the index
// of the most recently placed transaction (-1 at the root). On outFound
// the winning bits stay set and s.order / s.fate hold the full
// serialization and fate assignment. A state is memoized as failed only
// when its whole subtree was explored within the node budget; a truncated
// subtree yields outTruncated, which propagates without memoization.
func (s *searcher) search(placed bitset, count int, vid stateID, last int) outcome {
	if *s.nodes >= s.maxNodes {
		return outTruncated
	}
	*s.nodes++
	if count == s.n {
		return outFound
	}
	if s.ctx.memoHas(s.problem, placed, last, vid) {
		return outFailed
	}
	for i := 0; i < s.n; i++ {
		if placed.has(i) || !placed.covers(s.preds[i]) ||
			s.prunable(i, last) || s.symBlocked(i, placed) {
			continue
		}
		next, legal := s.stepCand(i, vid)
		if !legal {
			continue
		}
		s.order = append(s.order, s.txs[i])
		placed.set(i)
		var out outcome
		switch s.decide[i] {
		case DecideCommitted:
			s.fate[i] = true
			out = s.searchCommitted(placed, count, vid, next, i)
		case DecideAborted:
			s.fate[i] = false
			out = s.search(placed, count+1, vid, i)
		case DecideBranch:
			// Abort first: it keeps the object states unchanged, matching
			// the reference engine's enumeration order (completion mask 0
			// aborts every commit-pending transaction).
			s.fate[i] = false
			out = s.search(placed, count+1, vid, i)
			if out == outFailed {
				s.fate[i] = true
				out = s.searchCommitted(placed, count, vid, next, i)
			}
		}
		if out == outFound {
			return outFound
		}
		placed.clear(i)
		s.order = s.order[:len(s.order)-1]
		if out == outTruncated {
			// The budget is global, so every remaining candidate would
			// truncate too; bail without memoizing this state.
			return outTruncated
		}
	}
	s.ctx.memoInsert(s.problem, placed, last, vid)
	return outFailed
}

// searchCommitted recurses below the committed placement of transaction
// i, keeping the legality watch honest: when the placement actually
// changes the object states (next != vid), i's footprint objects are
// stamped before descending and again after returning, since the
// backtrack reverts them (see legality.go).
func (s *searcher) searchCommitted(placed bitset, count int, vid, next stateID, i int) outcome {
	if next == vid {
		return s.search(placed, count+1, vid, i)
	}
	s.touch(i)
	out := s.search(placed, count+1, next, i)
	s.touch(i)
	return out
}

// FindSerialization searches for an order of o.Txs such that every
// ordering constraint holds and every transaction is legal on the object
// states produced by the committed transactions placed before it,
// choosing a commit/abort fate for every DecideBranch transaction along
// the way. It returns the serialization on success and nil if no order
// (under any fate assignment) exists. ErrSearchLimit is returned when the
// node budget is exhausted first.
func FindSerialization(o SerializeOptions) (*Serialization, error) {
	n := len(o.Txs)
	if n == 0 {
		return &Serialization{}, nil
	}
	maxNodes := o.MaxNodes
	if maxNodes == 0 {
		maxNodes = defaultMaxNodes
	}
	var localNodes int
	nodes := o.Nodes
	if nodes == nil {
		nodes = &localNodes
	}

	if o.DisableMemo {
		return findSerializationRef(o, maxNodes, nodes)
	}

	ctx := o.Context
	if ctx == nil {
		ctx = NewSearchContext()
	}
	// Reuse the context's resident searcher unless a call is already
	// active on it (re-entrancy through a Decide callback would be the
	// only path; none exists today, but correctness is cheap).
	s := &ctx.srch
	if s.active {
		s = &searcher{}
	}
	s.active = true
	defer func() { s.active = false }()
	s.setup(ctx, o, maxNodes, nodes)

	if o.Hint != nil && s.validate(o.Hint) {
		return s.result(o), nil
	}

	switch s.search(s.placed, 0, s.init, -1) {
	case outFound:
		return s.result(o), nil
	case outTruncated:
		return nil, ErrSearchLimit
	}
	return nil, nil
}

// enumerate visits every legal serialization of the problem (one
// canonical representative per commuting-swap equivalence class — the
// classes agree on the final state, so the reduction loses nothing) and
// sinks the interned final object-state vector of each. States already
// enumerated are recorded in the memo under the enumeration problem kind
// and skipped: the reachable-final set below a (placed, last, state)
// node is a pure function of the node, so a second visit contributes
// nothing new. Returns outTruncated when the node budget runs out
// (post-order memo insertion keeps truncated subtrees out of the visited
// set, exactly as the search path keeps them out of the failure memo);
// outFailed otherwise — enumeration never stops early, so outFound is
// never produced.
func (s *searcher) enumerate(placed bitset, count int, vid stateID, last int, sink func(stateID)) outcome {
	if *s.nodes >= s.maxNodes {
		return outTruncated
	}
	*s.nodes++
	if count == s.n {
		sink(vid)
		return outFailed
	}
	if s.ctx.memoHas(s.problem, placed, last, vid) {
		return outFailed
	}
	for i := 0; i < s.n; i++ {
		if placed.has(i) || !placed.covers(s.preds[i]) ||
			s.prunable(i, last) || s.symBlocked(i, placed) {
			continue
		}
		next, legal := s.stepCand(i, vid)
		if !legal {
			continue
		}
		if s.decide[i] != DecideCommitted {
			// Aborted placements leave no state trace; DecideBranch never
			// reaches enumeration (checkpointed prefixes are completed).
			next = vid
		}
		placed.set(i)
		var out outcome
		if next != vid {
			s.touch(i)
			out = s.enumerate(placed, count+1, next, i, sink)
			s.touch(i)
		} else {
			out = s.enumerate(placed, count+1, vid, i, sink)
		}
		placed.clear(i)
		if out == outTruncated {
			return outTruncated
		}
	}
	s.ctx.memoInsert(s.problem, placed, last, vid)
	return outFailed
}

// enumerateFinals runs the reachable-final-state enumeration for a fully
// decided problem (no DecideBranch transactions): sink receives the
// interned final object-state vector of every legal serialization of
// o.Txs, deduplicated per distinct vector by the caller if desired (the
// walk itself may sink one vector several times via distinct
// serialization classes). It returns ErrSearchLimit when the node budget
// is exhausted before the enumeration completes — the caller must then
// discard everything sunk, since uncovered serializations may reach
// states never reported.
func enumerateFinals(o SerializeOptions, maxNodes int, nodes *int, sink func(stateID)) error {
	o.enumerate = true
	if len(o.Txs) == 0 {
		return nil
	}
	ctx := o.Context
	if ctx == nil {
		ctx = NewSearchContext()
	}
	s := &ctx.srch
	if s.active {
		s = &searcher{}
	}
	s.active = true
	defer func() { s.active = false }()
	s.setup(ctx, o, maxNodes, nodes)
	if s.enumerate(s.placed, 0, s.init, -1, sink) == outTruncated {
		return ErrSearchLimit
	}
	return nil
}
