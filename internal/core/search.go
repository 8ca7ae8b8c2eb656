package core

import (
	"otm/internal/history"
	"otm/internal/spec"
)

// decision tells the serialization search how to treat one transaction's
// commit status when the transaction is placed.
type decision int

const (
	// decideCommitted: the transaction's effects update the object states
	// seen by transactions placed after it.
	decideCommitted decision = iota
	// decideAborted: the transaction is checked for legality but leaves
	// no trace on the object states.
	decideAborted
	// decideBranch marks a commit-pending transaction whose fate the
	// search chooses: placement branches on committing it (its effects
	// become visible) versus aborting it (no trace). This is how the
	// search covers Complete(H) without enumerating the 2^k completions
	// as an outer loop — each completion corresponds to one assignment of
	// fates along a search path, and the memo table and node budget of the
	// one search are shared across all of them.
	decideBranch
)

// decisionOf is how Definition 1 places a transaction of the given
// status: a committed one's effects are visible, a commit-pending one
// branches on both fates, and an aborted or live one (no commit-try)
// aborts in every completion.
func decisionOf(st history.Status) decision {
	switch st {
	case history.StatusCommitted:
		return decideCommitted
	case history.StatusCommitPending:
		return decideBranch
	default:
		return decideAborted
	}
}

// serializeOptions parameterizes one serialization search. The problem
// comes from a history.Appender (live): an Incremental checker's live
// suffix, or the history a one-shot check loaded. The transactions,
// their executions, objects, spans and statuses are its maintained
// views, and their replay signatures and the initial state come from the
// liveSuffix caches (see liveSuffix). Completions only append commit or
// abort events, so the executions of every transaction are the same
// across all of Complete(H), and the real-time order the search
// preserves is the one of the appended history itself.
type serializeOptions struct {
	live *liveSuffix
	// preds are ordering constraints on top of the real-time order: each
	// pair (a, b) requires a to be serialized before b. Pairs mentioning
	// transactions outside the history are ignored.
	preds [][2]history.TxID
	// objects are the initial object states of the live suffix's current
	// root; nil entries default to integer registers initialized to 0.
	objects spec.Objects
	// maxNodes bounds the search; *nodes accumulates the node count
	// across calls.
	maxNodes int
	nodes    *int
	// hint optionally supplies a candidate serialization — an order over
	// exactly the history's transactions plus commit fates for the
	// decideBranch ones, both by transaction index — to validate before
	// searching. A candidate that places every transaction legally under
	// the ordering constraints is returned as the result without
	// exploring a single search node; an invalid one costs one linear walk
	// over cached transitions and falls back to the full search.
	// Incremental prefix checking threads the previous prefix's witness
	// through here, which is what makes the common "history still opaque"
	// append a replay instead of a search.
	hint *serialization
	// disableSym turns off the symmetry reduction: every transaction is
	// its own class and interchangeable placements are all explored.
	disableSym bool
}

// serialization is the successful outcome of findSerialization, in the
// form the search runs on: transactions are indexes into
// Appender.Transactions. Between truncations an Appender only appends
// transactions, so the indexes of a serialization stay valid for every
// longer prefix, which is what lets one serve as the next check's hint.
type serialization struct {
	// pos is the order of the transactions.
	pos []int32
	// fate holds the fate of every transaction, indexed like
	// Appender.Transactions: true = committed, false = aborted. Only the
	// entries of decideBranch transactions are the search's choice; a
	// hint's transactions past len(fate) abort.
	fate []bool
}

// outcome is the tri-state result of one search subtree. Distinguishing
// outTruncated from outFailed keeps the memo honest: a subtree cut short
// by the node budget proves nothing about the state it hangs from, so
// truncation propagates to the root at once, without a memo insert.
type outcome int8

const (
	outFailed outcome = iota
	outFound
	outTruncated
)

// searcher is the interned-state serialization engine. One instance
// serves one findSerialization or enumerateFinals call at a time, on
// tables that live in the SearchContext and persist across calls: object
// states are interned to stateIDs (vector comparison is word equality,
// not string building) and each transaction's replay is cached per
// distinct state, so every node decides each candidate's legality with
// one transition-cache probe (a replay only at a state the cache has not
// seen). The failure memo is the searcher's own and lives for one
// search: failed states are recorded under a fixed-size comparable key
// of (placed bitset, stateID), so isomorphic search prefixes — different
// placement orders and different commit/abort fate assignments reaching
// the same placed set and object states — are explored once.
type searcher struct {
	ctx    *SearchContext
	active bool

	n      int
	execs  [][]history.OpExec
	sigs   []int32
	decide []decision
	fate   []bool // chosen fate per placed transaction
	preds  []bitset
	words  []uint64 // shared backing store of preds, succ and placed
	placed bitset
	pos    []int32 // the placed transactions, in placement order
	init   stateID

	// memo is the failure memo, the visited-state set of one search: a
	// state lands here once its whole subtree was explored without a
	// witness (or, when enumerating, once its reachable finals were all
	// sunk). memoWide takes the states of placed sets wider than 128
	// transactions. prepare empties both, so an entry never outlives its
	// search, and a validated hint never touches them.
	memo     map[memoKey]struct{}
	memoWide map[string]struct{}

	// sink, when non-nil, turns the search into reachable-final-state
	// enumeration: a leaf hands its final state to sink and counts as a
	// failure, so the walk covers every serialization class instead of
	// stopping at the first (see enumerateFinals).
	sink func(stateID)

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

	maxNodes int
	nodes    *int

	// wbuf is witness assembly's scratch: transaction ranks and S's
	// block offsets.
	wbuf []int32
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
// of previous calls on the same context. It derives what validating a
// hint needs — executions, replay signatures, decisions, ordering
// constraints and the initial state — from o.live's views; prepare adds
// what only a search needs.
func (s *searcher) setup(o serializeOptions) {
	ctx := s.ctx
	live := o.live
	txs := live.app.Transactions()
	n := len(txs)
	s.n = n
	s.maxNodes = o.maxNodes
	s.nodes = o.nodes

	// Between calls is the only safe point to bound the tables: nothing
	// for this call has been interned yet. The context pins (and possibly
	// rotates) the generation of its table set here.
	ctx.pin()
	// The step cache grows independently of the generation; dropping it
	// is always sound and only costs re-derivation.
	if int64(len(ctx.steps)) > ctx.tables.maxEntries {
		clear(ctx.steps)
	}

	// Registry order only needs to be stable within the generation —
	// state vectors are never compared across table sets — so
	// first-appearance order does fine and skips a sort per call.
	ctx.registerObjects(live.app.Objects())
	live.sync(ctx)
	s.execs = live.app.OpExecs()
	s.sigs = grow(s.sigs, n)
	s.decide = grow(s.decide, n)
	s.fate = grow(s.fate, n)
	for i := range n {
		s.sigs[i] = live.sig(ctx, i, s.execs[i])
		s.decide[i] = decisionOf(live.app.StatusAt(i))
	}

	// preds, succ and placed share one zeroed word block.
	tw := (n + 63) / 64
	s.words = grow(s.words, 2*n*tw+tw)
	clear(s.words)
	s.preds = grow(s.preds, n)
	s.succ = grow(s.succ, n)
	off := 0
	for i := 0; i < n; i++ {
		s.preds[i] = bitset(s.words[off : off+tw])
		off += tw
	}
	for i := 0; i < n; i++ {
		s.succ[i] = bitset(s.words[off : off+tw])
		off += tw
	}
	s.placed = bitset(s.words[off : off+tw])

	// The extra constraints name transactions by ID: index them once.
	if len(o.preds) > 0 {
		idx := txIndex(txs)
		for _, p := range o.preds {
			i, iok := idx[p[0]]
			j, jok := idx[p[1]]
			if iok && jok {
				s.preds[j].set(i)
			}
		}
	}
	s.addSpanPreds(live.app.Spans())
	s.pos = grow(s.pos, n)[:0]

	// A nil objects map reads like an empty one, so no defaulting
	// allocation is needed.
	s.init = live.initial(ctx, o.objects)
}

// prepare completes setup for a search: symmetry classes, an empty
// memo and the leaf sink (nil to find a witness). A call whose hint
// validates never needs them, so findSerialization derives them only
// once it has to search.
func (s *searcher) prepare(disableSym bool, sink func(stateID)) {
	s.computeClasses(disableSym)
	s.memo = emptied(s.memo)
	s.memoWide = emptied(s.memoWide)
	s.sink = sink
}

// memoReuseBound is the largest memo a search may leave behind and still
// have the next search clear it in place. clear costs a map's capacity,
// not its length, so a map that once held a huge search's states is
// replaced instead: otherwise every later search, however small, would
// pay for clearing it.
const memoReuseBound = 1 << 8

// emptied returns m emptied for the next search: cleared in place, or a
// fresh map when m is nil or the last search left more than
// memoReuseBound entries in it.
func emptied[K comparable](m map[K]struct{}) map[K]struct{} {
	if m == nil || len(m) > memoReuseBound {
		return make(map[K]struct{})
	}
	clear(m)
	return m
}

// memoKey keys the failure memo: a search state is identified by the
// interned object-state vector and the placed-transaction bitset, inlined
// for histories of up to 128 transactions. Wider bitsets take the
// string-keyed spill map (memoWide).
type memoKey struct {
	state  stateID
	lo, hi uint64
}

// inlineKey builds the inline memo key for placed bitsets of at most two
// words; ok is false when the bitset is wider and the spill map applies.
func inlineKey(placed bitset, vid stateID) (k memoKey, ok bool) {
	if len(placed) > 2 {
		return memoKey{}, false
	}
	k = memoKey{state: vid, lo: placed[0]}
	if len(placed) == 2 {
		k.hi = placed[1]
	}
	return k, true
}

// wideKey renders the spill memo key for >128-transaction histories.
func (s *searcher) wideKey(placed bitset, vid stateID) []byte {
	buf := s.ctx.keyBuf[:0]
	buf = append(buf, byte(vid), byte(vid>>8), byte(vid>>16), byte(vid>>24))
	buf = placed.appendKey(buf)
	s.ctx.keyBuf = buf
	return buf
}

// memoHas reports whether the search state was recorded as a definitive
// failure.
func (s *searcher) memoHas(placed bitset, vid stateID) bool {
	var ok bool
	if k, inline := inlineKey(placed, vid); inline {
		_, ok = s.memo[k]
	} else {
		_, ok = s.memoWide[string(s.wideKey(placed, vid))]
	}
	if ok {
		s.ctx.stats.MemoHits++
	} else {
		s.ctx.stats.MemoMisses++
	}
	return ok
}

// memoInsert records the search state as a definitive failure. Callers
// must never insert a state whose subtree was truncated by the node
// budget.
func (s *searcher) memoInsert(placed bitset, vid stateID) {
	if k, inline := inlineKey(placed, vid); inline {
		s.memo[k] = struct{}{}
	} else {
		s.memoWide[string(s.wideKey(placed, vid))] = struct{}{}
	}
	s.ctx.stats.MemoEntries++
}

// addSpanPreds sets the predecessor bits induced by the real-time order,
// from the spans a history.Appender maintains, indexed like its
// transactions: a completed transaction precedes exactly the
// transactions whose span starts after its ends.
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

// validate checks one full candidate serialization — hint.pos over
// exactly the problem's transactions, with hint.fate fates for the
// decideBranch ones (a transaction past len(hint.fate) aborts, which
// never perturbs the object states) — without searching: each
// transaction in turn must have its predecessors already placed and
// replay legally on the current interned state. On success s.pos, s.fate
// and s.placed hold the serialization exactly as a successful search
// would leave them; on failure the walk state is rolled back so the full
// search starts clean. Validation runs entirely on the transition cache
// and explores no search nodes.
func (s *searcher) validate(hint *serialization) bool {
	if len(hint.pos) != s.n {
		return false
	}
	vid := s.init
	for _, i := range hint.pos {
		if s.placed.has(int(i)) || !s.placed.covers(s.preds[i]) {
			break
		}
		next, legal := s.ctx.step(vid, s.sigs[i], s.execs[i])
		if !legal {
			break
		}
		fate := s.decide[i] == decideCommitted ||
			s.decide[i] == decideBranch && int(i) < len(hint.fate) && hint.fate[i]
		if fate {
			vid = next
		}
		s.fate[i] = fate
		s.placed.set(int(i))
		s.pos = append(s.pos, i)
	}
	if len(s.pos) == s.n {
		return true
	}
	clear(s.placed)
	s.pos = s.pos[:0]
	return false
}

// keep copies the serialization the last findSerialization found, by
// search or by validating its hint, into ser, reusing ser's slices.
func (s *searcher) keep(ser *serialization) {
	ser.pos = append(ser.pos[:0], s.pos...)
	ser.fate = append(ser.fate[:0], s.fate...)
}

// search tries to extend the partial serialization. placed is mutated in
// place (set before recursing, cleared on backtrack); count is the number
// of placed transactions; vid is the interned object-state vector
// produced by the committed transactions placed so far. Each candidate
// whose predecessors are placed is stepped from vid through the
// transition cache, which yields its legality and successor state. On
// outFound the winning bits stay set and s.pos / s.fate hold the full
// serialization and fate assignment. A state is memoized as failed only
// when its whole subtree was explored within the node budget; a
// truncated subtree yields outTruncated, which propagates without
// memoization. With a sink set, every leaf is sunk and fails, so the
// search never returns outFound.
//
// The memo is sound because nothing below a node depends on the path
// that reached it: which candidates are placeable, their legality and
// successor states, and the symmetry filter are all functions of
// (placed, vid) alone. So the subtree below a node is a function of the
// node, and a failure recorded there — or, when enumerating, the finals
// already sunk below it — holds for every other path that reaches it.
func (s *searcher) search(placed bitset, count int, vid stateID) outcome {
	if *s.nodes >= s.maxNodes {
		return outTruncated
	}
	*s.nodes++
	if count == s.n {
		if s.sink != nil {
			s.sink(vid)
			return outFailed
		}
		return outFound
	}
	if s.memoHas(placed, vid) {
		return outFailed
	}
	for i := 0; i < s.n; i++ {
		if placed.has(i) || !placed.covers(s.preds[i]) || s.symBlocked(i, placed) {
			continue
		}
		next, legal := s.ctx.step(vid, s.sigs[i], s.execs[i])
		if !legal {
			continue
		}
		s.pos = append(s.pos, int32(i))
		placed.set(i)
		var out outcome
		switch s.decide[i] {
		case decideCommitted:
			s.fate[i] = true
			out = s.search(placed, count+1, next)
		case decideAborted:
			s.fate[i] = false
			out = s.search(placed, count+1, vid)
		case decideBranch:
			// Abort first: it keeps the object states unchanged, matching
			// the reference engine's enumeration order (completion mask 0
			// aborts every commit-pending transaction).
			s.fate[i] = false
			out = s.search(placed, count+1, vid)
			if out == outFailed {
				s.fate[i] = true
				out = s.search(placed, count+1, next)
			}
		}
		if out == outFound {
			return outFound
		}
		placed.clear(i)
		s.pos = s.pos[:len(s.pos)-1]
		if out == outTruncated {
			// The budget is global, so every remaining candidate would
			// truncate too; bail without memoizing this state.
			return outTruncated
		}
	}
	s.memoInsert(placed, vid)
	return outFailed
}

// findSerialization searches for an order of the history's transactions
// such that every ordering constraint holds and every transaction is
// legal on the object states produced by the committed transactions
// placed before it, choosing a commit/abort fate for every decideBranch
// transaction along the way. It reports whether such an order exists
// (under some fate assignment), leaving it in s.pos and s.fate until the
// searcher's next call. ErrSearchLimit is returned when the node budget
// is exhausted first.
func (s *searcher) findSerialization(o serializeOptions) (bool, error) {
	s.setup(o)
	if o.hint != nil && s.validate(o.hint) {
		return true, nil
	}
	s.prepare(o.disableSym, nil)
	switch s.search(s.placed, 0, s.init) {
	case outFound:
		return true, nil
	case outTruncated:
		return false, ErrSearchLimit
	}
	return false, nil
}

// acquire returns ctx's searcher, marked active for one checker call
// until release. Every call of the package runs on the context's one
// searcher, Appender and pinned generation, so a call made while another
// is active on the same context — possible only through a custom
// spec.State whose Step calls the checker on that context — would reset
// them under the outer search. acquire panics instead, before the nested
// call touches anything.
func acquire(ctx *SearchContext) *searcher {
	s := &ctx.srch
	if s.active {
		panic("core: checker called on a SearchContext from inside a search on it")
	}
	s.ctx = ctx
	s.active = true
	return s
}

func (s *searcher) release() { s.active = false }

// enumerateFinals runs the reachable-final-state enumeration for a fully
// decided problem (no decideBranch transactions): the search runs with a
// sink at its leaves, so sink receives the interned final object-state
// vector of every legal serialization of the history's transactions — one
// class-sorted representative per class of the symmetry reduction, whose
// members all reach the same final state, so the reduction loses
// nothing. The memo then records states already enumerated: the
// reachable-final set below a (placed, state) node is a pure function of
// the node, so a second visit contributes nothing new. The caller
// deduplicates if desired (distinct classes may sink one vector several
// times). It returns ErrSearchLimit when the node budget is exhausted
// before the enumeration completes — the caller must then discard
// everything sunk, since uncovered serializations may reach states never
// reported.
func (s *searcher) enumerateFinals(o serializeOptions, sink func(stateID)) error {
	s.setup(o)
	s.prepare(o.disableSym, sink)
	if s.search(s.placed, 0, s.init) == outTruncated {
		return ErrSearchLimit
	}
	return nil
}
