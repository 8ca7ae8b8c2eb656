package core

import (
	"otm/internal/history"
	"otm/internal/spec"
)

// stateID identifies one interned object-state vector in a table set:
// the dense states of every registered object, indexed by registration
// order. Two search nodes with equal stateIDs have identical object
// states, so the id substitutes for the per-node state fingerprint the
// memo and transition caches used to render as strings.
type stateID = int32

// Stats are the observability counters of a SearchContext: the lookups
// it made (memo and transition hits and misses), the reductions its
// searches applied, and the table inserts it performed. Every entry of
// a table set is minted by exactly one context, so the contexts sharing
// one set never count an insert twice, and summing their Stats with Add
// yields the set's totals — the per-worker contexts of a checkpool run,
// or of every shard a dist worker checks, aggregate exactly. A context
// from NewSearchContext is its table set's only user, so its Stats cover
// the whole set. All counters are cumulative over the context's
// lifetime, across generation swaps.
type Stats struct {
	// States is the number of distinct object-state vectors interned.
	States int
	// Atoms is the number of distinct single-object states interned.
	Atoms int
	// TxSigs is the number of distinct transaction replay signatures.
	TxSigs int
	// Problems is the number of distinct search problems the context has
	// scoped memo entries by. Only calls that search or enumerate derive
	// a problem: a call whose hint validates (the Incremental fast path)
	// counts none.
	Problems int
	// MemoEntries counts failure-verdict insertions; MemoHits and
	// MemoMisses count memo lookup outcomes (their sum is the lookup
	// count, so MemoHits/(MemoHits+MemoMisses) is the memo hit rate);
	// TransHits / TransMisses count transition-cache outcomes (a miss
	// replays the transaction, a hit is a table probe).
	MemoEntries int
	MemoHits    int
	MemoMisses  int
	TransHits   int
	TransMisses int
	// Flushes counts the generation swaps the context performed: the
	// table set outgrew its size bound and was replaced by a fresh one
	// (see SharedTables).
	Flushes int
	// SymClasses counts the non-singleton symmetry classes detected
	// across calls (groups of ≥2 interchangeable transactions whose
	// placements the search canonicalizes), like Problems only in calls
	// that search or enumerate; SymPrunes counts candidate
	// placements skipped because an earlier member of the candidate's
	// class was still unplaced; LegalSkips counts candidate placements
	// skipped by the incremental legality watch without probing the
	// transition cache (the candidate was known-illegal on the current
	// states of every object it touches).
	SymClasses int
	SymPrunes  int
	LegalSkips int
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.States += o.States
	s.Atoms += o.Atoms
	s.TxSigs += o.TxSigs
	s.Problems += o.Problems
	s.MemoEntries += o.MemoEntries
	s.MemoHits += o.MemoHits
	s.MemoMisses += o.MemoMisses
	s.TransHits += o.TransHits
	s.TransMisses += o.TransMisses
	s.Flushes += o.Flushes
	s.SymClasses += o.SymClasses
	s.SymPrunes += o.SymPrunes
	s.LegalSkips += o.LegalSkips
}

// transKey keys the transition cache: replaying the transaction with
// signature sig on the object states of state. The replay outcome is a
// pure function of the two, so the cache is valid across search nodes,
// completions, and separate checker calls sharing the context.
type transKey struct {
	state stateID
	sig   int32
}

// transVal is a cached replay outcome: legal tells whether every
// completed operation execution was accepted, next is the resulting
// state (-1 when illegal).
type transVal struct {
	next  stateID
	legal bool
}

// atomStep keys the single-object step cache: one operation execution
// applied to one interned object state. Argument and return values are
// comparable by the history model's contract, so they can key a map
// directly. The cache is what keeps spec.State.Step — and the Key
// rendering of its result — off the hot path even when whole-vector
// transitions miss: two state vectors differing only in objects a
// transaction does not touch replay it through identical atom steps.
type atomStep struct {
	atom int32
	op   string
	arg  history.Value
	ret  history.Value
}

// atomStepVal is a cached step outcome (next is meaningless when the
// step is illegal).
type atomStepVal struct {
	next  int32
	legal bool
}

// memoKey keys the failure memo: search states are identified by the
// scoping problem id, the interned object-state vector, the last placed
// transaction (part of the key because the partial-order reduction
// prunes successors relative to it) and the placed-transaction bitset,
// inlined for histories of up to 128 transactions. Wider bitsets take
// the string-keyed spill path (memoWide).
type memoKey struct {
	problem int32
	state   stateID
	last    int32
	lo, hi  uint64
}

// SearchContext is one goroutine's handle on a set of search tables
// (SharedTables) — the atom and state-vector interners, the transition
// cache and the failure memo — plus its own atom step cache. A fresh
// context over a fresh table set is created internally for every call
// that does not supply one; supplying one (Config.Context,
// SerializeOptions.Context) reuses the tables across calls, which is
// what makes the O(n) prefix scan of FirstNonOpaquePrefix, the
// per-removed-transaction re-checks of Diagnose, and long batch runs
// amortize their state exploration.
//
// Reuse is sound because every table is scoped by what it depends on:
// atoms and state vectors are pure values; transitions are keyed by
// (state, transaction replay signature); and memo entries are scoped by
// a problem signature covering the transactions' replay signatures,
// commit decisions, ordering constraints and initial states — two calls
// share memo entries only when they pose structurally identical search
// problems. Budget-truncated subtrees are never memoized (see
// searcher.search), so a verdict cut short by MaxNodes can never be
// replayed as a definitive failure by a later call.
//
// A SearchContext is not safe for concurrent use. Give each goroutine
// its own: NewSearchContext for a private table set, or
// SharedTables.NewContext for a context over a set that other
// goroutines' contexts populate too.
type SearchContext struct {
	// tables is the table set behind this context; gen is its
	// generation pinned for the current call. Two caches stay private to
	// the context: the steps map below (the atom step cache — a step is
	// cheap to recompute, so sharing it would buy little beyond lock
	// traffic and a second copy) and the memo/memoWide maps, which hold
	// the entries of problems this context owns (see owned). Both are
	// cleared on every generation change.
	tables *SharedTables
	gen    *sharedGen

	// owned is the set of problem ids this context interned first. Memo
	// entries are problem-scoped, so for a problem no other context has
	// ever posed, the set's memo cannot hold or ever be asked for its
	// entries by anyone else — the owner keeps them in its private maps
	// at plain-map cost. Contexts that re-pose a problem someone else
	// minted (duplicate histories) read and write the locked memo of the
	// set instead, which is where cross-worker memo reuse actually pays.
	// Cleared, with the private maps, on every generation change: ids do
	// not outlive their generation. Indexed by problem id.
	owned bitset
	// memoOwnProblem/memoOwn memoize the last owned-lookup: memo probes
	// arrive in long per-problem runs (one search call = one problem),
	// so almost every probe short-circuits to an int compare.
	memoOwnProblem int32
	memoOwn        bool

	defReg int32 // interned default object state (register 0)

	// objIdx/objs mirror a prefix of the generation's object registry,
	// so hot-path index lookups never touch the registry lock.
	objIdx map[history.ObjID]int32
	objs   []history.ObjID

	steps    map[atomStep]atomStepVal
	memo     map[memoKey]struct{}
	memoWide map[string]struct{}

	// initEmpty caches initialState(nil-or-empty Objects) — the common
	// configuration — within one generation; -1 means not cached.
	initEmpty stateID

	stats Stats

	keyBuf []byte
	vecBuf []int32
	srch   searcher
}

// NewSearchContext returns a context over its own fresh table set,
// ready to be shared across checker calls on one goroutine.
func NewSearchContext() *SearchContext { return NewSharedTables().NewContext() }

// Stats returns a snapshot of the context's counters.
func (c *SearchContext) Stats() Stats { return c.stats }

// pin fixes the generation the context's next call runs on, swapping in
// a fresh generation first when the table set outgrew its bound.
// Crossing into a new generation invalidates everything local that
// referred to the old one: the registry mirror, the default-register
// atom, the empty-initial-state id, the step cache and the
// owned-problem memo. Callers must not pin from a re-entrant call
// (searcher.setup skips pinning when it runs on a non-resident
// searcher), or the generation would move out from under the outer
// call's stateIDs.
func (c *SearchContext) pin() {
	g, swapped := c.tables.pin()
	if swapped {
		c.stats.Flushes++
	}
	if g == c.gen {
		return
	}
	c.gen = g
	c.defReg = c.internAtom(spec.NewRegister(0))
	clear(c.objIdx)
	c.objs = c.objs[:0]
	c.initEmpty = -1
	clear(c.steps)
	clear(c.memo)
	clear(c.memoWide)
	c.owned = c.owned[:0]
	c.memoOwnProblem = -1
}

// registerObjects ensures ids are in the generation's registry and
// syncs the context's mirror (objIdx/objs) up to at least every id it
// needs. The mirror is always an exact prefix of the registry, so local
// index lookups agree with every other context's and footprint bitsets
// sized by the mirror cover all of this call's objects. Registry growth
// invalidates nothing: interned vectors are stored canonical (see
// internVec), independent of the registry's size.
func (c *SearchContext) registerObjects(ids []history.ObjID) {
	missing := false
	for _, id := range ids {
		if _, ok := c.objIdx[id]; !ok {
			missing = true
			break
		}
	}
	if !missing {
		return
	}
	g := c.gen
	g.objMu.Lock()
	for _, id := range ids {
		if _, ok := g.objIdx[id]; !ok {
			g.objIdx[id] = int32(len(g.objs))
			g.objs = append(g.objs, id)
		}
	}
	for j := len(c.objs); j < len(g.objs); j++ {
		id := g.objs[j]
		c.objIdx[id] = int32(j)
		c.objs = append(c.objs, id)
	}
	g.objMu.Unlock()
}

// maxTableEntries bounds the size of one generation of a table set —
// memo, transitions, replay signatures and interned atoms alike — and,
// separately, of each context's private step cache and owned memo.
// Long-lived tables (a checkpool run over a million-history batch of
// diverse values) would otherwise grow without limit; crossing the bound
// swaps in a fresh generation between calls — cheap relative to the work
// the tables cached — and starts re-filling it.
const maxTableEntries = 1 << 20

// internAtom interns one single-object state.
func (c *SearchContext) internAtom(st spec.State) int32 {
	id, fresh := c.gen.atoms.Intern(st)
	if fresh {
		c.stats.Atoms++
	}
	return id
}

// internVec interns the vector in vecBuf in canonical form: trailing
// default-register atoms are trimmed, so the same logical state has one
// id regardless of how large the registry was when it was first
// reached. (An object absent from a stored vector is by construction
// still at its default initial state; replay and materialize pad reads
// back out with defReg.)
func (c *SearchContext) internVec() stateID {
	vec := c.vecBuf
	for len(vec) > 0 && vec[len(vec)-1] == c.defReg {
		vec = vec[:len(vec)-1]
	}
	buf := c.keyBuf[:0]
	for _, a := range vec {
		buf = append(buf, byte(a), byte(a>>8), byte(a>>16), byte(a>>24))
	}
	c.keyBuf = buf
	id, fresh := c.gen.vecIdx.intern(buf)
	if fresh {
		c.stats.States++
		c.gen.entries.Add(1)
	}
	return id
}

// appendVec appends the atoms of the stored (canonical, possibly
// trimmed) vector vid to dst, decoding its key.
func (c *SearchContext) appendVec(dst []int32, vid stateID) []int32 {
	key := c.gen.vecIdx.key(vid)
	for i := 0; i+4 <= len(key); i += 4 {
		dst = append(dst, int32(uint32(key[i])|uint32(key[i+1])<<8|uint32(key[i+2])<<16|uint32(key[i+3])<<24))
	}
	return dst
}

// initialState interns the initial object-state vector implied by objs:
// each registered object takes its state from objs, or the default
// integer register initialized to 0 — the same default replayTx applies.
func (c *SearchContext) initialState(objs spec.Objects) stateID {
	if len(objs) == 0 {
		if c.initEmpty >= 0 {
			return c.initEmpty
		}
		c.vecBuf = c.vecBuf[:0]
		for range c.objs {
			c.vecBuf = append(c.vecBuf, c.defReg)
		}
		c.initEmpty = c.internVec()
		return c.initEmpty
	}
	c.vecBuf = c.vecBuf[:0]
	for _, id := range c.objs {
		a := c.defReg
		if st, ok := objs[id]; ok {
			a = c.internAtom(st)
		}
		c.vecBuf = append(c.vecBuf, a)
	}
	return c.internVec()
}

// sigOf interns the replay signature of one transaction's operation
// executions — the canonical history.OpSignature rendering (object,
// operation, argument and return value of every completed execution, in
// order, injection-safe). Two transactions with equal signatures replay
// identically from any state, so the signature is the transaction's
// identity in the transition cache, the problem signature and the
// symmetry-class computation, and it is stable across calls and contexts
// (the rendering references object names, never registry indices).
func (c *SearchContext) sigOf(execs []history.OpExec) int32 {
	buf := history.AppendOpSignature(c.keyBuf[:0], execs)
	c.keyBuf = buf
	id, fresh := c.gen.sigIdx.intern(buf)
	if fresh {
		c.stats.TxSigs++
		c.gen.entries.Add(1)
	}
	return id
}

// appendFramed appends a 4-byte little-endian length followed by the
// bytes render produces, making the field self-delimiting regardless of
// its content.
func appendFramed(buf []byte, render func([]byte) []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = render(buf)
	n := uint32(len(buf) - start - 4)
	buf[start] = byte(n)
	buf[start+1] = byte(n >> 8)
	buf[start+2] = byte(n >> 16)
	buf[start+3] = byte(n >> 24)
	return buf
}

// step replays the transaction with the given signature on state vid,
// through the transition cache: each (state, signature) pair is replayed
// at most once per table set, not once per (search node, candidate)
// pair, and every context sharing the set sees every sibling's replays.
func (c *SearchContext) step(vid stateID, sig int32, execs []history.OpExec) (stateID, bool) {
	k := transKey{state: vid, sig: sig}
	if v, ok := c.gen.trans.get(k); ok {
		c.stats.TransHits++
		return v.next, v.legal
	}
	c.stats.TransMisses++
	// The replay outcome is a pure function of (vid, sig) — stored
	// vectors are canonical and signatures pin the registry indices they
	// touch — so racing contexts compute the same value and
	// first-writer-wins is sound.
	v := c.replay(vid, execs)
	if c.gen.trans.put(k, v) {
		c.gen.entries.Add(1)
	}
	return v.next, v.legal
}

// replay applies a transaction's completed operation executions to the
// object-state vector vid, returning the cached transition value. The
// stored vector may be shorter than the registry mirror (canonical
// trimming); absent positions are still at the default register state
// and are padded back out.
func (c *SearchContext) replay(vid stateID, execs []history.OpExec) transVal {
	c.vecBuf = c.appendVec(c.vecBuf[:0], vid)
	for len(c.vecBuf) < len(c.objs) {
		c.vecBuf = append(c.vecBuf, c.defReg)
	}
	changed := false
	v := transVal{next: -1, legal: true}
	for _, e := range execs {
		if e.Pending {
			continue
		}
		j := c.objIdx[e.Obj]
		a, ok := c.stepAtom(c.vecBuf[j], e)
		if !ok {
			v.legal = false
			break
		}
		if a != c.vecBuf[j] {
			c.vecBuf[j] = a
			changed = true
		}
	}
	if v.legal {
		if changed {
			v.next = c.internVec()
		} else {
			v.next = vid
		}
	}
	return v
}

// stepAtom applies one completed operation execution to one interned
// object state, through the context's atom step cache: each (state,
// operation, argument, return) combination calls spec.State.Step — and
// pays the Key rendering of the result — once per context and
// generation. Atom ids come from the generation's interner, so every
// context derives identical entries.
func (c *SearchContext) stepAtom(atom int32, e history.OpExec) (int32, bool) {
	k := atomStep{atom: atom, op: e.Op, arg: e.Arg, ret: e.Ret}
	if v, ok := c.steps[k]; ok {
		return v.next, v.legal
	}
	next, legal := c.gen.atoms.State(atom).Step(e.Op, e.Arg, e.Ret)
	v := atomStepVal{next: -1, legal: legal}
	if legal {
		v.next = c.internAtom(next)
	}
	c.steps[k] = v
	return v.next, v.legal
}

// Problem kinds: the leading byte of every problem signature. Memo
// entries under a search problem mean "this subtree has no witness";
// under an enumeration problem they mean "this subtree was already
// enumerated". The kinds give the two disjoint keyspaces in the shared
// memo table, so neither can ever answer the other's lookups.
const (
	problemSearch byte = iota
	problemEnum
)

// problemOf interns the signature of one search problem: the problem
// kind, the number of transactions, the initial state, and per
// transaction (in placement-index order) its replay signature, commit
// decision, predecessor bitset and symmetry-class predecessor. Memo
// entries are scoped by the resulting id, so two calls share them exactly
// when they pose the same search problem — the transaction ids themselves
// are irrelevant to failure verdicts and do not participate. Footprints
// (and with them the partial-order reduction) are a function of the
// replay signatures, so they need no separate representation. The
// classPrev entries are a pure function of the preceding fields today,
// but they shape which subtrees the symmetry-reduced engine explores, so
// they participate explicitly: an engine variant with the reduction
// disabled (SerializeOptions.DisableSym) poses all-singleton classes and
// can never share memo entries with a reduced search over real classes —
// even across the contexts of one table set.
func (c *SearchContext) problemOf(kind byte, salt int32, init stateID, sigs []int32, decide []Decision, preds []bitset, classPrev []int32) int32 {
	buf := c.keyBuf[:0]
	buf = append(buf, kind, byte(salt), byte(salt>>8), byte(salt>>16), byte(salt>>24))
	n := uint32(len(sigs))
	buf = append(buf, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	buf = append(buf, byte(init), byte(init>>8), byte(init>>16), byte(init>>24))
	for i := range sigs {
		s := sigs[i]
		buf = append(buf, byte(s), byte(s>>8), byte(s>>16), byte(s>>24), byte(decide[i]))
		buf = preds[i].appendKey(buf)
		p := classPrev[i]
		buf = append(buf, byte(p), byte(p>>8), byte(p>>16), byte(p>>24))
	}
	c.keyBuf = buf
	id, fresh := c.gen.problems.intern(buf)
	if fresh {
		c.stats.Problems++
		c.gen.entries.Add(1)
		for int(id>>6) >= len(c.owned) {
			c.owned = append(c.owned, 0)
		}
		c.owned.set(int(id))
	}
	return id
}

// materialize renders one interned state vector as a durable Objects
// map: every registered object mapped to its (canonical, immutable)
// spec.State. The result references no table, so it survives generation
// swaps — checkpoint roots are kept in this form and re-interned per
// check, precisely because stateIDs do not outlive the generation that
// issued them.
func (c *SearchContext) materialize(vid stateID) spec.Objects {
	out := make(spec.Objects, len(c.objs))
	vec := c.appendVec(nil, vid)
	for j, id := range c.objs {
		a := c.defReg
		if j < len(vec) {
			a = vec[j]
		}
		out[id] = c.gen.atoms.State(a)
	}
	return out
}

// ownsProblem reports whether this context minted the problem,
// memoizing the last answer: probes arrive in per-problem runs, so the
// owned-map lookup happens once per run.
func (c *SearchContext) ownsProblem(problem int32) bool {
	if problem != c.memoOwnProblem {
		ok := int(problem>>6) < len(c.owned) && c.owned.has(int(problem))
		c.memoOwnProblem, c.memoOwn = problem, ok
	}
	return c.memoOwn
}

// memoIndex builds the inline memo key for placed bitsets of at most two
// words; ok is false when the bitset is wider and the spill path applies.
func memoIndex(problem int32, placed bitset, last int, vid stateID) (memoKey, bool) {
	if len(placed) > 2 {
		return memoKey{}, false
	}
	k := memoKey{problem: problem, state: vid, last: int32(last), lo: placed[0]}
	if len(placed) == 2 {
		k.hi = placed[1]
	}
	return k, true
}

// wideKey renders the spill memo key for >128-transaction histories.
func (c *SearchContext) wideKey(problem int32, placed bitset, last int, vid stateID) []byte {
	buf := c.keyBuf[:0]
	buf = append(buf, byte(problem), byte(problem>>8), byte(problem>>16), byte(problem>>24))
	buf = append(buf, byte(vid), byte(vid>>8), byte(vid>>16), byte(vid>>24))
	u := uint32(last + 1)
	buf = append(buf, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	buf = placed.appendKey(buf)
	c.keyBuf = buf
	return buf
}

// memoHas reports whether the search state was recorded as a definitive
// failure.
func (c *SearchContext) memoHas(problem int32, placed bitset, last int, vid stateID) bool {
	var ok bool
	own := c.ownsProblem(problem)
	k, inline := memoIndex(problem, placed, last, vid)
	switch {
	case own && inline:
		// This context minted the problem; its entries live in the
		// private maps and no sibling can ever pose it (see owned).
		_, ok = c.memo[k]
	case own:
		_, ok = c.memoWide[string(c.wideKey(problem, placed, last, vid))]
	case inline:
		ok = c.gen.memo.has(k)
	default:
		_, ok = c.gen.memoWide.get(c.wideKey(problem, placed, last, vid))
	}
	if ok {
		c.stats.MemoHits++
	} else {
		c.stats.MemoMisses++
	}
	return ok
}

// memoInsert records the search state as a definitive failure. Callers
// must never insert a state whose subtree was truncated by the node
// budget: with tables shared across calls and contexts, a truncated
// verdict replayed as a failure would be unsound.
func (c *SearchContext) memoInsert(problem int32, placed bitset, last int, vid stateID) {
	own := c.ownsProblem(problem)
	k, inline := memoIndex(problem, placed, last, vid)
	inserted := true
	switch {
	case own && inline:
		c.memo[k] = struct{}{}
	case own:
		c.memoWide[string(c.wideKey(problem, placed, last, vid))] = struct{}{}
	case inline:
		inserted = c.gen.memo.put(k)
	default:
		_, inserted = c.gen.memoWide.intern(c.wideKey(problem, placed, last, vid))
	}
	if inserted {
		c.stats.MemoEntries++
	}
}
