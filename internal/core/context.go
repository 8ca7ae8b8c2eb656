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
// searches applied, the memo entries its searches recorded, and the
// table inserts it performed. Every entry of a table set is minted by
// exactly one context, so the contexts sharing one set never count an
// insert twice, and summing their Stats with Add yields the set's
// totals — the per-worker contexts of a checkpool run, or of every shard
// a dist worker checks, aggregate exactly. A context from
// NewSearchContext is its table set's only user, so its Stats cover the
// whole set. All counters are cumulative over the context's lifetime,
// across generation swaps.
type Stats struct {
	// States is the number of distinct object-state vectors interned.
	States int
	// Atoms is the number of distinct single-object states interned.
	Atoms int
	// TxSigs is the number of distinct transaction replay signatures.
	TxSigs int
	// MemoEntries counts failure-verdict insertions into the memos of
	// the context's searches (each search's memo is dropped when the
	// search ends, so this is a count of insertions, not of entries
	// held); MemoHits and MemoMisses count memo lookup outcomes (their
	// sum is the lookup count, so MemoHits/(MemoHits+MemoMisses) is the
	// memo hit rate); TransHits / TransMisses count transition-cache
	// outcomes (a miss replays the transaction, a hit is a table probe).
	MemoEntries int
	MemoHits    int
	MemoMisses  int
	TransHits   int
	TransMisses int
	// Flushes counts the generation swaps the context performed: the
	// table set outgrew its size bound and was replaced by a fresh one
	// (see SharedTables). The swap an Incremental makes at a checkpoint
	// (see TryTruncate) is not counted.
	Flushes int
	// SymClasses counts the non-singleton symmetry classes detected
	// across calls (groups of ≥2 interchangeable transactions whose
	// placements the search canonicalizes), only in calls that search or
	// enumerate — a call whose hint validates (the Incremental fast path)
	// counts none; SymPrunes counts candidate placements skipped because
	// an earlier member of the candidate's class was still unplaced;
	// LegalSkips counts candidate placements skipped by the incremental
	// legality watch without probing the transition cache (the candidate
	// was known-illegal on the current states of every object it
	// touches).
	SymClasses int
	SymPrunes  int
	LegalSkips int
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.States += o.States
	s.Atoms += o.Atoms
	s.TxSigs += o.TxSigs
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

// SearchContext is one goroutine's handle on a set of search tables
// (SharedTables) — the atom, signature and state-vector interners and
// the transition cache — plus its own atom step cache, resident searcher
// and the history.Appender a one-shot check loads its history into. A
// fresh context over a fresh table set is created internally for every
// call that does not supply one; supplying one (Config.Context) reuses
// the tables across calls, which is what makes the O(n) prefix scan of
// FirstNonOpaquePrefix, the per-removed-transaction re-checks of
// Diagnose, and long batch runs amortize their state exploration.
//
// Reuse is sound because every table is keyed by what it depends on:
// atoms, signatures and state vectors are pure values, and transitions
// are keyed by (state, transaction replay signature). The failure memo
// is not among the tables: it belongs to one search and is emptied
// before the next, so a call's node count depends on its history and
// Config alone, never on what the context checked before.
//
// A SearchContext is not safe for concurrent use. Give each goroutine
// its own: NewSearchContext for a private table set, or
// SharedTables.NewContext for a context over a set that other
// goroutines' contexts populate too. Nor does it nest: one checker call
// at a time runs on it, and a call made from inside another on the same
// context (a custom spec.State whose Step calls the checker) panics.
type SearchContext struct {
	// tables is the table set behind this context; gen is its
	// generation pinned for the current call. The atom step cache (steps
	// below) stays private to the context — a step is cheap to
	// recompute, so sharing it would buy little beyond lock traffic and a
	// second copy — and is cleared on every generation change.
	tables *SharedTables
	gen    *sharedGen

	defReg int32 // interned default object state (register 0)

	// objIdx/objs mirror a prefix of the generation's object registry,
	// so hot-path index lookups never touch the registry lock.
	objIdx map[history.ObjID]int32
	objs   []history.ObjID

	steps map[atomStep]atomStepVal

	// initEmpty caches initialState(nil-or-empty Objects) — the common
	// configuration — within one generation; -1 means not cached.
	initEmpty stateID

	stats Stats

	keyBuf []byte
	vecBuf []int32
	srch   searcher

	// batch is what a one-shot Check loads its history into (see
	// oneShot).
	batch liveSuffix
}

// NewSearchContext returns a context over its own fresh table set,
// ready to be shared across checker calls on one goroutine.
func NewSearchContext() *SearchContext { return NewSharedTables().NewContext() }

// Stats returns a snapshot of the context's counters.
func (c *SearchContext) Stats() Stats { return c.stats }

// oneShot returns the live suffix a one-shot check loads its history
// into: the context's own Appender, which Load empties, with no cached
// signature or root state, so nothing carries from one checked history
// to the next. Emptying clears the Appender's maps, which costs their
// capacity, so an Appender a large history grew is replaced instead (the
// memo's bound applies).
func (c *SearchContext) oneShot() *liveSuffix {
	l := &c.batch
	if l.app == nil || len(l.app.Transactions()) > memoReuseBound || len(l.app.Objects()) > memoReuseBound {
		l.app = history.NewAppender()
	}
	l.reset()
	return l
}

// pin fixes the generation the context's next call runs on, swapping in
// a fresh generation first when the table set outgrew its bound.
// Crossing into a new generation invalidates everything local that
// referred to the old one: the registry mirror, the default-register
// atom, the empty-initial-state id and the step cache. searcher.setup
// pins before a search interns anything, so the only stateIDs a swap
// could strand would be an outer call's — and acquire refuses nested
// calls.
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
}

// rotate moves the context to a fresh generation now, instead of at the
// size bound, and lets its current one go. It is for a table set's only
// user, between calls, holding no stateID of the retired generation: an
// Incremental that created its context, right after a checkpoint.
func (c *SearchContext) rotate() {
	c.tables.swap(c.gen)
	c.pin()
}

// resident returns the number of entries the generation the context is
// pinned to holds: state vectors, replay signatures, transitions and
// atoms. Unlike Stats, which counts every insert since the context
// began, it falls when a generation is retired.
func (c *SearchContext) resident() int { return int(c.gen.size()) }

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
// state vectors, transitions, replay signatures and interned atoms
// alike — and, separately, of each context's private step cache.
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
// identity in the transition cache and the symmetry-class computation,
// and it is stable across calls and contexts (the rendering references
// object names, never registry indices).
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
