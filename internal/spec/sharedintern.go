package spec

import (
	"fmt"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"
)

// SharedInterner assigns small dense integer ids to States, keyed by
// State.Key: two states whose keys are equal — which by the State
// contract accept exactly the same continuations — receive the same id,
// and distinct keys receive distinct ids. Checkers use the ids as
// word-sized proxies for states, so that comparing (or hashing) whole
// object-state vectors is integer arithmetic instead of string building.
//
// A SharedInterner also canonicalizes: State returns one representative
// per id, so repeatedly reached equal states share a single boxed value
// regardless of how many distinct State values produced them.
//
// Many goroutines may Intern and resolve states at once: the key table
// is distributed over lock stripes so concurrent interning of distinct
// states rarely contends, and the representatives live in an
// append-only paged array so State(id) is a lock-free read. It backs
// the search tables of internal/core (core.SharedTables), where every
// checkpool worker interns into one table instead of paying the
// interning ×Workers times.
//
// Ids are int32, so one interner can hold at most 2^31-1 distinct
// states; Intern panics loudly if the limit is ever reached instead of
// silently wrapping ids (see maxInternStates). In practice the search
// tables of internal/core swap in a fresh generation long before then,
// between checks; only a single check interning about 2^31 states can
// reach the limit, which is why opacheck and otmd document it next to
// -maxnodes.
type SharedInterner struct {
	stripes [internStripes]internStripe
	states  pagedStates
}

// internStripes must be a power of two; 64 keeps 8–16 workers almost
// always on distinct stripes after the warmup phase.
const internStripes = 64

// internStripe is one lock stripe; its map is made on its first insert.
type internStripe struct {
	mu  sync.RWMutex
	ids map[string]int32
}

// maxInternStates caps the number of distinct states one interner can
// hold: ids are int32 and must never wrap. A variable rather than a
// constant so the overflow path is testable without interning 2^31
// states.
var maxInternStates = int64(math.MaxInt32)

// checkInternLimit panics if assigning the id n would leave the int32 id
// space. n is the number of states already interned.
func checkInternLimit(n int64) {
	if n >= maxInternStates {
		panic(fmt.Sprintf(
			"spec: interner overflow: %d distinct states already interned, int32 id space exhausted; "+
				"lower the per-history node budget (-maxnodes) or flush/rebuild the search context", n))
	}
}

// NewSharedInterner returns an empty SharedInterner.
func NewSharedInterner() *SharedInterner { return &SharedInterner{} }

// stripeSeed seeds the stripe choice; only the stripe depends on it.
var stripeSeed = maphash.MakeSeed()

// Intern returns the id of st, assigning the next free id if st's key has
// not been seen before, and reports whether it assigned one. Concurrent
// calls with equal keys always agree on the id, and exactly one of them
// reports the assignment: the losing racer re-checks under the stripe's
// write lock before allocating. It panics if the int32 id space is
// exhausted rather than wrapping ids silently.
func (it *SharedInterner) Intern(st State) (int32, bool) {
	key := st.Key()
	sp := &it.stripes[maphash.String(stripeSeed, key)&(internStripes-1)]
	sp.mu.RLock()
	id, ok := sp.ids[key]
	sp.mu.RUnlock()
	if ok {
		return id, false
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if id, ok := sp.ids[key]; ok {
		return id, false
	}
	if sp.ids == nil {
		sp.ids = make(map[string]int32)
	}
	id = it.states.append(st)
	sp.ids[key] = id
	return id, true
}

// State returns the canonical representative of id without locking. It
// panics if id was not returned by Intern.
func (it *SharedInterner) State(id int32) State { return it.states.get(id) }

// Len returns the number of distinct states interned so far. Under
// concurrent interning the count is a snapshot, monotonically
// non-decreasing.
func (it *SharedInterner) Len() int { return it.states.len() }

// pagedStates is an append-only id-indexed store. Appends are serialized
// by a mutex; reads index fixed-size pages through an atomically
// published page table, so resolving an id never takes a lock and never
// races with a concurrent append (an id is only ever read after it was
// published through some synchronized table, which happens-after the
// slot write). Pages hold 256 states, so a short-lived interner
// allocates little.
const (
	internPageShift = 8
	internPageSize  = 1 << internPageShift
)

type internPage [internPageSize]State

type pagedStates struct {
	mu    sync.Mutex
	pages atomic.Pointer[[]*internPage]
	n     atomic.Int64
}

func (p *pagedStates) append(st State) int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.n.Load()
	checkInternLimit(n)
	var pages []*internPage
	if t := p.pages.Load(); t != nil {
		pages = *t
	}
	if int(n>>internPageShift) == len(pages) {
		grown := make([]*internPage, len(pages)+1)
		copy(grown, pages)
		grown[len(pages)] = new(internPage)
		p.pages.Store(&grown)
		pages = grown
	}
	pages[n>>internPageShift][n&(internPageSize-1)] = st
	p.n.Store(n + 1)
	return int32(n)
}

func (p *pagedStates) get(id int32) State {
	return (*p.pages.Load())[id>>internPageShift][id&(internPageSize-1)]
}

func (p *pagedStates) len() int { return int(p.n.Load()) }
