package core

import (
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"

	"otm/internal/history"
	"otm/internal/spec"
)

// SharedTables is the one implementation of the search tables: a set of
// state atoms, interned state vectors, transition cache, failure memo
// and problem signatures that any number of goroutines read and
// populate at once. Each goroutine owns a SearchContext (NewContext) for
// its scratch buffers and searcher, while every table probe and insert
// lands in the set, so N workers on one set intern each distinct state
// once instead of up to N times and every worker benefits from every
// other worker's memo and transition entries. A context from
// NewSearchContext is the one-user case: a fresh set behind a single
// context.
//
// Concurrency design: the hot tables — transitions (transTable) and the
// string-keyed interning indexes (keyTable) — are lock-free open-addressed
// hash tables whose probes are plain atomic loads; inserts CAS-claim a
// slot and publish the value with a second store, and growth doubles the
// slot array under a mutex that readers never touch. Tables start small
// and grow with use, so a short-lived set costs little. keyTable inserts
// mint ids exactly once (the CAS winner runs the mint callback), which
// is what lets contexts agree on every id. The failure memo of problems
// posed by several contexts is a lock-striped Go map, and the id-indexed
// stores (state atoms, state vectors, interned keys) are append-only
// paged arrays read without locks. The atom step cache and the memo of
// problems only one context poses stay private to each context (see
// SearchContext). All cached values are pure functions of their keys,
// so racing inserts always agree and first-writer-wins is sound.
//
// Soundness rules: memo entries are scoped by problem signature,
// budget-truncated subtrees are never memoized (see searcher.search),
// and enumeration epochs come from one atomic counter per set so no two
// reachable-state enumerations — on any context — ever share a problem
// id. Two more rules keep the set flush-free while calls are in flight:
//
//   - Registry growth never flushes. State vectors are stored in
//     canonical form with trailing default-register atoms trimmed, so a
//     vector interned before an object joined the registry is the same
//     logical state (new object still at its default initial state) as
//     after — histories that introduce new objects extend the registry
//     without invalidating anything.
//
//   - The size bound is enforced by generation swap, not reset. When the
//     tables outgrow the bound, the next call (on whichever context)
//     atomically publishes a fresh generation; calls already running
//     keep their pinned generation until they finish, since stateIDs
//     must never cross table rebuilds. The swapping context counts the
//     swap as one Flush in its Stats.
type SharedTables struct {
	gen    atomic.Pointer[sharedGen]
	swapMu sync.Mutex
	// maxEntries is the generation-swap threshold; a field (not the
	// maxTableEntries constant) so tests can force swaps cheaply.
	maxEntries int64

	enumEpoch atomic.Int32
}

// NewSharedTables returns an empty table set. Derive one SearchContext
// per goroutine with NewContext.
func NewSharedTables() *SharedTables {
	s := &SharedTables{maxEntries: maxTableEntries}
	s.gen.Store(newSharedGen())
	return s
}

// NewContext returns a SearchContext backed by the table set. The
// context itself (scratch buffers, resident searcher, counters) is
// single-goroutine — give each worker its own — but everything it
// interns, caches and memoizes is shared with every sibling context.
// Its Stats count its own lookups and the inserts it performed, so the
// Stats of all contexts of one set sum to the set's totals.
func (s *SharedTables) NewContext() *SearchContext {
	c := &SearchContext{
		tables:         s,
		objIdx:         make(map[history.ObjID]int32),
		steps:          make(map[atomStep]atomStepVal),
		memo:           make(map[memoKey]struct{}),
		memoWide:       make(map[string]struct{}),
		memoOwnProblem: -1,
		initEmpty:      -1,
	}
	c.pin()
	return c
}

// pin returns the generation the next call should run on, swapping in a
// fresh one first if the current tables outgrew the bound, and reports
// whether this call swapped. Swapping is safe exactly because it happens
// between calls: in-flight calls keep using their pinned generation
// (stateIDs never cross generations), and the old tables are garbage
// once the last such call retires.
func (s *SharedTables) pin() (*sharedGen, bool) {
	g := s.gen.Load()
	if g.size() <= s.maxEntries {
		return g, false
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	cur := s.gen.Load()
	if cur != g || cur.size() <= s.maxEntries {
		return cur, false
	}
	cur = newSharedGen()
	s.gen.Store(cur)
	return cur, true
}

// sharedGen is one generation of a table set. Everything a stateID,
// atom id, signature id or problem id can refer to lives in one
// generation; a generation is immutable in structure (append-only
// registry, insert-only tables) until it is retired wholesale.
type sharedGen struct {
	atoms *spec.SharedInterner

	// Object registry: append-only, under its own lock. Contexts mirror
	// a prefix of it locally so hot-path index lookups stay lock-free
	// (see SearchContext.registerObjects).
	objMu  sync.Mutex
	objIdx map[history.ObjID]int32
	objs   []history.ObjID

	// The interning indexes: an id is its key's position in the table's
	// store, and a state vector's key is its canonical atom rendering,
	// so vecIdx is also the store of the vectors themselves.
	sigIdx   keyTable
	problems keyTable
	vecIdx   keyTable
	trans    transTable
	memo     stripedMemo
	memoWide keyTable

	// entries approximates the generation's total size (all non-atom
	// inserts) for the swap bound.
	entries atomic.Int64
}

func newSharedGen() *sharedGen {
	g := &sharedGen{
		atoms:  spec.NewSharedInterner(),
		objIdx: make(map[history.ObjID]int32),
	}
	g.sigIdx.init()
	g.problems.init()
	g.vecIdx.init()
	g.memoWide.init()
	g.trans.init()
	return g
}

func (g *sharedGen) size() int64 { return g.entries.Load() + int64(g.atoms.Len()) }

// hashSeed seeds every maphash fingerprint of the tables. Fingerprints
// never leave the process, so one random seed per process serves all
// table sets.
var hashSeed = maphash.MakeSeed()

// memoStripes must be a power of two. 64 stripes keep typical worker
// counts (≤16) almost always on distinct stripes.
const memoStripes = 64

// stripedMemo is the lock-striped memo of problems posed by several
// contexts. A stripe's map is made on its first insert.
type stripedMemo struct {
	stripes [memoStripes]memoStripe
}

type memoStripe struct {
	mu sync.RWMutex
	m  map[memoKey]struct{}
	// Pad stripes apart so read-lock traffic on neighbours does not
	// false-share a cache line.
	_ [24]byte
}

// stripe picks k's stripe by a cheap avalanche mix of its fields.
func (s *stripedMemo) stripe(k memoKey) *memoStripe {
	h := uint64(uint32(k.problem))<<32 | uint64(uint32(k.state))
	h ^= uint64(uint32(k.last)) ^ k.lo ^ k.hi
	return &s.stripes[mix64(h)&(memoStripes-1)]
}

func (s *stripedMemo) has(k memoKey) bool {
	sp := s.stripe(k)
	sp.mu.RLock()
	_, ok := sp.m[k]
	sp.mu.RUnlock()
	return ok
}

// put inserts k if absent and reports whether it inserted.
func (s *stripedMemo) put(k memoKey) bool {
	sp := s.stripe(k)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if _, ok := sp.m[k]; ok {
		return false
	}
	if sp.m == nil {
		sp.m = make(map[memoKey]struct{})
	}
	sp.m[k] = struct{}{}
	return true
}

// initialSlots is the starting capacity of every open-addressed table;
// growth doubles it as entries arrive.
const initialSlots = 1 << 6

// slots is one capacity epoch of an open-addressed table: interleaved
// (key, value) atomic words.
type slots struct {
	mask uint64
	a    []atomic.Uint64 // 2*(mask+1) words: even = key, odd = value
}

func newSlots(n uint64) *slots {
	return &slots{mask: n - 1, a: make([]atomic.Uint64, 2*n)}
}

// frozen marks an empty slot of an epoch being migrated: no key can be
// claimed there any more. Key words never take this value (see
// transEKey and fingerprint).
const frozen = ^uint64(0)

// openTable is the slot array and growth machinery shared by transTable
// and keyTable. Keys are non-zero words placed by mix64; a zero key word
// is an empty slot and a zero value word a claimed-but-unpublished one.
//
// Growth allocates a doubled epoch and migrates the old one slot by slot
// under growMu: an empty slot is frozen, a claimed one is migrated once
// its value is published. A writer that meets a frozen slot waits for
// the growth to finish and retries in the new epoch, so every key is
// published into exactly one place and is never invisible to a
// concurrent intern of the same key. Readers of the old epoch treat a
// frozen slot as empty: a miss only costs them a recompute or a retry.
type openTable struct {
	growMu sync.Mutex // held for a whole migration
	slots  atomic.Pointer[slots]
	count  atomic.Int64 // published entries; may overcount across grow races
}

func (t *openTable) init() { t.slots.Store(newSlots(initialSlots)) }

// full reports whether s has reached the ¾ load factor. With bounded
// writer counts the table can never fill between this check and the
// following single CAS, so probe loops terminate.
func (t *openTable) full(s *slots) bool { return t.count.Load()*4 >= 3*int64(s.mask+1) }

// awaitGrow waits until no migration is in progress.
func (t *openTable) awaitGrow() {
	t.growMu.Lock()
	t.growMu.Unlock()
}

func (t *openTable) grow(old *slots) {
	t.growMu.Lock()
	defer t.growMu.Unlock()
	cur := t.slots.Load()
	if cur != old {
		return // another writer already grew this epoch
	}
	ns := newSlots(2 * (cur.mask + 1))
	n := int64(0)
	for j := uint64(0); j <= cur.mask; j++ {
		kk := cur.a[2*j].Load()
		if kk == 0 && cur.a[2*j].CompareAndSwap(0, frozen) {
			continue
		}
		kk = cur.a[2*j].Load() // claimed, possibly just now
		ev := loadEntry(cur, 2*j)
		for i := mix64(kk); ; i++ {
			nj := (i & ns.mask) * 2
			if ns.a[nj].Load() == 0 {
				ns.a[nj].Store(kk)
				ns.a[nj+1].Store(ev)
				n++
				break
			}
		}
	}
	t.count.Store(n)
	t.slots.Store(ns)
}

// loadEntry waits out a claimed-but-unpublished slot (the window
// between a winning claim and the value store is a few instructions,
// plus at worst one key-store append; Gosched keeps a preempted
// claimant from stalling single-core boxes) and returns its value word.
func loadEntry(s *slots, j uint64) uint64 {
	for spin := 0; ; spin++ {
		if v := s.a[j+1].Load(); v != 0 {
			return v
		}
		if spin > 16 {
			runtime.Gosched()
		}
	}
}

// mix64 is the splitmix64 finalizer; open addressing needs every bit of
// the packed key to influence the slot index.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// transTable is the transition cache: a lock-free, insert-only,
// open-addressed hash table. The transition cache carries by far the
// most traffic (one probe per (search node, candidate)), so it gets a
// word-packed layout: a transKey packs into one non-zero uint64 and a
// transVal into another, a probe is a few plain atomic loads — no read
// lock, no RMW — and an insert is one CAS plus a store. Every race is
// sound because a transition value is a pure function of its key
// (racing writers carry equal values, so re-publishing is idempotent)
// and a miss on a not-yet-published entry, or on a migrating epoch,
// only costs the reader a recompute.
type transTable struct{ openTable }

// transEKey packs a transKey into a non-zero word: state ids are
// non-negative, so state+1 in the high half never leaves it zero.
func transEKey(k transKey) uint64 {
	return uint64(uint32(k.state)+1)<<32 | uint64(uint32(k.sig))
}

// encodeTransVal packs a transVal into a non-zero word; bit 0 marks the
// value published (distinguishing it from a claimed-but-unpublished
// slot), bit 1 carries legal, the high half carries next (-1 included).
func encodeTransVal(v transVal) uint64 {
	e := uint64(uint32(v.next))<<32 | 1
	if v.legal {
		e |= 2
	}
	return e
}

func decodeTransVal(e uint64) transVal {
	return transVal{next: stateID(int32(uint32(e >> 32))), legal: e&2 != 0}
}

func (t *transTable) get(k transKey) (transVal, bool) {
	s := t.slots.Load()
	ekey := transEKey(k)
	for i := mix64(ekey); ; i++ {
		j := (i & s.mask) * 2
		kk := s.a[j].Load()
		if kk == 0 || kk == frozen {
			return transVal{}, false
		}
		if kk == ekey {
			ev := s.a[j+1].Load()
			if ev == 0 {
				// Claimed but not yet published; recompute rather than spin.
				return transVal{}, false
			}
			return decodeTransVal(ev), true
		}
	}
}

// put inserts k→v if absent and reports whether it inserted (the caller
// bumps the generation size budget on true).
func (t *transTable) put(k transKey, v transVal) bool {
	ekey, ev := transEKey(k), encodeTransVal(v)
	for {
		s := t.slots.Load()
		if t.full(s) {
			t.grow(s)
			continue
		}
		for i := mix64(ekey); ; i++ {
			j := (i & s.mask) * 2
			kk := s.a[j].Load()
			if kk == 0 && s.a[j].CompareAndSwap(0, ekey) {
				s.a[j+1].Store(ev)
				t.count.Add(1)
				return true
			}
			kk = s.a[j].Load()
			if kk == ekey {
				s.a[j+1].Store(ev) // racing writers carry equal values
				return false
			}
			if kk == frozen {
				break // being migrated: retry in the new epoch
			}
		}
		t.awaitGrow()
	}
}

// keyTable is the lock-free string→id table behind the signature,
// state-vector, problem and wide-memo indexes, probed with []byte keys.
// Like transTable it is insert-only and open-addressed, but keys are
// arbitrary byte strings, so a slot holds a 64-bit maphash fingerprint
// plus the key's id — its position in an append-only key store — and
// every fingerprint match is verified against the stored bytes: a false
// positive degrades to a longer probe, never a wrong id. Interns mint
// ids, so exactly one goroutine may append a new key: the slot-claiming
// CAS provides that exclusion, and racing interns of the same key spin
// for the claimant's publication instead of appending twice.
type keyTable struct {
	openTable // even = fingerprint, odd = id+1
	store     pagedKeys
}

// fingerprint hashes a key, biased away from the empty and frozen slot
// markers.
func fingerprint(key []byte) uint64 {
	h := maphash.Bytes(hashSeed, key)
	if h == 0 || h == frozen {
		h = 1
	}
	return h
}

// key returns the key interned under id.
func (t *keyTable) key(id int32) string { return t.store.get(id) }

func (t *keyTable) get(key []byte) (int32, bool) {
	s := t.slots.Load()
	fp := fingerprint(key)
	for i := mix64(fp); ; i++ {
		j := (i & s.mask) * 2
		kk := s.a[j].Load()
		if kk == 0 || kk == frozen {
			return 0, false
		}
		if kk == fp {
			id := int32(loadEntry(s, j) - 1)
			if t.store.get(id) == string(key) {
				return id, true
			}
			// Fingerprint collision with a different key; keep probing.
		}
	}
}

// intern returns the id of key, appending the key to the store if it is
// new, and reports whether it did. The claiming CAS ties the append to
// key publication: racing interns of one key can never append twice.
func (t *keyTable) intern(key []byte) (int32, bool) {
	fp := fingerprint(key)
	for {
		s := t.slots.Load()
		if t.full(s) {
			t.grow(s)
			continue
		}
		for i := mix64(fp); ; i++ {
			j := (i & s.mask) * 2
			kk := s.a[j].Load()
			if kk == 0 && s.a[j].CompareAndSwap(0, fp) {
				id := t.store.append(string(key))
				s.a[j+1].Store(uint64(id) + 1)
				t.count.Add(1)
				return id, true
			}
			kk = s.a[j].Load()
			if kk == fp {
				id := int32(loadEntry(s, j) - 1)
				if t.store.get(id) == string(key) {
					return id, false
				}
			}
			if kk == frozen {
				break // being migrated: retry in the new epoch
			}
		}
		t.awaitGrow()
	}
}

// pagedKeys is the append-only key store of a keyTable, indexed by id:
// appends are serialized, reads are lock-free loads through an
// atomically published page table. A reader only ever asks for an id it
// learned from a published slot, which happens-after the key was
// written. Pages hold 256 keys, so a short-lived table set allocates a
// few KiB per store.
const (
	pageShift = 8
	pageSize  = 1 << pageShift
)

type keyPage [pageSize]string

type pagedKeys struct {
	mu    sync.Mutex
	pages atomic.Pointer[[]*keyPage]
	n     int32
}

func (p *pagedKeys) append(key string) int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.n
	var pages []*keyPage
	if t := p.pages.Load(); t != nil {
		pages = *t
	}
	if int(n>>pageShift) == len(pages) {
		grown := make([]*keyPage, len(pages)+1)
		copy(grown, pages)
		grown[len(pages)] = new(keyPage)
		p.pages.Store(&grown)
		pages = grown
	}
	pages[n>>pageShift][n&(pageSize-1)] = key
	p.n = n + 1
	return n
}

func (p *pagedKeys) get(id int32) string {
	return (*p.pages.Load())[id>>pageShift][id&(pageSize-1)]
}
