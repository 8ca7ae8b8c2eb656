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
// state atoms, replay signatures, interned state vectors and cached
// transitions that any number of goroutines read and populate at once.
// Each goroutine owns a SearchContext (NewContext) for its scratch
// buffers and searcher, while every table probe and insert lands in the
// set, so N workers on one set intern each distinct state once instead
// of up to N times and every worker benefits from every other worker's
// transition entries. A context from NewSearchContext is the one-user
// case: a fresh set behind a single context. The failure memo is not a
// table: it belongs to one search (see searcher), and the atom step
// cache stays private to each context.
//
// Concurrency design: the hot tables — transitions (transTable) and the
// string-keyed interning indexes (keyTable) — are lock-free open-addressed
// hash tables whose probes are plain atomic loads; inserts CAS-claim a
// slot and publish the value with a second store, and growth doubles the
// slot array under a mutex that readers never touch. Tables start small
// and grow with use, so a short-lived set costs little. keyTable inserts
// mint ids exactly once (the CAS winner appends the key), which is what
// lets contexts agree on every id. The id-indexed stores (state atoms,
// state vectors, interned keys) are append-only paged arrays read
// without locks. All cached values are pure functions of their keys, so
// racing inserts always agree and first-writer-wins is sound.
//
// Two rules keep the set flush-free while calls are in flight:
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
//     swap as one Flush in its Stats. An Incremental that created its
//     context also swaps at each checkpoint (see TryTruncate), when
//     nothing it keeps names a table entry.
type SharedTables struct {
	gen    atomic.Pointer[sharedGen]
	swapMu sync.Mutex
	// maxEntries is the generation-swap threshold and the bound of each
	// context's step cache; a field (not the maxTableEntries constant) so
	// tests can force swaps and flushes cheaply.
	maxEntries int64
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
// interns and caches is shared with every sibling context. Its Stats
// count its own lookups and the inserts it performed, so the Stats of
// all contexts of one set sum to the set's totals.
func (s *SharedTables) NewContext() *SearchContext {
	c := &SearchContext{
		tables:    s,
		objIdx:    make(map[history.ObjID]int32),
		steps:     make(map[atomStep]atomStepVal),
		initEmpty: -1,
	}
	c.pin()
	return c
}

// pin returns the generation the next call should run on, swapping in a
// fresh one first if the current tables outgrew the bound, and reports
// whether this call swapped.
func (s *SharedTables) pin() (*sharedGen, bool) {
	g := s.gen.Load()
	if g.size() <= s.maxEntries {
		return g, false
	}
	return s.swap(g)
}

// swap publishes a fresh generation in place of old and reports whether
// this call did; when another call already replaced old, it returns the
// generation that call published. Swapping is safe exactly because it
// happens between calls: in-flight calls keep using their pinned
// generation (stateIDs never cross generations), and the old tables are
// garbage once the last such call retires.
func (s *SharedTables) swap(old *sharedGen) (*sharedGen, bool) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if cur := s.gen.Load(); cur != old {
		return cur, false
	}
	g := newSharedGen()
	s.gen.Store(g)
	return g, true
}

// sharedGen is one generation of a table set. Everything a stateID,
// atom id or signature id can refer to lives in one generation; a
// generation is immutable in structure (append-only registry,
// insert-only tables) until it is retired wholesale.
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
	sigIdx keyTable
	vecIdx keyTable
	trans  transTable

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
	g.vecIdx.init()
	g.trans.init()
	return g
}

func (g *sharedGen) size() int64 { return g.entries.Load() + int64(g.atoms.Len()) }

// hashSeed seeds every maphash fingerprint of the tables. Fingerprints
// never leave the process, so one random seed per process serves all
// table sets.
var hashSeed = maphash.MakeSeed()

// initialSlots is the starting capacity of every open-addressed table;
// growth doubles it as entries arrive.
const initialSlots = 1 << 6

// slots is one capacity epoch of an open-addressed table: slot j is the
// 64-bit key word keys[j] and the 32-bit value word vals[j]. Every value
// either table stores fits 32 bits, and a 12-byte slot is three quarters
// of a pair of 64-bit words.
type slots struct {
	mask uint64
	keys []atomic.Uint64
	vals []atomic.Uint32
}

func newSlots(n uint64) *slots {
	return &slots{mask: n - 1, keys: make([]atomic.Uint64, n), vals: make([]atomic.Uint32, n)}
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
		kk := cur.keys[j].Load()
		if kk == 0 && cur.keys[j].CompareAndSwap(0, frozen) {
			continue
		}
		kk = cur.keys[j].Load() // claimed, possibly just now
		ev := loadEntry(cur, j)
		for i := mix64(kk); ; i++ {
			nj := i & ns.mask
			if ns.keys[nj].Load() == 0 {
				ns.keys[nj].Store(kk)
				ns.vals[nj].Store(ev)
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
func loadEntry(s *slots, j uint64) uint32 {
	for spin := 0; ; spin++ {
		if v := s.vals[j].Load(); v != 0 {
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
// transVal into a uint32, a probe is a few plain atomic loads — no read
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

// encodeTransVal packs a transVal into a non-zero word (zero marks a
// claimed-but-unpublished slot): 1 for an illegal transition, which has
// no successor (next is -1), and next+2 for a legal one, whose next is a
// non-negative stateID.
func encodeTransVal(v transVal) uint32 {
	if !v.legal {
		return 1
	}
	return uint32(v.next) + 2
}

func decodeTransVal(e uint32) transVal {
	if e == 1 {
		return transVal{next: -1}
	}
	return transVal{next: stateID(e - 2), legal: true}
}

func (t *transTable) get(k transKey) (transVal, bool) {
	s := t.slots.Load()
	ekey := transEKey(k)
	for i := mix64(ekey); ; i++ {
		j := i & s.mask
		kk := s.keys[j].Load()
		if kk == 0 || kk == frozen {
			return transVal{}, false
		}
		if kk == ekey {
			ev := s.vals[j].Load()
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
			j := i & s.mask
			kk := s.keys[j].Load()
			if kk == 0 && s.keys[j].CompareAndSwap(0, ekey) {
				s.vals[j].Store(ev)
				t.count.Add(1)
				return true
			}
			kk = s.keys[j].Load()
			if kk == ekey {
				s.vals[j].Store(ev) // racing writers carry equal values
				return false
			}
			if kk == frozen {
				break // being migrated: retry in the new epoch
			}
		}
		t.awaitGrow()
	}
}

// keyTable is the lock-free string→id table behind the signature and
// state-vector indexes, probed with []byte keys.
// Like transTable it is insert-only and open-addressed, but keys are
// arbitrary byte strings, so a slot holds a 64-bit maphash fingerprint
// plus the key's id — its position in an append-only key store — and
// every fingerprint match is verified against the stored bytes: a false
// positive degrades to a longer probe, never a wrong id. Interns mint
// ids, so exactly one goroutine may append a new key: the slot-claiming
// CAS provides that exclusion, and racing interns of the same key spin
// for the claimant's publication instead of appending twice.
type keyTable struct {
	openTable // keys = fingerprint, vals = id+1
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
			j := i & s.mask
			kk := s.keys[j].Load()
			if kk == 0 && s.keys[j].CompareAndSwap(0, fp) {
				id := t.store.append(string(key))
				s.vals[j].Store(uint32(id) + 1)
				t.count.Add(1)
				return id, true
			}
			kk = s.keys[j].Load()
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
