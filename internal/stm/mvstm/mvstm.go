// Package mvstm implements a multi-version software transactional memory
// in the style of JVSTM's versioned boxes (Cachopo & Rito-Silva) and
// LSA-STM: every object keeps a list of committed versions stamped by a
// global clock; a transaction reads the newest version no newer than its
// snapshot timestamp, the clock value at its first operation.
//
// Multi-versioning is the paper's third escape from the Ω(k) lower bound
// (§6.2, footnote 2): a read costs O(versions-per-object) steps — bounded
// by a function *independent of k* — because old snapshots stay
// available; no read-set validation against other objects is ever
// required, and read-only transactions can never be forcefully aborted
// (they commit wait-free). The engine is NOT single-version, which is
// exactly why Theorem 3 does not apply to it. It is also how history H4
// of §5.2 arises in practice: a long reader keeps reading the old
// snapshot while later transactions already see a newer commit-pending/
// committed version — opaque, as the paper argues.
//
// Update transactions validate their read set once, at commit, under a
// global commit lock (first-committer-wins on write skew), so committed
// transactions serialize at commit points and live readers always see
// one consistent snapshot.
package mvstm

import (
	"sync"
	"sync/atomic"

	"otm/internal/base"
	"otm/internal/stm"
)

// version is one committed version of an object; versions form a
// newest-first linked list. The next pointer is atomic because the
// garbage collector truncates tails concurrently with readers walking
// the chain.
type version struct {
	ver  uint64
	val  int
	next atomic.Pointer[version]
}

// TM is a multi-version transactional memory over Len integer registers.
type TM struct {
	clock base.U64
	lock  base.U64 // global commit lock
	heads []base.Word[version]

	// Optional version GC (see NewWithGC): a registry of active
	// transactions' snapshot timestamps. Registration happens once per
	// transaction, when its snapshot is taken — bookkeeping, not a read
	// operation, so the engine's reads stay invisible in the §6.1 sense.
	// JVSTM tracks active transactions the same way. pinned holds the
	// objects whose last cut an older snapshot held back (see retire).
	gc     bool
	mu     sync.Mutex
	active map[*tx]uint64
	pinned map[int]struct{}
}

// New returns a multi-version TM with n objects initialized to 0 at
// version 0. Version chains grow without bound — each committed write
// prepends one version; use NewWithGC for bounded chains.
func New(n int) *TM {
	t := &TM{heads: make([]base.Word[version], n)}
	for i := range t.heads {
		t.heads[i].Store(nil, &version{})
	}
	return t
}

// NewWithGC returns a multi-version TM that reclaims versions no active
// transaction can reach: after each commit, every written object's chain
// is truncated below the oldest active snapshot, and the versions that
// snapshot held back are reclaimed once no transaction is active, even
// if the object is never written again. With GC the per-read
// cost is bounded by the number of versions committed during the oldest
// live transaction's lifetime — the "function independent of k" of the
// paper's footnote 2 — instead of the full commit history.
func NewWithGC(n int) *TM {
	t := New(n)
	t.gc = true
	t.active = make(map[*tx]uint64)
	t.pinned = make(map[int]struct{})
	return t
}

// Name implements stm.TM.
func (t *TM) Name() string { return "mvstm" }

// Len implements stm.TM.
func (t *TM) Len() int { return len(t.heads) }

// Begin implements stm.TM. The snapshot is not taken here but at the
// transaction's first operation (see snapshot): a history recorded
// behind stm.Recorder has no begin event, so a snapshot sampled in Begin
// could predate a commit that the recorded history orders before the
// transaction's first event.
func (t *TM) Begin() stm.Tx { return &tx{tm: t} }

// snapshot fixes the transaction's read timestamp on its first
// operation. With GC enabled, the clock sample and the registry insert
// happen under the registry mutex — atomically with respect to
// minActive — so a committer can never truncate below a snapshot that a
// concurrently-started reader has already sampled but not yet
// registered.
func (x *tx) snapshot() {
	if x.started {
		return
	}
	x.started = true
	t := x.tm
	if t.gc {
		t.mu.Lock()
		x.readTS = t.clock.Load(&x.steps)
		t.active[x] = x.readTS
		t.mu.Unlock()
		return
	}
	x.readTS = t.clock.Load(&x.steps)
}

// retire removes a completed transaction from the GC registry. The last
// one out cuts every pinned chain to its newest version: a committer
// registers at its first operation and retires only after releasing the
// commit lock, so with the registry empty and its mutex held no commit
// is in progress or can start.
func (t *TM) retire(x *tx) {
	if !t.gc || !x.started {
		return
	}
	t.mu.Lock()
	delete(t.active, x)
	if len(t.active) == 0 && len(t.pinned) > 0 {
		now := t.clock.Load(nil)
		for i := range t.pinned {
			t.truncate(i, now)
		}
		clear(t.pinned)
	}
	t.mu.Unlock()
}

// minActive returns the oldest active snapshot timestamp, or now if no
// transaction is active. A commit at now cuts the written objects at
// that timestamp; if it is older than now-1 the cut keeps versions only
// that snapshot needs, so the objects are marked pinned for retire.
func (t *TM) minActive(now uint64, writes map[int]int) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	min := now
	for _, ts := range t.active {
		if ts < min {
			min = ts
		}
	}
	if min+1 < now {
		for i := range writes {
			t.pinned[i] = struct{}{}
		}
	}
	return min
}

// truncate cuts object i's chain below the oldest version any active or
// future transaction can need: the newest version with ver ≤ minTS stays
// (it IS the snapshot of a reader at minTS); everything older is
// unreachable. Called with the commit lock held, or by the last
// transaction to retire.
func (t *TM) truncate(i int, minTS uint64) {
	v := t.heads[i].Load(nil)
	for v != nil && v.ver > minTS {
		v = v.next.Load()
	}
	if v != nil {
		v.next.Store(nil)
	}
}

type tx struct {
	tm      *TM
	started bool // readTS taken (see snapshot)
	readTS  uint64
	steps   base.StepCounter
	reads   []int
	inRead  map[int]bool
	writes  map[int]int
	done    bool
}

// Steps implements stm.Tx.
func (t *tx) Steps() int64 { return t.steps.Count() }

// Read implements stm.Tx: walk the version list to the newest version no
// newer than readTS. The cost is O(versions traversed) — independent of
// the number of objects k.
func (t *tx) Read(i int) (int, error) {
	if t.done {
		return 0, stm.ErrAborted
	}
	t.snapshot()
	if v, ok := t.writes[i]; ok {
		return v, nil
	}
	v := t.tm.heads[i].Load(&t.steps)
	for v != nil && v.ver > t.readTS {
		t.steps.Step() // following one next pointer = one base access
		v = v.next.Load()
	}
	if v == nil {
		// Unreachable with the unbounded version lists this engine
		// keeps: version 0 of every object exists forever.
		return 0, stm.ErrAborted
	}
	if !t.inRead[i] {
		if t.inRead == nil {
			t.inRead = make(map[int]bool)
		}
		t.inRead[i] = true
		t.reads = append(t.reads, i)
	}
	return v.val, nil
}

// Write implements stm.Tx: buffered until commit.
func (t *tx) Write(i int, v int) error {
	if t.done {
		return stm.ErrAborted
	}
	t.snapshot()
	if t.writes == nil {
		t.writes = make(map[int]int)
	}
	t.writes[i] = v
	return nil
}

// Commit implements stm.Tx. Read-only transactions always commit (their
// whole execution was a consistent snapshot at readTS). Update
// transactions validate, under the global commit lock, that no object
// they read has a version newer than readTS, then install new versions
// at clock+1 and only then publish that clock value: a transaction that
// samples the clock meanwhile gets the old value and skips every new
// version, never a torn subset of them.
func (t *tx) Commit() error {
	if t.done {
		return stm.ErrAborted
	}
	t.done = true
	if len(t.writes) == 0 {
		t.tm.retire(t)
		return nil
	}
	defer t.tm.retire(t)
	for !t.tm.lock.CAS(&t.steps, 0, 1) {
	}
	for _, i := range t.reads {
		if _, own := t.writes[i]; own {
			continue
		}
		head := t.tm.heads[i].Load(&t.steps)
		if head.ver > t.readTS {
			t.tm.lock.Store(&t.steps, 0)
			return stm.ErrAborted
		}
	}
	// Also first-committer-wins on our own read-write objects.
	for i := range t.writes {
		if t.inRead[i] {
			head := t.tm.heads[i].Load(&t.steps)
			if head.ver > t.readTS {
				t.tm.lock.Store(&t.steps, 0)
				return stm.ErrAborted
			}
		}
	}
	wv := t.tm.clock.Load(&t.steps) + 1
	for i, val := range t.writes {
		head := t.tm.heads[i].Load(&t.steps)
		nv := &version{ver: wv, val: val}
		nv.next.Store(head)
		t.tm.heads[i].Store(&t.steps, nv)
	}
	t.tm.clock.Store(&t.steps, wv)
	if t.tm.gc {
		// We are still registered, so minActive ≤ our readTS; versions
		// our own reads need survive the truncation. The clock is
		// published first, so a transaction that registers after
		// minActive samples wv and needs nothing below the cut.
		minTS := t.tm.minActive(wv, t.writes)
		for i := range t.writes {
			t.tm.truncate(i, minTS)
		}
	}
	t.tm.lock.Store(&t.steps, 0)
	return nil
}

// Abort implements stm.Tx.
func (t *tx) Abort() {
	if !t.done {
		t.tm.retire(t)
	}
	t.done = true
}

// Versions reports the current length of object i's version list —
// diagnostics for the complexity benchmarks (the per-read bound is the
// maximum of this over all objects, independent of Len()).
func (t *TM) Versions(i int) int {
	n := 0
	for v := t.heads[i].Load(nil); v != nil; v = v.next.Load() {
		n++
	}
	return n
}
