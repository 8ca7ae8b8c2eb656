package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"otm/internal/spec"
)

// newAtomTable returns an empty table of the kind a generation interns
// single-object states into.
func newAtomTable() *keyTable[spec.State] {
	kt := new(keyTable[spec.State])
	kt.init()
	return kt
}

// internState interns st by its spec.State.Key, as SearchContext does.
func internState(kt *keyTable[spec.State], st spec.State) (int32, bool) {
	return kt.intern([]byte(st.Key()), st)
}

func TestKeyTableEqualKeysShareIDs(t *testing.T) {
	kt := newAtomTable()
	a, fresh := internState(kt, spec.NewRegister(1))
	b, again := internState(kt, spec.NewRegister(1))
	if !fresh || again {
		t.Errorf("intern reported fresh=%v then %v, want true then false", fresh, again)
	}
	if a != b {
		t.Errorf("two registers holding 1 interned to %d and %d, want equal ids", a, b)
	}
	if n := kt.store.len(); n != 1 {
		t.Errorf("%d ids minted after interning one distinct state", n)
	}
}

func TestKeyTableDistinctKeysDistinctIDs(t *testing.T) {
	kt := newAtomTable()
	ids := map[int32]string{}
	for _, st := range []spec.State{
		spec.NewRegister(0),
		spec.NewRegister(1),
		spec.NewCounter(0), // "ctr:0" must not collide with "reg:0"
		spec.NewCounter(1),
		spec.NewRegister("0"), // string "0" vs int 0
	} {
		id, _ := internState(kt, st)
		if prev, dup := ids[id]; dup {
			t.Errorf("states with keys %q and %q share id %d", prev, st.Key(), id)
		}
		ids[id] = st.Key()
	}
	if n := kt.store.len(); int(n) != len(ids) {
		t.Errorf("%d ids minted, want %d", n, len(ids))
	}
}

func TestKeyTableStateRoundTrip(t *testing.T) {
	kt := newAtomTable()
	orig := spec.NewCounter(7)
	id, _ := internState(kt, orig)
	got := kt.val(id)
	if got.Key() != orig.Key() || kt.key(id) != orig.Key() {
		t.Errorf("id %d holds key %q and state %q, want %q", id, kt.key(id), got.Key(), orig.Key())
	}
	// The canonical representative must behave like the original.
	next, ok := got.Step("inc", nil, spec.OK)
	if !ok || next.Key() != spec.NewCounter(8).Key() {
		t.Errorf("canonical counter stepped to %v (ok=%v)", next, ok)
	}
	// Ids are dense, in interning order.
	if id2, _ := internState(kt, spec.NewCounter(8)); id2 != id+1 {
		t.Errorf("second distinct state got id %d, want %d", id2, id+1)
	}
}

// TestKeyTableOverflowPanics pins the id limit on every table a
// generation mints ids in: once maxIDs ids are minted, a new key panics
// with a descriptive message instead of wrapping ids, and the refused
// intern leaves its table usable. Known keys still resolve, a second
// intern of the refused key panics again instead of waiting on the slot
// the first one claimed, and growing the table migrates that slot
// without waiting on it either.
func TestKeyTableOverflowPanics(t *testing.T) {
	defer func(orig int32) { maxIDs = orig }(maxIDs)
	maxIDs = 2

	g := newSharedGen()
	states := []spec.State{spec.NewRegister(0), spec.NewRegister(1), spec.NewRegister(2)}
	t.Run("atoms", func(t *testing.T) {
		overflowAtLimit(t, &g.atoms, func(i int) ([]byte, spec.State) { return []byte(states[i].Key()), states[i] })
	})
	for name, kt := range map[string]*keyTable[struct{}]{
		"registry":   &g.objs,
		"signatures": &g.sigIdx,
		"vectors":    &g.vecIdx,
	} {
		t.Run(name, func(t *testing.T) {
			overflowAtLimit(t, kt, func(i int) ([]byte, struct{}) { return []byte(fmt.Sprint("key-", i)), struct{}{} })
		})
	}
}

// overflowAtLimit fills kt with entries 0 and 1 of entry at a limit of
// two ids and checks that entry 2 is refused, before and after a grow.
func overflowAtLimit[V any](t *testing.T, kt *keyTable[V], entry func(int) ([]byte, V)) {
	t.Helper()
	intern := func(i int) (int32, bool) {
		k, v := entry(i)
		return kt.intern(k, v)
	}
	for i := range 2 {
		if id, fresh := intern(i); id != int32(i) || !fresh {
			t.Fatalf("key %d got id %d (fresh=%v), want a fresh %d", i, id, fresh, i)
		}
	}
	check := func(when string) {
		t.Helper()
		for i := range 2 {
			k, _ := entry(i)
			if id, fresh := intern(i); id != int32(i) || fresh || kt.key(id) != string(k) {
				t.Fatalf("%s: re-intern of key %d got id %d (fresh=%v), want %d", when, i, id, fresh, i)
			}
		}
		mustPanicOverflow(t, when, func() { intern(2) })
	}
	check("at the limit")
	check("after a refused intern")
	if r := within(t, "grow", func() { kt.grow(kt.slots.Load()) }); r != nil {
		t.Fatalf("grow after a refused intern panicked: %v", r)
	}
	check("after a grow")
}

// within runs f on another goroutine and returns what it panicked with,
// failing the test if f has not returned after ten seconds: a refused
// intern that left its slot unpublished would make a later probe or
// grow spin forever.
func within(t *testing.T, what string, f func()) any {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		f()
	}()
	select {
	case r := <-done:
		return r
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return within 10s", what)
		return nil
	}
}

func mustPanicOverflow(t *testing.T, when string, f func()) {
	t.Helper()
	r := within(t, when+": intern past the id limit", f)
	if r == nil {
		t.Fatalf("%s: intern past the id limit did not panic", when)
	}
	if msg := fmt.Sprint(r); !strings.Contains(msg, "core: interner overflow") {
		t.Fatalf("%s: overflow panic message %q does not name the failure", when, msg)
	}
}

// TestKeyTableConcurrent hammers one atom table from many goroutines
// over an overlapping key set (every goroutine interns every state, in a
// rotated order) and checks the invariants that make shared search
// tables sound: equal keys always resolve to one id, distinct keys to
// distinct ids, ids stay dense, and every id round-trips to a canonical
// representative with the right key. Run with -race in CI.
func TestKeyTableConcurrent(t *testing.T) {
	const goroutines = 8
	const distinct = 3000
	states := make([]spec.State, distinct)
	for i := range states {
		states[i] = spec.NewRegister(i)
	}

	kt := newAtomTable()
	got := make([][]int32, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]int32, distinct)
			for i := 0; i < distinct; i++ {
				j := (i*7 + g*distinct/goroutines) % distinct
				ids[j], _ = internState(kt, states[j])
			}
			got[g] = ids
		}(g)
	}
	wg.Wait()

	if n := kt.store.len(); n != distinct {
		t.Fatalf("%d ids minted after %d goroutines interned %d distinct states", n, goroutines, distinct)
	}
	for g := 1; g < goroutines; g++ {
		for i := range got[g] {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutines 0 and %d disagree on state %d: ids %d vs %d", g, i, got[0][i], got[g][i])
			}
		}
	}
	seen := make(map[int32]bool, distinct)
	for i, id := range got[0] {
		if id < 0 || int(id) >= distinct {
			t.Fatalf("state %d: id %d not dense in [0,%d)", i, id, distinct)
		}
		if seen[id] {
			t.Fatalf("id %d assigned to two distinct states", id)
		}
		seen[id] = true
		if key := kt.val(id).Key(); key != states[i].Key() {
			t.Fatalf("val(%d).Key() = %q, want %q", id, key, states[i].Key())
		}
	}
}

// TestKeyTableConcurrentOverflow: goroutines racing past the id limit
// share it. Exactly maxIDs of the distinct states get ids, dense and
// distinct; every other one panics instead of wrapping, and the panics
// leave the table usable: known keys still resolve and a new key still
// panics.
func TestKeyTableConcurrentOverflow(t *testing.T) {
	defer func(orig int32) { maxIDs = orig }(maxIDs)
	const limit, goroutines = 4, 8
	maxIDs = limit

	kt := newAtomTable()
	ids := make([]int32, goroutines)
	panics := make([]any, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer func() { panics[g] = recover() }()
			ids[g], _ = internState(kt, spec.NewRegister(g))
		}(g)
	}
	wg.Wait()

	seen := make(map[int32]bool, limit)
	for g, r := range panics {
		if r != nil {
			if msg := fmt.Sprint(r); !strings.Contains(msg, "core: interner overflow") {
				t.Fatalf("goroutine %d: overflow panic message %q does not name the failure", g, msg)
			}
			continue
		}
		if id := ids[g]; id < 0 || id >= limit || seen[id] {
			t.Fatalf("goroutine %d got id %d: not a fresh id in [0,%d)", g, id, limit)
		}
		seen[ids[g]] = true
		if id, fresh := internState(kt, spec.NewRegister(g)); id != ids[g] || fresh {
			t.Fatalf("re-intern of register %d at the limit got id %d (fresh=%v), want %d", g, id, fresh, ids[g])
		}
	}
	if n := kt.store.len(); len(seen) != limit || n != limit {
		t.Fatalf("%d goroutines got ids and %d ids were minted, want both %d", len(seen), n, limit)
	}
	mustPanicOverflow(t, "after the race", func() { internState(kt, spec.NewRegister(goroutines)) })
}
