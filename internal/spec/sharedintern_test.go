package spec

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestSharedInternerOverflowPanics: goroutines racing past the id limit
// share it. Exactly maxInternStates of the distinct states get ids, dense
// and distinct; every other one panics instead of wrapping, and the
// panics leave the interner usable: known keys still resolve and a new
// key still panics.
func TestSharedInternerOverflowPanics(t *testing.T) {
	defer func(orig int64) { maxInternStates = orig }(maxInternStates)
	const limit, goroutines = 4, 8
	maxInternStates = limit

	it := NewSharedInterner()
	ids := make([]int32, goroutines)
	panics := make([]any, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer func() { panics[g] = recover() }()
			ids[g], _ = it.Intern(NewRegister(g))
		}(g)
	}
	wg.Wait()

	seen := make(map[int32]bool, limit)
	for g, r := range panics {
		if r != nil {
			if msg := fmt.Sprint(r); !strings.Contains(msg, "interner overflow") {
				t.Fatalf("goroutine %d: overflow panic message %q does not name the failure", g, msg)
			}
			continue
		}
		if id := ids[g]; id < 0 || id >= limit || seen[id] {
			t.Fatalf("goroutine %d got id %d: not a fresh id in [0,%d)", g, id, limit)
		}
		seen[ids[g]] = true
		if id, fresh := it.Intern(NewRegister(g)); id != ids[g] || fresh {
			t.Fatalf("re-intern of register %d at the limit got id %d (fresh=%v), want %d", g, id, fresh, ids[g])
		}
	}
	if len(seen) != limit || it.Len() != limit {
		t.Fatalf("%d goroutines got ids and Len() = %d, want both %d", len(seen), it.Len(), limit)
	}
	mustPanicOverflow(t, func() { it.Intern(NewRegister(goroutines)) })
}

func mustPanicOverflow(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Intern past the id limit did not panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "interner overflow") {
			t.Fatalf("overflow panic message %q does not name the failure", msg)
		}
	}()
	f()
}

// TestSharedInternerConcurrent hammers one interner from many goroutines
// over an overlapping key set (every goroutine interns every state, in a
// rotated order) and checks the invariants that make shared search
// tables sound: equal keys always resolve to one id, distinct keys to
// distinct ids, ids stay dense, and every id round-trips to a canonical
// representative with the right key. Run with -race in CI.
func TestSharedInternerConcurrent(t *testing.T) {
	const goroutines = 8
	const distinct = 3000
	states := make([]State, distinct)
	for i := range states {
		states[i] = NewRegister(i)
	}

	sh := NewSharedInterner()
	got := make([][]int32, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]int32, distinct)
			for i := 0; i < distinct; i++ {
				j := (i*7 + g*distinct/goroutines) % distinct
				ids[j], _ = sh.Intern(states[j])
			}
			got[g] = ids
		}(g)
	}
	wg.Wait()

	if sh.Len() != distinct {
		t.Fatalf("Len() = %d after %d goroutines interned %d distinct states", sh.Len(), goroutines, distinct)
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
		if key := sh.State(id).Key(); key != states[i].Key() {
			t.Fatalf("State(%d).Key() = %q, want %q", id, key, states[i].Key())
		}
	}
}
