package spec

import "testing"

func TestInternerEqualKeysShareIDs(t *testing.T) {
	it := NewSharedInterner()
	a, fresh := it.Intern(NewRegister(1))
	b, again := it.Intern(NewRegister(1))
	if !fresh || again {
		t.Errorf("Intern reported fresh=%v then %v, want true then false", fresh, again)
	}
	if a != b {
		t.Errorf("two registers holding 1 interned to %d and %d, want equal ids", a, b)
	}
	if it.Len() != 1 {
		t.Errorf("Len() = %d after interning one distinct state", it.Len())
	}
}

func TestInternerDistinctKeysDistinctIDs(t *testing.T) {
	it := NewSharedInterner()
	ids := map[int32]string{}
	for _, st := range []State{
		NewRegister(0),
		NewRegister(1),
		NewCounter(0), // "ctr:0" must not collide with "reg:0"
		NewCounter(1),
		NewRegister("0"), // string "0" vs int 0
	} {
		id, _ := it.Intern(st)
		if prev, dup := ids[id]; dup {
			t.Errorf("states with keys %q and %q share id %d", prev, st.Key(), id)
		}
		ids[id] = st.Key()
	}
	if it.Len() != len(ids) {
		t.Errorf("Len() = %d, want %d", it.Len(), len(ids))
	}
}

func TestInternerStateRoundTrip(t *testing.T) {
	it := NewSharedInterner()
	orig := NewCounter(7)
	id, _ := it.Intern(orig)
	got := it.State(id)
	if got.Key() != orig.Key() {
		t.Errorf("State(%d).Key() = %q, want %q", id, got.Key(), orig.Key())
	}
	// The canonical representative must behave like the original.
	next, ok := got.Step("inc", nil, OK)
	if !ok || next.Key() != NewCounter(8).Key() {
		t.Errorf("canonical counter stepped to %v (ok=%v)", next, ok)
	}
	// Ids are dense, in interning order.
	if id2, _ := it.Intern(NewCounter(8)); id2 != id+1 {
		t.Errorf("second distinct state got id %d, want %d", id2, id+1)
	}
}

// TestInternerOverflowPanics pins the id-wraparound fix: once the int32
// id space is (simulated to be) exhausted, Intern must panic with a
// descriptive message instead of handing out a wrapped, colliding id,
// while re-interning known keys stays fine at the limit.
func TestInternerOverflowPanics(t *testing.T) {
	defer func(orig int64) { maxInternStates = orig }(maxInternStates)
	maxInternStates = 2

	it := NewSharedInterner()
	it.Intern(NewRegister(0))
	if id, _ := it.Intern(NewRegister(1)); id != 1 {
		t.Fatalf("second state got id %d, want 1", id)
	}
	for want, st := range []State{NewRegister(0), NewRegister(1)} {
		if id, fresh := it.Intern(st); id != int32(want) || fresh {
			t.Fatalf("re-intern of %s at the limit got id %d (fresh=%v), want %d", st.Key(), id, fresh, want)
		}
	}
	mustPanicOverflow(t, func() { it.Intern(NewRegister(2)) })
}
