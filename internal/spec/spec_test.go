package spec

import (
	"testing"
	"testing/quick"

	"otm/internal/history"
)

// step applies a sequence of (op, arg, ret) triples and fails the test if
// any is rejected.
type exec struct {
	op       string
	arg, ret Value
}

func replay(t *testing.T, s State, execs []exec) State {
	t.Helper()
	for i, e := range execs {
		next, ok := s.Step(e.op, e.arg, e.ret)
		if !ok {
			t.Fatalf("step %d: %s(%v)->%v rejected in state %s", i, e.op, e.arg, e.ret, s.Key())
		}
		s = next
	}
	return s
}

func rejects(t *testing.T, s State, op string, arg, ret Value) {
	t.Helper()
	if _, ok := s.Step(op, arg, ret); ok {
		t.Errorf("%s(%v)->%v should be rejected in state %s", op, arg, ret, s.Key())
	}
}

func TestRegister(t *testing.T) {
	s := NewRegister(0)
	if s.Name() != "register" {
		t.Errorf("name = %q", s.Name())
	}
	s = replay(t, s, []exec{
		{"read", nil, 0},
		{"write", 5, OK},
		{"read", nil, 5},
		{"write", 7, OK},
		{"read", nil, 7},
		{"read", nil, 7},
	})
	rejects(t, s, "read", nil, 5)     // stale read
	rejects(t, s, "write", 1, "nope") // wrong return
	rejects(t, s, "read", 3, 7)       // read takes no argument
	rejects(t, s, "fetchAdd", 1, 7)   // unknown operation
}

func TestRegisterImmutability(t *testing.T) {
	s0 := NewRegister(0)
	s1, _ := s0.Step("write", 9, OK)
	if _, ok := s0.Step("read", nil, 0); !ok {
		t.Error("stepping must not mutate the original state")
	}
	if _, ok := s1.Step("read", nil, 9); !ok {
		t.Error("successor state must hold the written value")
	}
}

func TestCounter(t *testing.T) {
	s := NewCounter(0)
	s = replay(t, s, []exec{
		{"inc", nil, OK},
		{"inc", nil, OK},
		{"get", nil, 2},
		{"add", 5, OK},
		{"get", nil, 7},
		{"dec", nil, OK},
		{"get", nil, 6},
	})
	rejects(t, s, "get", nil, 7)
	rejects(t, s, "inc", nil, 6)     // inc returns ok, not the count
	rejects(t, s, "add", "five", OK) // non-integer argument
	if s.Key() != "ctr:6" {
		t.Errorf("Key = %q", s.Key())
	}
}

func TestCASRegister(t *testing.T) {
	s := NewCASRegister(0)
	s = replay(t, s, []exec{
		{"read", nil, 0},
		{"cas", CASArg{Old: 0, New: 3}, true},
		{"read", nil, 3},
		{"cas", CASArg{Old: 0, New: 9}, false}, // old value mismatch
		{"read", nil, 3},
		{"write", 4, OK},
		{"read", nil, 4},
	})
	rejects(t, s, "cas", CASArg{Old: 4, New: 5}, false) // would succeed
	rejects(t, s, "cas", CASArg{Old: 0, New: 5}, true)  // would fail
	rejects(t, s, "cas", "junk", true)
}

func TestSet(t *testing.T) {
	s := NewSet()
	s = replay(t, s, []exec{
		{"insert", 1, true},
		{"insert", 1, false},
		{"insert", 2, true},
		{"contains", 1, true},
		{"contains", 3, false},
		{"size", nil, 2},
		{"remove", 1, true},
		{"remove", 1, false},
		{"contains", 1, false},
		{"size", nil, 1},
	})
	rejects(t, s, "insert", 2, true) // 2 already present
	rejects(t, s, "size", nil, 5)
	rejects(t, s, "union", 1, true)
	if NewSet(2, 1).Key() != NewSet(1, 2).Key() {
		t.Error("set key must be order-insensitive")
	}
}

func TestQueue(t *testing.T) {
	s := NewQueue()
	s = replay(t, s, []exec{
		{"deq", nil, Empty},
		{"enq", "a", OK},
		{"enq", "b", OK},
		{"len", nil, 2},
		{"deq", nil, "a"},
		{"deq", nil, "b"},
		{"deq", nil, Empty},
	})
	rejects(t, s, "deq", nil, "a") // empty now
	rejects(t, s, "deq", 1, Empty) // deq takes no argument
	s2 := NewQueue("x", "y")
	if _, ok := s2.Step("deq", nil, "y"); ok {
		t.Error("queue must be FIFO: front is x")
	}
}

func TestStack(t *testing.T) {
	s := NewStack()
	s = replay(t, s, []exec{
		{"pop", nil, Empty},
		{"push", 1, OK},
		{"push", 2, OK},
		{"len", nil, 2},
		{"pop", nil, 2},
		{"pop", nil, 1},
		{"pop", nil, Empty},
	})
	rejects(t, s, "pop", nil, 1)
	rejects(t, s, "pop", 9, Empty)
	s2 := NewStack(1, 2) // 2 on top
	if _, ok := s2.Step("pop", nil, 1); ok {
		t.Error("stack must be LIFO: top is 2")
	}
}

func TestObjectsHelpers(t *testing.T) {
	objs := Registers(0, "x", "y")
	if len(objs) != 2 {
		t.Fatalf("Registers gave %d objects", len(objs))
	}
	if _, ok := objs["x"].Step("read", nil, 0); !ok {
		t.Error("register should start at the given initial value")
	}
	h := history.NewBuilder().Write(1, "x", 1).Read(1, "z", 0).MustHistory()
	auto := RegistersFor(h, 0)
	if len(auto) != 2 {
		t.Errorf("RegistersFor found %d objects, want x and z", len(auto))
	}
	cl := objs.Clone()
	cl["x"] = NewCounter(0)
	if objs["x"].Name() != "register" {
		t.Error("Clone must not alias the original map")
	}
	ctrs := ParseCounters(" c, d ,,e")
	if len(ctrs) != 3 || ctrs["c"].Key() != NewCounter(0).Key() || ctrs["d"] == nil || ctrs["e"] == nil {
		t.Errorf("ParseCounters(\" c, d ,,e\") = %v, want counters c, d and e at 0", ctrs)
	}
	if got := ParseCounters(""); len(got) != 0 {
		t.Errorf("ParseCounters(\"\") = %v, want no objects", got)
	}
}

// Property: a register accepts exactly the reads matching the latest
// write, for arbitrary int sequences.
func TestRegisterProperty(t *testing.T) {
	f := func(writes []int, probe int) bool {
		s := NewRegister(0)
		last := Value(0)
		for _, w := range writes {
			var ok bool
			s, ok = s.Step("write", w, OK)
			if !ok {
				return false
			}
			last = w
		}
		if _, ok := s.Step("read", nil, last); !ok {
			return false
		}
		_, bad := s.Step("read", nil, probe)
		return bad == (probe == last)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: counter get always equals the running sum of applied deltas.
func TestCounterProperty(t *testing.T) {
	f := func(deltas []int8) bool {
		s := NewCounter(0)
		sum := 0
		for _, d := range deltas {
			var ok bool
			s, ok = s.Step("add", int(d), OK)
			if !ok {
				return false
			}
			sum += int(d)
		}
		_, ok := s.Step("get", nil, sum)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a queue is FIFO — enqueue a sequence, dequeue it back in
// order, then the queue is empty.
func TestQueueProperty(t *testing.T) {
	f := func(items []int) bool {
		s := NewQueue()
		for _, v := range items {
			var ok bool
			s, ok = s.Step("enq", v, OK)
			if !ok {
				return false
			}
		}
		for _, v := range items {
			var ok bool
			s, ok = s.Step("deq", nil, v)
			if !ok {
				return false
			}
		}
		_, ok := s.Step("deq", nil, Empty)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: stack pop order is the reverse of push order.
func TestStackProperty(t *testing.T) {
	f := func(items []int) bool {
		s := NewStack()
		for _, v := range items {
			var ok bool
			s, ok = s.Step("push", v, OK)
			if !ok {
				return false
			}
		}
		for i := len(items) - 1; i >= 0; i-- {
			var ok bool
			s, ok = s.Step("pop", nil, items[i])
			if !ok {
				return false
			}
		}
		_, ok := s.Step("pop", nil, Empty)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: set membership after a random operation sequence matches a
// reference map.
func TestSetProperty(t *testing.T) {
	f := func(ops []struct {
		V      int8
		Insert bool
	}) bool {
		s := NewSet()
		ref := map[Value]bool{}
		for _, o := range ops {
			v := Value(int(o.V))
			var want bool
			var op string
			if o.Insert {
				op, want = "insert", !ref[v]
				ref[v] = true
			} else {
				op, want = "remove", ref[v]
				delete(ref, v)
			}
			var ok bool
			s, ok = s.Step(op, v, want)
			if !ok {
				return false
			}
		}
		_, ok := s.Step("size", nil, len(ref))
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
