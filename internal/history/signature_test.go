package history

import (
	"strings"
	"testing"
)

// TestOpSignatureValueTypes: the value rendering must keep values
// distinct across dynamic types — colliding renders would merge the
// signatures of transactions that step object specifications
// differently.
func TestOpSignatureValueTypes(t *testing.T) {
	type point struct{ X int }
	vals := []Value{nil, 0, "0", int64(0), true, false, "true", point{1}, "{1}"}
	seen := map[string]Value{}
	for _, v := range vals {
		k := string(appendSigValue(nil, v))
		if prev, dup := seen[k]; dup {
			t.Errorf("values %#v and %#v both render as %q", prev, v, k)
		}
		seen[k] = v
	}
}

// TestOpSignatureIdentity: equal completed operation sequences — and
// nothing else — produce equal signatures. The cases cover the
// properties the symmetry reduction in internal/core relies on:
// transaction identity is irrelevant, pending invocations are excluded,
// and any difference in object, operation, argument or result separates
// the signatures.
func TestOpSignatureIdentity(t *testing.T) {
	execsOf := func(src string, tx TxID) []OpExec {
		return MustParse(src).OpExecs(tx)
	}

	t.Run("tx-identity-irrelevant", func(t *testing.T) {
		a := execsOf("r1(x)->0 w1(y,2) tryC1 C1", 1)
		b := execsOf("r7(x)->0 w7(y,2) tryC7 C7", 7)
		if OpSignature(a) != OpSignature(b) {
			t.Error("identical op sequences under different TxIDs must share a signature")
		}
	})

	t.Run("pending-excluded", func(t *testing.T) {
		done := execsOf("r1(x)->0 tryC1", 1)
		pending := append(MustParse("r1(x)->0").OpExecs(1), OpExec{Tx: 1, Obj: "y", Op: "read", Pending: true})
		if OpSignature(done) != OpSignature(pending) {
			t.Error("a pending invocation must not perturb the signature")
		}
	})

	t.Run("differences-separate", func(t *testing.T) {
		base := "r1(x)->0 w1(y,2) tryC1 C1"
		for _, variant := range []string{
			"r1(z)->0 w1(y,2) tryC1 C1", // object
			"w1(x,0) w1(y,2) tryC1 C1",  // operation
			"r1(x)->0 w1(y,3) tryC1 C1", // argument
			"r1(x)->5 w1(y,2) tryC1 C1", // result
			"w1(y,2) r1(x)->0 tryC1 C1", // order
			"r1(x)->0 tryC1 C1",         // length
		} {
			if OpSignature(execsOf(base, 1)) == OpSignature(execsOf(variant, 1)) {
				t.Errorf("%q and %q must not share a signature", base, variant)
			}
		}
	})

	t.Run("no-forged-boundaries", func(t *testing.T) {
		// One operation on object "xy" vs one on "x" with a crafted
		// operation name: unframed concatenation would collide.
		a := []OpExec{{Obj: "xy", Op: "read", Ret: 0}}
		b := []OpExec{{Obj: "x", Op: "yread", Ret: 0}}
		if OpSignature(a) == OpSignature(b) {
			t.Error("field content leaked across a frame boundary")
		}
	})
}

// TestAppendOpSignatureReusesBuffer: the append form extends the given
// buffer in place — the interning hot path in internal/core depends on
// it not allocating a fresh rendering per call.
func TestAppendOpSignatureReusesBuffer(t *testing.T) {
	execs := MustParse("w1(x,1) tryC1 C1").OpExecs(1)
	buf := make([]byte, 0, 256)
	out := AppendOpSignature(buf, execs)
	if len(out) == 0 || &out[0] != &buf[:1][0] {
		t.Error("AppendOpSignature did not extend the provided buffer")
	}
	if !strings.Contains(string(out), "x") {
		t.Error("signature does not mention the object")
	}
}
