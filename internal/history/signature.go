package history

import (
	"fmt"
	"strconv"
)

// OpSignature returns the canonical operation signature of one
// transaction's operation executions: a byte string over the completed
// executions, in order, covering the object, the operation name, the
// argument and the return value of each. Pending invocations are
// excluded — a pending operation took no effect the transaction could be
// replayed by.
//
// Two transactions have equal signatures exactly when they executed the
// identical completed operation sequence — same objects, same operations,
// same arguments, same results. The signature is therefore the
// transaction's behavioral identity: it determines the transaction's
// legality and its effect on the object states from any starting state,
// which is what lets internal/core key its replay caches by it and treat
// equal-signature transactions as interchangeable in the symmetry-reduced
// serialization search.
func OpSignature(execs []OpExec) string {
	return string(AppendOpSignature(nil, execs))
}

// AppendOpSignature appends the canonical operation signature of execs to
// buf and returns the extended slice, for callers interning signatures
// through a reused buffer. Record layout per completed execution:
// [len(obj):4][obj] [len(op):4][op] [len(arg):4][arg] [len(ret):4][ret],
// every variable-length field length-prefixed so that no object name,
// operation name or value content — however crafted — can forge a field
// or record boundary and make two different executions render alike.
func AppendOpSignature(buf []byte, execs []OpExec) []byte {
	for i := range execs {
		e := &execs[i]
		if e.Pending {
			continue
		}
		buf = appendSigLen(buf, len(e.Obj))
		buf = append(buf, e.Obj...)
		buf = appendSigLen(buf, len(e.Op))
		buf = append(buf, e.Op...)
		buf = appendSigFramedValue(buf, e.Arg)
		buf = appendSigFramedValue(buf, e.Ret)
	}
	return buf
}

// appendSigLen appends n as a 4-byte little-endian field length.
func appendSigLen(buf []byte, n int) []byte {
	return append(buf, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
}

// appendSigFramedValue appends v's rendering preceded by its 4-byte
// little-endian length, which is known only once it is rendered.
func appendSigFramedValue(buf []byte, v Value) []byte {
	start := len(buf)
	buf = appendSigValue(append(buf, 0, 0, 0, 0), v)
	n := len(buf) - start - 4
	buf[start] = byte(n)
	buf[start+1] = byte(n >> 8)
	buf[start+2] = byte(n >> 16)
	buf[start+3] = byte(n >> 24)
	return buf
}

// appendSigValue renders one operation argument or return value, tagged
// by dynamic type so that values whose renderings would otherwise collide
// (int 1 vs string "1" vs the printed form of some struct) stay distinct —
// they step object specifications differently. Callers frame the result
// by length, so the rendering itself need not escape anything. The common
// history value types render without fmt; everything else falls back to
// %T:%v.
func appendSigValue(buf []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, 'n')
	case int:
		buf = append(buf, 'i')
		return strconv.AppendInt(buf, int64(x), 10)
	case string:
		buf = append(buf, 's')
		return append(buf, x...)
	case bool:
		if x {
			return append(buf, 'b', '1')
		}
		return append(buf, 'b', '0')
	case int64:
		buf = append(buf, 'l')
		return strconv.AppendInt(buf, x, 10)
	default:
		return fmt.Appendf(buf, "T%T:%v", v, v)
	}
}
