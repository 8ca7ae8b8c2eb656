package history

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// The renderers below append into one buffer instead of formatting each
// token with fmt: every history opacheck, otmd, histgen and the violation
// artifacts exchange passes through History.String, and Format's output
// grows with transactions × events. string_ref_test.go keeps the
// fmt-based renderers they are pinned to.

// String renders a single event in a compact, paper-like notation:
// read/write on registers use the shorthand r2(x)->1 / w1(x,1)->ok; other
// operations use op2(obj,args)->ret; control events use tryC1, C1, tryA1,
// A1.
func (e Event) String() string {
	var buf [48]byte
	return string(e.appendTo(buf[:0]))
}

// appendTo appends e's String rendering to b.
func (e Event) appendTo(b []byte) []byte {
	switch e.Kind {
	case KindInv:
		b = appendTx(append(b, "inv"...), e.Tx)
		b = append(append(append(append(b, '('), e.Obj...), '.'), e.Op...)
		if e.Arg != nil {
			b = appendValue(append(b, ','), e.Arg)
		}
		return append(b, ')')
	case KindRet:
		b = appendTx(append(b, "ret"...), e.Tx)
		b = append(append(append(append(b, '('), e.Obj...), '.'), e.Op...)
		return appendValue(append(b, ")->"...), e.Ret)
	case KindTryCommit:
		return appendTx(append(b, "tryC"...), e.Tx)
	case KindTryAbort:
		return appendTx(append(b, "tryA"...), e.Tx)
	case KindCommit:
		return appendTx(append(b, 'C'), e.Tx)
	case KindAbort:
		return appendTx(append(b, 'A'), e.Tx)
	default:
		return appendTx(append(b, '?'), e.Tx)
	}
}

// appendTx appends a transaction number in decimal.
func appendTx(b []byte, tx TxID) []byte {
	return strconv.AppendInt(b, int64(tx), 10)
}

// TxList renders a list of transactions as "T2 T1 T3", in the given
// order: the form of a witness order in verdict lines and reports, and of
// a culprit list in violation artifacts.
func TxList(txs []TxID) string {
	b := make([]byte, 0, 4*len(txs))
	for i, tx := range txs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendTx(append(b, 'T'), tx)
	}
	return string(b)
}

// appendValue appends v as the verb %v prints it. The dynamic types
// Parse produces take a strconv path; anything else (named types,
// Stringers, structs such as spec.CASArg) goes through fmt.
func appendValue(b []byte, v Value) []byte {
	switch v := v.(type) {
	case nil:
		return append(b, "<nil>"...)
	case int:
		return strconv.AppendInt(b, int64(v), 10)
	case string:
		return append(b, v...)
	case bool:
		return strconv.AppendBool(b, v)
	}
	return fmt.Append(b, v)
}

// String renders the history as a single line of events separated by
// spaces, merging each matching inv/ret pair into one operation-execution
// token where possible (pairs separated by other events stay split, and
// so do pairs whose operation name the merged token cannot carry — see
// mergeable).
func (h History) String() string {
	b := make([]byte, 0, 10*len(h))
	for i := 0; i < len(h); i++ {
		if i > 0 {
			b = append(b, ' ')
		}
		e := h[i]
		if e.Kind == KindInv && i+1 < len(h) && h[i+1].Kind == KindRet && Matches(e, h[i+1]) && mergeable(e.Op) {
			b = appendTx(append(b, e.Op...), e.Tx)
			b = append(append(b, '('), e.Obj...)
			if e.Arg != nil {
				b = appendValue(append(b, ','), e.Arg)
			}
			b = appendValue(append(b, ")->"...), h[i+1].Ret)
			i++
			continue
		}
		b = e.appendTo(b)
	}
	return string(b)
}

// mergeable reports whether an operation named op survives the merged
// token op<tx>(...)->ret: Parse reads the transaction number as the
// head's trailing digit run up to the first '(' and gives the names "r",
// "w", "inv" and "ret" and a leading '#' their own meanings, so an empty
// name, one ending in a digit or holding a '(', those four names and a
// leading '#' would parse back as a different token.
func mergeable(op string) bool {
	switch op {
	case "", "r", "w", "inv", "ret":
		return false
	}
	last := op[len(op)-1]
	return op[0] != '#' && (last < '0' || last > '9') && !strings.Contains(op, "(")
}

// String renders the operation execution in the paper's notation, e.g.
// "read_2(x) -> 1" or "write_1(x, 5) -> ok".
func (e OpExec) String() string {
	var buf [48]byte
	b := appendTx(append(append(buf[:0], e.Op...), '_'), e.Tx)
	b = append(append(b, '('), e.Obj...)
	if e.Arg != nil {
		b = appendValue(append(b, ", "...), e.Arg)
	}
	b = append(b, ')')
	if e.Pending {
		return string(append(b, " -> ?"...))
	}
	return string(appendValue(append(b, " -> "...), e.Ret))
}

// Format renders the history as a per-transaction timeline, one line per
// transaction, with events placed in global order — a textual analogue of
// the paper's Figures 1 and 2. Useful for debugging opacity violations.
func (h History) Format() string {
	// Row r is transaction r of h's table, and its span bounds the row.
	tab := h.table()
	txs, spans := tab.txs.keys, tab.spans
	// Every event is rendered once, into text: event k is
	// text[end[k-1]:end[k]], and its cell starts at column end[k-1]+k, one
	// separating space after each earlier cell. next chains each row's
	// events from first to last; tail[r] is where row r's chain has got to.
	text := make([]byte, 0, 12*len(h))
	ints := make([]int, 2*len(h)+len(txs))
	end, next, tail := ints[:len(h)], ints[len(h):2*len(h)], ints[2*len(h):]
	for k, e := range h {
		text = e.appendTo(text)
		end[k] = len(text)
		r := tab.txs.find(e.Tx)
		if k > spans[r].First {
			next[tail[r]] = k
		}
		tail[r] = k
	}
	cell := func(k int) (col int, s []byte) {
		from := 0
		if k > 0 {
			from = end[k-1]
		}
		return from + k, text[from:end[k]]
	}
	// A row ends with its last event, trailing spaces trimmed (a string
	// value may end in some): every later cell would be blank.
	width := func(r int) int {
		col, s := cell(spans[r].Last)
		return col + len(bytes.TrimRight(s, " "))
	}
	var head [32]byte
	size := 0
	for r, tx := range txs {
		size += len(rowHead(head[:0], tx)) + width(r) + 1
	}
	var b strings.Builder
	b.Grow(size)
	for r, tx := range txs {
		b.Write(rowHead(head[:0], tx))
		at := 0
		for k := spans[r].First; ; k = next[k] {
			col, s := cell(k)
			writeSpaces(&b, col-at)
			if k == spans[r].Last {
				b.Write(bytes.TrimRight(s, " "))
				break
			}
			b.Write(s)
			at = col + len(s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// rowHead appends the head of tx's Format row, "T%-3d | ".
func rowHead(b []byte, tx TxID) []byte {
	b = appendTx(append(b, 'T'), tx)
	for len(b) < 4 {
		b = append(b, ' ')
	}
	return append(b, " | "...)
}

// spaces is the run writeSpaces copies from.
const spaces = "                                                                "

// writeSpaces writes n spaces to b.
func writeSpaces(b *strings.Builder, n int) {
	for n > 0 {
		m := min(n, len(spaces))
		b.WriteString(spaces[:m])
		n -= m
	}
}
