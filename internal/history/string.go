package history

import (
	"fmt"
	"strings"
)

// String renders a single event in a compact, paper-like notation:
// read/write on registers use the shorthand r2(x)->1 / w1(x,1)->ok; other
// operations use op2(obj,args)->ret; control events use tryC1, C1, tryA1,
// A1.
func (e Event) String() string {
	switch e.Kind {
	case KindInv:
		if e.Arg != nil {
			return fmt.Sprintf("inv%d(%s.%s,%v)", int(e.Tx), e.Obj, e.Op, e.Arg)
		}
		return fmt.Sprintf("inv%d(%s.%s)", int(e.Tx), e.Obj, e.Op)
	case KindRet:
		return fmt.Sprintf("ret%d(%s.%s)->%v", int(e.Tx), e.Obj, e.Op, e.Ret)
	case KindTryCommit:
		return fmt.Sprintf("tryC%d", int(e.Tx))
	case KindTryAbort:
		return fmt.Sprintf("tryA%d", int(e.Tx))
	case KindCommit:
		return fmt.Sprintf("C%d", int(e.Tx))
	case KindAbort:
		return fmt.Sprintf("A%d", int(e.Tx))
	default:
		return fmt.Sprintf("?%d", int(e.Tx))
	}
}

// String renders the history as a single line of events separated by
// spaces, merging each matching inv/ret pair into one operation-execution
// token where possible (pairs separated by other events stay split, and
// so do pairs whose operation name the merged token cannot carry — see
// mergeable).
func (h History) String() string {
	var parts []string
	i := 0
	for i < len(h) {
		e := h[i]
		if e.Kind == KindInv && i+1 < len(h) && h[i+1].Kind == KindRet && Matches(e, h[i+1]) && mergeable(e.Op) {
			r := h[i+1]
			if e.Arg != nil {
				parts = append(parts, fmt.Sprintf("%s%d(%s,%v)->%v", e.Op, int(e.Tx), e.Obj, e.Arg, r.Ret))
			} else {
				parts = append(parts, fmt.Sprintf("%s%d(%s)->%v", e.Op, int(e.Tx), e.Obj, r.Ret))
			}
			i += 2
			continue
		}
		parts = append(parts, e.String())
		i++
	}
	return strings.Join(parts, " ")
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

// Format renders the history as a per-transaction timeline, one line per
// transaction, with events placed in global order — a textual analogue of
// the paper's Figures 1 and 2. Useful for debugging opacity violations.
func (h History) Format() string {
	txs := h.Transactions()
	col := make(map[TxID]int, len(txs))
	for i, tx := range txs {
		col[tx] = i
	}
	lines := make([][]string, len(txs))
	for _, e := range h {
		c := col[e.Tx]
		for i := range lines {
			if i == c {
				lines[i] = append(lines[i], e.String())
			} else {
				lines[i] = append(lines[i], strings.Repeat(" ", len(e.String())))
			}
		}
	}
	var b strings.Builder
	for i, tx := range txs {
		fmt.Fprintf(&b, "T%-3d | %s\n", int(tx), strings.TrimRight(strings.Join(lines[i], " "), " "))
	}
	return b.String()
}
