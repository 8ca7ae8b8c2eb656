package history_test

import (
	"fmt"
	"strings"
	"testing"

	"otm/internal/history"
	"otm/internal/spec"
)

// The fmt-based renderers, kept verbatim as the references the one-buffer
// Event.String, History.String, OpExec.String and History.Format are
// pinned to.

func refEventString(e history.Event) string {
	switch e.Kind {
	case history.KindInv:
		if e.Arg != nil {
			return fmt.Sprintf("inv%d(%s.%s,%v)", int(e.Tx), e.Obj, e.Op, e.Arg)
		}
		return fmt.Sprintf("inv%d(%s.%s)", int(e.Tx), e.Obj, e.Op)
	case history.KindRet:
		return fmt.Sprintf("ret%d(%s.%s)->%v", int(e.Tx), e.Obj, e.Op, e.Ret)
	case history.KindTryCommit:
		return fmt.Sprintf("tryC%d", int(e.Tx))
	case history.KindTryAbort:
		return fmt.Sprintf("tryA%d", int(e.Tx))
	case history.KindCommit:
		return fmt.Sprintf("C%d", int(e.Tx))
	case history.KindAbort:
		return fmt.Sprintf("A%d", int(e.Tx))
	default:
		return fmt.Sprintf("?%d", int(e.Tx))
	}
}

func refHistoryString(h history.History) string {
	var parts []string
	i := 0
	for i < len(h) {
		e := h[i]
		if e.Kind == history.KindInv && i+1 < len(h) && h[i+1].Kind == history.KindRet && history.Matches(e, h[i+1]) && refMergeable(e.Op) {
			r := h[i+1]
			if e.Arg != nil {
				parts = append(parts, fmt.Sprintf("%s%d(%s,%v)->%v", e.Op, int(e.Tx), e.Obj, e.Arg, r.Ret))
			} else {
				parts = append(parts, fmt.Sprintf("%s%d(%s)->%v", e.Op, int(e.Tx), e.Obj, r.Ret))
			}
			i += 2
			continue
		}
		parts = append(parts, refEventString(e))
		i++
	}
	return strings.Join(parts, " ")
}

func refMergeable(op string) bool {
	switch op {
	case "", "r", "w", "inv", "ret":
		return false
	}
	last := op[len(op)-1]
	return op[0] != '#' && (last < '0' || last > '9') && !strings.Contains(op, "(")
}

func refOpExecString(e history.OpExec) string {
	s := fmt.Sprintf("%s_%d(%s", e.Op, int(e.Tx), e.Obj)
	if e.Arg != nil {
		s += fmt.Sprintf(", %v", e.Arg)
	}
	s += ")"
	if e.Pending {
		return s + " -> ?"
	}
	return s + fmt.Sprintf(" -> %v", e.Ret)
}

func refFormat(h history.History) string {
	txs := h.Transactions()
	col := make(map[history.TxID]int, len(txs))
	for i, tx := range txs {
		col[tx] = i
	}
	lines := make([][]string, len(txs))
	for _, e := range h {
		c := col[e.Tx]
		for i := range lines {
			if i == c {
				lines[i] = append(lines[i], refEventString(e))
			} else {
				lines[i] = append(lines[i], strings.Repeat(" ", len(refEventString(e))))
			}
		}
	}
	var b strings.Builder
	for i, tx := range txs {
		fmt.Fprintf(&b, "T%-3d | %s\n", int(tx), strings.TrimRight(strings.Join(lines[i], " "), " "))
	}
	return b.String()
}

// checkRenderers compares all four renderers on h with their references:
// String, every event's String, every execution's String per transaction,
// and Format.
func checkRenderers(t *testing.T, h history.History) {
	t.Helper()
	if got, want := h.String(), refHistoryString(h); got != want {
		t.Fatalf("String() = %q, reference %q", got, want)
	}
	for i, e := range h {
		if got, want := e.String(), refEventString(e); got != want {
			t.Fatalf("event %d: String() = %q, reference %q", i, got, want)
		}
	}
	for _, tx := range h.Transactions() {
		for _, x := range h.OpExecs(tx) {
			if got, want := x.String(), refOpExecString(x); got != want {
				t.Fatalf("OpExec.String() = %q, reference %q", got, want)
			}
		}
	}
	if got, want := h.Format(), refFormat(h); got != want {
		t.Fatalf("Format() of %q =\n%s\nreference\n%s", h.String(), got, want)
	}
}

// FuzzStringMatchesReference pins the one-buffer renderers to the
// fmt-based references on anything Parse accepts. It is seeded like
// FuzzParseMatchesReference.
func FuzzStringMatchesReference(f *testing.F) {
	addParseCorpus(f)
	for _, s := range loadSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		h, err := history.Parse(src)
		if err != nil {
			return
		}
		checkRenderers(t, h)
	})
}

// stringer is a Value with a String method, which %v calls.
type stringer struct{ n int }

func (s stringer) String() string { return fmt.Sprintf("S<%d>", s.n) }

// TestStringValueKinds covers the values Parse never produces, so the
// fuzz target cannot reach them: other integer types, empty and spaced
// strings (a trailing space is what Format's row trimming meets), a
// struct argument, a Stringer and a float, as arguments and returns of
// merged pairs, unmerged pairs (names mergeable rejects), pairs split by
// another event and pending invocations; plus transaction numbers that
// are negative or wider than Format's three-column head, and an unknown
// event kind.
func TestStringValueKinds(t *testing.T) {
	values := []history.Value{
		nil, 0, -7, 1 << 40, int64(5),
		"", "ok", "a b", "a  ",
		true,
		spec.CASArg{Old: 1, New: 2}, stringer{3}, 1.5,
	}
	for _, v := range values {
		h := history.History{
			history.Inv(1, "x", "cas", v), history.Ret(1, "x", "cas", v),
			history.Inv(2, "y", "a7", v), history.Ret(2, "y", "a7", v),
			history.Inv(-5, "z", "r", v), history.Ret(-5, "z", "r", v),
			history.Inv(1234, "x", "read", v),
			history.TryC(1), history.Commit(1),
			history.Ret(1234, "x", "read", v),
			history.Inv(7, "w", "op", v),
			history.TryA(2), history.Abort(2),
			{Kind: 9, Tx: 8},
			history.Inv(1234, "x", "write", v),
		}
		checkRenderers(t, h)
		for _, x := range []history.OpExec{
			{Tx: 3, Obj: "x", Op: "cas", Arg: v, Ret: v},
			{Tx: 3, Obj: "x", Op: "cas", Arg: v, Ret: v, Pending: true},
		} {
			if got, want := x.String(), refOpExecString(x); got != want {
				t.Errorf("OpExec.String() = %q, reference %q", got, want)
			}
		}
	}
}

// TestTxListMatchesReference pins TxList to the fmt-based join that
// verdict lines, violation artifacts, opacheck's -replay lines and the
// criteria report each used to render transaction lists with: empty,
// single and unsorted lists, and negative and wide numbers.
func TestTxListMatchesReference(t *testing.T) {
	for _, txs := range [][]history.TxID{nil, {1}, {2, 1, 3}, {-5, 0, 1234, 1 << 40}} {
		parts := make([]string, len(txs))
		for i, tx := range txs {
			parts[i] = fmt.Sprintf("T%d", int(tx))
		}
		if got, want := history.TxList(txs), strings.Join(parts, " "); got != want {
			t.Errorf("TxList(%v) = %q, reference %q", txs, got, want)
		}
	}
}
