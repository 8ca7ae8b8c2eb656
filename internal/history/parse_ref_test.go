package history_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"otm/internal/gen"
	"otm/internal/history"
)

// refParse is the original line-splitting parser, kept verbatim as the
// reference Parse is pinned to: strings.Split into lines, strings.Fields
// into tokens, one []Event per token.
func refParse(s string) (history.History, error) {
	var h history.History
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		for _, tok := range strings.Fields(line) {
			if strings.HasPrefix(tok, "#") {
				break
			}
			evs, err := refParseToken(tok)
			if err != nil {
				return nil, fmt.Errorf("history: parsing %q: %w", tok, err)
			}
			h = append(h, evs...)
		}
	}
	return h, nil
}

func refParseValue(s string) history.Value {
	if s == history.OK {
		return history.OK
	}
	if n, err := strconv.Atoi(s); err == nil {
		return n
	}
	if s == "true" {
		return true
	}
	if s == "false" {
		return false
	}
	return s
}

func refSplitHead(tok string) (name string, tx history.TxID, inner string, ok bool) {
	open := strings.IndexByte(tok, '(')
	if open < 0 || !strings.HasSuffix(tok, ")") {
		return "", 0, "", false
	}
	head := tok[:open]
	inner = tok[open+1 : len(tok)-1]
	i := len(head)
	for i > 0 && head[i-1] >= '0' && head[i-1] <= '9' {
		i--
	}
	if i == len(head) || i == 0 {
		return "", 0, "", false
	}
	n, err := strconv.Atoi(head[i:])
	if err != nil {
		return "", 0, "", false
	}
	return head[:i], history.TxID(n), inner, true
}

func refParseToken(tok string) ([]history.Event, error) {
	for _, p := range []struct {
		prefix string
		make   func(history.TxID) history.Event
	}{
		{"tryC", history.TryC}, {"tryA", history.TryA}, {"C", history.Commit}, {"A", history.Abort},
	} {
		if strings.HasPrefix(tok, p.prefix) {
			if n, err := strconv.Atoi(tok[len(p.prefix):]); err == nil {
				return []history.Event{p.make(history.TxID(n))}, nil
			}
		}
	}

	body, retStr, hasRet := tok, "", false
	if i := strings.Index(tok, ")->"); i >= 0 {
		body, retStr, hasRet = tok[:i+1], tok[i+3:], true
	}
	name, tx, inner, ok := refSplitHead(body)
	if !ok {
		return nil, fmt.Errorf("unrecognized token")
	}

	switch name {
	case "inv":
		obj, op, arg, err := refParseObjOp(inner)
		if err != nil {
			return nil, err
		}
		return []history.Event{history.Inv(tx, obj, op, arg)}, nil
	case "ret":
		obj, op, _, err := refParseObjOp(inner)
		if err != nil {
			return nil, err
		}
		if !hasRet {
			return nil, fmt.Errorf("ret token requires ->value")
		}
		return []history.Event{history.Ret(tx, obj, op, refParseValue(retStr))}, nil
	}

	op := name
	if op == "r" {
		op = "read"
	}
	if op == "w" {
		op = "write"
	}
	parts := strings.SplitN(inner, ",", 2)
	obj := history.ObjID(strings.TrimSpace(parts[0]))
	var arg history.Value
	if len(parts) == 2 {
		arg = refParseValue(strings.TrimSpace(parts[1]))
	}
	var ret history.Value
	switch {
	case hasRet:
		ret = refParseValue(retStr)
	case op == "write":
		ret = history.OK
	default:
		return nil, fmt.Errorf("operation %q requires ->value", op)
	}
	if op == "read" && arg != nil {
		return nil, fmt.Errorf("read takes no argument")
	}
	return []history.Event{history.Inv(tx, obj, op, arg), history.Ret(tx, obj, op, ret)}, nil
}

func refParseObjOp(inner string) (history.ObjID, string, history.Value, error) {
	var argStr string
	if i := strings.Index(inner, ","); i >= 0 {
		inner, argStr = inner[:i], strings.TrimSpace(inner[i+1:])
	}
	dot := strings.Index(inner, ".")
	if dot < 0 {
		return "", "", nil, fmt.Errorf("expected obj.op")
	}
	var arg history.Value
	if argStr != "" {
		arg = refParseValue(argStr)
	}
	return history.ObjID(strings.TrimSpace(inner[:dot])), strings.TrimSpace(inner[dot+1:]), arg, nil
}

// parseEdges are the whitespace, comment and token-boundary inputs the
// one-pass scanner must split exactly as the line splitter did.
var parseEdges = []string{
	"w1(x,1) tryC1\r\nC1\r\n",
	"w1(x,1)\vtryC1\fC1",
	"w1(x,1)\u0085tryC1 C1",
	"w1(x ,1) C1　A2",
	"w1(x\xff,1) C1",
	"\xc2 C1",
	"\xc2\u0085C1",
	"w1(x,1) # tryC1 C1\nC1",
	"w1(x,1)#c",
	"# only a comment",
	"#\n#\n",
	"\n\n  \t\n",
	"",
	"C",
	"tryC",
	"C-1 A+2 tryC007",
	"r1(x)->",
	"w1(x,1)->",
	"r1(x,)->1",
	"w1(x,)",
	"inv1(x.read,) ret1(x.read)->",
	"inc1(c)",
	"r1(x)->1)->2",
}

// addParseCorpus seeds f with parseSeeds, parseEdges and generated
// histories, one per input and joined into one multi-line input with
// histgen's "# seed=N" comments, the shape opacheck's files have.
func addParseCorpus(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	for _, s := range parseEdges {
		f.Add(s)
	}
	var file strings.Builder
	for i, h := range gen.Corpus(gen.Config{Txs: 5, Objs: 3, MaxOps: 3, PStaleRead: 0.3, PLeaveLive: 0.5}, 200, 0) {
		f.Add(h.String())
		fmt.Fprintf(&file, "%s # seed=%d\n", h, i)
	}
	f.Add(file.String())
}

// FuzzParseMatchesReference pins the one-pass Parse to refParse: on any
// input both return the same events, nil-ness and error text. It is
// seeded by addParseCorpus.
func FuzzParseMatchesReference(f *testing.F) {
	addParseCorpus(f)
	f.Fuzz(func(t *testing.T, src string) {
		got, err := history.Parse(src)
		want, wantErr := refParse(src)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("Parse(%q) error = %v, reference %v", src, err, wantErr)
		}
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("Parse(%q) = %v (nil %v), reference %v (nil %v)", src, got, got == nil, want, want == nil)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Parse(%q) event %d = %#v, reference %#v", src, i, got[i], want[i])
			}
		}
	})
}
