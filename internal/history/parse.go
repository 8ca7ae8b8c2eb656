package history

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse parses the textual history notation used by cmd/opacheck and by
// (h History).String(). Tokens are separated by whitespace; supported
// forms, where <n> is a transaction number:
//
//	r<n>(x)->1          read execution on register x returning 1
//	w<n>(x,1)           write execution (return value ok implied)
//	w<n>(x,1)->ok       write execution, explicit return
//	inc<n>(c)->ok       generic operation execution, no argument
//	add<n>(c,5)->ok     generic operation execution with argument
//	inv<n>(x.read)      pending operation invocation
//	inv<n>(x.write,3)   pending operation invocation with argument
//	ret<n>(x.read)->1   lone operation response (pairs with earlier inv)
//	tryC<n> C<n> tryA<n> A<n>   control events
//
// Values that look like integers parse as int; "ok" parses as the OK
// constant; anything else parses as a string. Blank lines are ignored,
// and a token starting with '#' comments out the rest of its line — so
// both full-line comments and the trailing "# seed=N" annotations of
// cmd/histgen parse cleanly. Whitespace is what unicode.IsSpace accepts,
// so U+0085 and U+00A0 separate tokens too.
//
// The input is scanned once and every event is appended straight into
// the result; blank input yields a nil History.
func Parse(s string) (History, error) {
	var h History
	for i := 0; i < len(s); {
		if n := spaceAt(s, i); n > 0 {
			i += n
			continue
		}
		// Stepping byte by byte is sound: no byte inside a non-space
		// rune starts a space rune.
		j := i + 1
		for j < len(s) && spaceAt(s, j) == 0 {
			j++
		}
		tok := s[i:j]
		if tok[0] == '#' {
			// A comment runs to the end of its line.
			nl := strings.IndexByte(s[j:], '\n')
			if nl < 0 {
				break
			}
			i = j + nl
			continue
		}
		if h == nil {
			// Events take about six input bytes each, so this is one
			// allocation for most inputs; the cap keeps a long
			// comment-heavy input from reserving far more than it fills.
			h = make(History, 0, min((len(s)-i)/6+2, 256))
		}
		var err error
		if h, err = appendToken(h, tok); err != nil {
			return nil, fmt.Errorf("history: parsing %q: %w", tok, err)
		}
		i = j
	}
	return h, nil
}

// asciiSpace is 1 at the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// spaceAt returns the width of the whitespace rune starting at s[i], or
// 0 if s[i] does not start one. An invalid byte is never whitespace, as
// in strings.Fields.
func spaceAt(s string, i int) int {
	if c := s[i]; c < utf8.RuneSelf {
		return int(asciiSpace[c])
	}
	return wideSpace(s[i:])
}

// wideSpace is spaceAt for a non-ASCII first byte.
func wideSpace(s string) int {
	if r, n := utf8.DecodeRuneInString(s); unicode.IsSpace(r) {
		return n
	}
	return 0
}

// MustParse is Parse, panicking on error; for tests and fixtures.
func MustParse(s string) History {
	h, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return h
}

func parseValue(s string) Value {
	if s == OK {
		return OK
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

// splitHead splits "name123(..." into (name, 123, rest-after-paren) or
// returns ok=false for tokens without parentheses.
func splitHead(tok string) (name string, tx TxID, inner string, ok bool) {
	open := strings.IndexByte(tok, '(')
	if open < 0 || !strings.HasSuffix(tok, ")") {
		return "", 0, "", false
	}
	head := tok[:open]
	inner = tok[open+1 : len(tok)-1]
	// The transaction number is the trailing digit run of the head.
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
	return head[:i], TxID(n), inner, true
}

// controlEvent parses tok as a control event — tryC7, tryA7, C7 or A7.
func controlEvent(tok string) (Event, bool) {
	for _, p := range [...]struct {
		prefix string
		kind   Kind
	}{
		{"tryC", KindTryCommit}, {"tryA", KindTryAbort}, {"C", KindCommit}, {"A", KindAbort},
	} {
		if strings.HasPrefix(tok, p.prefix) {
			if n, err := strconv.Atoi(tok[len(p.prefix):]); err == nil {
				return Event{Kind: p.kind, Tx: TxID(n)}, true
			}
		}
	}
	return Event{}, false
}

// appendToken appends the events of one token to h. A token holds no
// whitespace, so none of its parts needs trimming.
func appendToken(h History, tok string) (History, error) {
	if ev, ok := controlEvent(tok); ok {
		return append(h, ev), nil
	}

	// Operation-like tokens: head(inner) or head(inner)->ret.
	body, retStr, hasRet := tok, "", false
	if i := strings.Index(tok, ")->"); i >= 0 {
		body, retStr, hasRet = tok[:i+1], tok[i+3:], true
	}
	name, tx, inner, ok := splitHead(body)
	if !ok {
		return h, fmt.Errorf("unrecognized token")
	}

	switch name {
	case "inv":
		obj, op, arg, err := parseObjOp(inner)
		if err != nil {
			return h, err
		}
		return append(h, Inv(tx, obj, op, arg)), nil
	case "ret":
		obj, op, _, err := parseObjOp(inner)
		if err != nil {
			return h, err
		}
		if !hasRet {
			return h, fmt.Errorf("ret token requires ->value")
		}
		return append(h, Ret(tx, obj, op, parseValue(retStr))), nil
	}

	// Operation execution: r2(x)->1, w1(x,1), inc3(c)->ok, ...
	op := name
	if op == "r" {
		op = "read"
	}
	if op == "w" {
		op = "write"
	}
	obj := ObjID(inner)
	var arg Value
	if c := strings.IndexByte(inner, ','); c >= 0 {
		obj, arg = ObjID(inner[:c]), parseValue(inner[c+1:])
	}
	var ret Value
	switch {
	case hasRet:
		ret = parseValue(retStr)
	case op == "write":
		ret = OK
	default:
		return h, fmt.Errorf("operation %q requires ->value", op)
	}
	if op == "read" && arg != nil {
		return h, fmt.Errorf("read takes no argument")
	}
	return append(h, Inv(tx, obj, op, arg), Ret(tx, obj, op, ret)), nil
}

// parseObjOp parses "obj.op" or "obj.op,arg".
func parseObjOp(inner string) (ObjID, string, Value, error) {
	var argStr string
	if i := strings.IndexByte(inner, ','); i >= 0 {
		inner, argStr = inner[:i], inner[i+1:]
	}
	dot := strings.IndexByte(inner, '.')
	if dot < 0 {
		return "", "", nil, fmt.Errorf("expected obj.op")
	}
	var arg Value
	if argStr != "" {
		arg = parseValue(argStr)
	}
	return ObjID(inner[:dot]), inner[dot+1:], arg, nil
}
