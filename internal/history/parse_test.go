package history

import (
	"strings"
	"testing"
)

func TestParseH1(t *testing.T) {
	h, err := Parse("w1(x,1) tryC1 C1 r2(x)->1 w3(x,2) w3(y,2) tryC3 C3 r2(y)->2 tryC2 A2")
	if err != nil {
		t.Fatal(err)
	}
	if !Equivalent(h, h1()) {
		t.Errorf("parsed history not equivalent to H1:\n got %v\nwant %v", h, h1())
	}
	if !equalEvents(h, h1()) {
		t.Errorf("parsed history differs from H1 event-for-event")
	}
}

func TestParseMultilineComments(t *testing.T) {
	src := `
# the paper's H3
w1(x,1) tryC1
r2(x)->1
`
	h, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !equalEvents(h, h3()) {
		t.Errorf("parsed %v, want H3", h)
	}
}

func TestParseGenericOps(t *testing.T) {
	h, err := Parse("inc1(c)->ok add1(c,5)->ok get1(c)->6 tryC1 C1")
	if err != nil {
		t.Fatal(err)
	}
	execs := h.OpExecs(1)
	if len(execs) != 3 {
		t.Fatalf("got %d execs", len(execs))
	}
	if execs[0].Op != "inc" || execs[0].Ret != OK {
		t.Errorf("exec0 = %+v", execs[0])
	}
	if execs[1].Op != "add" || execs[1].Arg != 5 {
		t.Errorf("exec1 = %+v", execs[1])
	}
	if execs[2].Op != "get" || execs[2].Ret != 6 {
		t.Errorf("exec2 = %+v", execs[2])
	}
}

func TestParsePendingInvAndRet(t *testing.T) {
	h, err := Parse("inv1(x.write,3) A1 inv2(y.read) ret2(y.read)->7")
	if err != nil {
		t.Fatal(err)
	}
	if h.Status(1) != StatusAborted {
		t.Error("T1 must be aborted")
	}
	execs := h.OpExecs(2)
	if len(execs) != 1 || execs[0].Pending || execs[0].Ret != 7 {
		t.Errorf("T2 execs = %+v", execs)
	}
	if err := h.WellFormed(); err != nil {
		t.Errorf("parsed history should be well-formed: %v", err)
	}
}

func TestParseControlEvents(t *testing.T) {
	h, err := Parse("tryA7 A7 tryC12 C12")
	if err != nil {
		t.Fatal(err)
	}
	if h[0].Kind != KindTryAbort || h[0].Tx != 7 {
		t.Errorf("h[0] = %v", h[0])
	}
	if h[3].Kind != KindCommit || h[3].Tx != 12 {
		t.Errorf("h[3] = %v", h[3])
	}
}

func TestParseValues(t *testing.T) {
	h, err := Parse("contains1(s,5)->true r2(x)->hello w3(x,ok)")
	if err != nil {
		t.Fatal(err)
	}
	if h.OpExecs(1)[0].Ret != true {
		t.Error("true must parse as bool")
	}
	if h.OpExecs(2)[0].Ret != "hello" {
		t.Error("bare word must parse as string")
	}
	if h.OpExecs(3)[0].Arg != OK {
		t.Error("ok must parse as the OK constant")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"r2(x)",      // read without return value
		"r2(x,3)->1", // read with argument
		"garbage",
		"inv1(xread)",     // missing dot
		"ret1(x.read)",    // ret without value
		"inc1(c)",         // generic op without return
		"w(x,1)",          // missing tx number
		"(x,1)->2",        // missing head
		"zzz",             // unrecognizable
		"r2(x)->1 broken", // second token bad
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for name, h := range map[string]History{"H1": h1(), "H2": h2(), "H3": h3()} {
		s := h.String()
		back, err := Parse(s)
		if err != nil {
			t.Errorf("%s: reparsing %q: %v", name, s, err)
			continue
		}
		if !equalEvents(back, h) {
			t.Errorf("%s: round trip changed history:\n  %v\n  %v", name, h, back)
		}
	}
}

func TestFormatTimeline(t *testing.T) {
	out := h1().Format()
	if !strings.Contains(out, "T1") || !strings.Contains(out, "T3") {
		t.Errorf("Format missing transaction rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Errorf("Format should emit one line per transaction, got %d", len(lines))
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse must panic on bad input")
		}
	}()
	MustParse("not a history !!!")
}

func TestParseTrailingComment(t *testing.T) {
	// cmd/histgen annotates each line with "# seed=N"; the annotation and
	// full-line comments must both parse away.
	h, err := Parse("w1(x,1) tryC1 C1   # seed=7\n# a full-line comment\nr2(x)->1")
	if err != nil {
		t.Fatal(err)
	}
	want := History{
		Inv(1, "x", "write", 1), Ret(1, "x", "write", OK),
		TryC(1), Commit(1),
		Inv(2, "x", "read", nil), Ret(2, "x", "read", 1),
	}
	if len(h) != len(want) {
		t.Fatalf("parsed %d events, want %d: %v", len(h), len(want), h)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, h[i], want[i])
		}
	}
}

// TestParseEdges pins the whitespace, comment and token-boundary edges
// of the one-pass scanner: every unicode.IsSpace rune separates tokens,
// invalid UTF-8 stays inside its token, '#' comments only at the start
// of a token, and blank input yields a nil History.
func TestParseEdges(t *testing.T) {
	w1 := []Event{Inv(1, "x", "write", 1), Ret(1, "x", "write", OK)}
	for _, tc := range []struct {
		src  string
		want History
		err  string
	}{
		{src: "w1(x,1) tryC1\r\nC1\r\n", want: append(History(w1), TryC(1), Commit(1))},
		{src: "\vw1(x,1)\ftryC1\tC1", want: append(History(w1), TryC(1), Commit(1))},
		{src: "w1(x,1)\u0085tryC1 C1", want: append(History(w1), TryC(1), Commit(1))},
		{src: "w1(x\xff,1)", want: History{Inv(1, "x\xff", "write", 1), Ret(1, "x\xff", "write", OK)}},
		{src: "C1 \xc2", err: `history: parsing "\xc2": unrecognized token`},
		{src: "\xc2\u0085C1", err: `history: parsing "\xc2": unrecognized token`},
		{src: "w1(x,1) # tryC1\nC1", want: append(History(w1), Commit(1))},
		{src: "w1(x,1)#c", err: `history: parsing "w1(x,1)#c": unrecognized token`},
		{src: "\n\n  \t\n"},
		{src: "# only a comment\n#"},
		{src: "C", err: `history: parsing "C": unrecognized token`},
		{src: "tryC", err: `history: parsing "tryC": unrecognized token`},
		{src: "r1(x)->", want: History{Inv(1, "x", "read", nil), Ret(1, "x", "read", "")}},
		{src: "w1(x,1)->", want: History{Inv(1, "x", "write", 1), Ret(1, "x", "write", "")}},
		{src: "w1(x,)", want: History{Inv(1, "x", "write", ""), Ret(1, "x", "write", OK)}},
		{src: "r1(x,)->1", err: `history: parsing "r1(x,)->1": read takes no argument`},
	} {
		h, err := Parse(tc.src)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("Parse(%q) error = %v, want %q", tc.src, err, tc.err)
			}
			if h != nil {
				t.Errorf("Parse(%q) = %v alongside its error, want nil", tc.src, h)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.src, err)
			continue
		}
		if (h == nil) != (tc.want == nil) || !equalEvents(h, tc.want) {
			t.Errorf("Parse(%q) = %#v, want %#v", tc.src, h, tc.want)
		}
	}
}
