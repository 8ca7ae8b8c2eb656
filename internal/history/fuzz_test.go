package history_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"otm/internal/history"
)

// parseSeeds seed FuzzParse and FuzzParseMatchesReference.
var parseSeeds = []string{
	"w1(x,1) tryC1 C1 r2(x)->1 w3(x,2) w3(y,2) tryC3 C3 r2(y)->2 tryC2 A2",
	"inv1(x.write,3) A1 inv2(y.read) ret2(y.read)->7",
	"inc1(c)->ok add1(c,5)->ok get1(c)->6 tryC1 C1",
	"tryA7 A7 tryC12 C12",
	"# comment\nw1(x,1)\n",
	"r2(x)->hello contains1(s,5)->true",
	"))((",
	"w(x)",
	"",
	// Operation names a merged op<tx>(...)->ret token cannot carry.
	"inv1(x.r) ret1(x.r)->1 inv2(x.a7) ret2(x.a7)->ok inv3(x.ret) ret3(x.ret)->0",
	"inv4(x.#a) ret4(x.#a)->1 inv5(x.a(b) ret5(x.a(b)->1",
}

// FuzzParse checks that the textual-history parser never panics and that
// anything it accepts re-renders and re-parses to the same events
// whenever the history is well-formed (String() merges inv/ret pairs, so
// the round trip is only guaranteed for parseable outputs; we assert the
// weaker "no panic, stable second parse" on everything).
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		h, err := history.Parse(src)
		if err != nil {
			return
		}
		// Accepted input: rendering must be reparseable to the same
		// events.
		s := h.String()
		h2, err := history.Parse(s)
		if err != nil {
			t.Fatalf("String output %q failed to reparse: %v", s, err)
		}
		if len(h) != len(h2) {
			t.Fatalf("round trip changed length: %d vs %d", len(h), len(h2))
		}
		for i := range h {
			if h[i] != h2[i] {
				t.Fatalf("round trip changed event %d: %v vs %v", i, h[i], h2[i])
			}
		}
		// WellFormed must not panic on arbitrary accepted histories.
		_ = h.WellFormed()
	})
}

// loadSeeds are FuzzLoadMatchesAppend's seeds past parseSeeds: histories
// over the Appender's 32-transaction and 32-object lookup cutoffs, with
// interleaved, live, commit-pending and ill-formed transactions, so both
// the linear and the hashed lookups run.
func loadSeeds() []string {
	var wide, objs, bad strings.Builder
	for i := 1; i <= 40; i++ {
		fmt.Fprintf(&wide, "inv%d(x.read) ", i)
	}
	for i := 1; i <= 40; i++ {
		switch i % 4 {
		case 0:
			fmt.Fprintf(&wide, "ret%d(x.read)->0 tryC%d C%d ", i, i, i)
		case 1:
			fmt.Fprintf(&wide, "ret%d(x.read)->0 tryC%d ", i, i)
		case 2:
			fmt.Fprintf(&wide, "A%d ", i)
		}
	}
	for i := 1; i <= 40; i++ {
		fmt.Fprintf(&objs, "w%d(o%d,%d) r%d(o%d)->0 ", i%5+1, i, i, i%3+1, 40-i)
	}
	objs.WriteString("tryC1 C1 tryC2 A2 tryC3")
	for i := 1; i <= 36; i++ {
		fmt.Fprintf(&bad, "w%d(x,%d) tryC%d C%d ", i, i, i, i)
	}
	bad.WriteString("r7(x)->1")
	return []string{wide.String(), objs.String(), bad.String()}
}

// FuzzLoadMatchesAppend pins Appender.Load to event-by-event Append: on
// any parsed input both reach the same state — views, statuses, the
// history itself — and reject the same event with the same
// *WellFormedError. It also checks that Load never writes into the
// loaded history's array: an Append, a Truncate at every stable cut and
// a Reset after Load each leave it equal to its clone, and an Append
// leaves a spare slot past its length untouched.
func FuzzLoadMatchesAppend(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	for _, s := range loadSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		parsed, err := history.Parse(src)
		if err != nil {
			return
		}
		// h gets one spare slot past its length, zero, which nothing may
		// write.
		h := append(make(history.History, 0, len(parsed)+1), parsed...)
		clone := h.Clone()
		var ld, ap history.Appender
		lerr := ld.Load(h)
		var aerr error
		for _, ev := range h {
			if aerr = ap.Append(ev); aerr != nil {
				break
			}
		}
		sameWellFormedError(t, lerr, aerr)
		sameAppender(t, &ld, &ap, "after Load")
		if got := ld.History(); cap(got) != len(got) {
			t.Fatalf("History() after Load has capacity %d past its length %d", cap(got), len(got))
		}
		untouched := func(when string) {
			t.Helper()
			if !slices.Equal(h, clone) || h[:len(h)+1][len(h)] != (history.Event{}) {
				t.Fatalf("%s wrote into the loaded history", when)
			}
		}

		fresh := history.TxID(1)
		for _, ev := range h {
			fresh = max(fresh, ev.Tx+1)
		}
		for _, a := range []*history.Appender{&ld, &ap} {
			if err := a.Append(history.TryC(fresh)); err != nil {
				t.Fatalf("Append(tryC%d) after Load: %v", fresh, err)
			}
		}
		sameAppender(t, &ld, &ap, "after Load and Append")
		untouched("Append after Load")

		_ = ld.Load(h)
		accepted := h[:ld.Len()]
		for n := 1; n <= len(accepted); n++ {
			_ = ld.Load(h)
			ap.Reset()
			for _, ev := range accepted {
				_ = ap.Append(ev)
			}
			lerr, aerr := ld.Truncate(n), ap.Truncate(n)
			if (lerr == nil) != (aerr == nil) {
				t.Fatalf("Truncate(%d): after Load %v, after Append %v", n, lerr, aerr)
			}
			if lerr == nil {
				sameAppender(t, &ld, &ap, fmt.Sprintf("after Truncate(%d)", n))
				untouched(fmt.Sprintf("Truncate(%d) after Load", n))
			}
		}

		_ = ld.Load(h)
		ld.Reset()
		if err := ld.Append(history.TryC(fresh)); err != nil {
			t.Fatal(err)
		}
		untouched("Reset and Append after Load")
	})
}

// sameWellFormedError requires two rejections to be the same
// *WellFormedError, or both to be nil.
func sameWellFormedError(t *testing.T, got, want error) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Fatalf("Load returned %v, appending returned %v", got, want)
		}
		return
	}
	var g, w *history.WellFormedError
	if !errors.As(got, &g) || !errors.As(want, &w) {
		t.Fatalf("Load returned %v, appending returned %v: want *WellFormedError from both", got, want)
	}
	if g.Index != w.Index || g.Ev != w.Ev || g.Msg != w.Msg {
		t.Fatalf("Load returned %+v, appending returned %+v", *g, *w)
	}
}

// sameAppender requires a and b to hold the same history, views and
// statuses.
func sameAppender(t *testing.T, a, b *history.Appender, when string) {
	t.Helper()
	if !slices.Equal(a.History(), b.History()) {
		t.Fatalf("%s: History() = %v, want %v", when, a.History(), b.History())
	}
	if a.Open() != b.Open() {
		t.Fatalf("%s: Open() = %d, want %d", when, a.Open(), b.Open())
	}
	if !slices.Equal(a.Transactions(), b.Transactions()) ||
		!slices.Equal(a.Spans(), b.Spans()) ||
		!slices.Equal(a.EventTxs(), b.EventTxs()) ||
		!slices.Equal(a.Objects(), b.Objects()) ||
		!slices.EqualFunc(a.OpExecs(), b.OpExecs(), slices.Equal) {
		t.Fatalf("%s: views differ:\n%v %v %v %v %v\n%v %v %v %v %v", when,
			a.Transactions(), a.Spans(), a.EventTxs(), a.Objects(), a.OpExecs(),
			b.Transactions(), b.Spans(), b.EventTxs(), b.Objects(), b.OpExecs())
	}
	for i, tx := range b.Transactions() {
		if a.Status(tx) != b.Status(tx) || a.StatusAt(i) != b.Status(tx) {
			t.Fatalf("%s: T%d is %v (at %d: %v), want %v", when, int(tx), a.Status(tx), i, a.StatusAt(i), b.Status(tx))
		}
	}
	// The two share their lookups, so b is also held to scans of its
	// history.
	h := b.History()
	if !slices.Equal(b.Transactions(), h.Transactions()) || !slices.Equal(b.Objects(), h.Objects()) {
		t.Fatalf("%s: Transactions() %v and Objects() %v, scans say %v and %v", when,
			b.Transactions(), b.Objects(), h.Transactions(), h.Objects())
	}
	for i, tx := range b.Transactions() {
		if b.StatusAt(i) != h.Status(tx) || !slices.Equal(b.OpExecs()[i], h.OpExecs(tx)) {
			t.Fatalf("%s: T%d is %v with %v, scans say %v with %v", when, int(tx),
				b.StatusAt(i), b.OpExecs()[i], h.Status(tx), h.OpExecs(tx))
		}
	}
	for i, ti := range b.EventTxs() {
		if b.Transactions()[ti] != h[i].Tx {
			t.Fatalf("%s: event %d (%v) indexed to T%d", when, i, h[i], int(b.Transactions()[ti]))
		}
	}
}
