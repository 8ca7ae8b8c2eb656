package history_test

import (
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
