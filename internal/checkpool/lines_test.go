package checkpool

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"otm/internal/core"
)

// writerChain renders a history of n committed writers of x, one line
// of about 28n bytes.
func writerChain(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "w%d(x,%d) tryC%d C%d ", i, i, i, i)
	}
	return b.String()
}

// TestLines pins the batch line format: trimmed lines, blank and '#'
// lines skipped, labels numbered from first, parse failures as errored
// items, no length cap and no need for a final newline.
func TestLines(t *testing.T) {
	long := writerChain(4000) // over bufio.Scanner's 64 KiB token cap
	input := strings.Join([]string{
		"# header",
		"  w1(x,1) tryC1 C1 \t",
		"",
		"   ",
		"not a history",
		long,
		"r1(x)->0 tryC1 C1", // no trailing newline
	}, "\n")
	var readErr error
	var got []Item
	for item := range Lines(strings.NewReader(input), "in", 10, &readErr) {
		got = append(got, item)
	}
	if readErr != nil {
		t.Fatalf("readErr = %v on a healthy reader", readErr)
	}
	want := []struct {
		source string
		txs    int
		err    bool
	}{{"in:11", 1, false}, {"in:14", 0, true}, {"in:15", 4000, false}, {"in:16", 1, false}}
	if len(got) != len(want) {
		t.Fatalf("%d items, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Source != w.source || (got[i].Err != nil) != w.err {
			t.Errorf("item %d: source %q err %v, want %q err=%v", i, got[i].Source, got[i].Err, w.source, w.err)
		}
		if !w.err && len(got[i].History.Transactions()) != w.txs {
			t.Errorf("item %d: %d transactions, want %d", i, len(got[i].History.Transactions()), w.txs)
		}
	}
}

// TestLinesReadError: a read error ends the sequence with one errored
// item for the line it cut — the cut line is not checked as if it were
// whole — and reaches readErr when one is given.
func TestLinesReadError(t *testing.T) {
	boom := errors.New("disk gone")
	input := func() io.Reader {
		// The second line is cut after "w2(x,2) tryC2": whole, it would
		// parse to a different history.
		return io.MultiReader(strings.NewReader("w1(x,1) tryC1 C1\nw2(x,2) tryC2"), iotest.ErrReader(boom))
	}
	for _, withErr := range []bool{false, true} {
		var readErr error
		dst := &readErr
		if !withErr {
			dst = nil
		}
		var got []Item
		for item := range Lines(input(), "f", 1, dst) {
			got = append(got, item)
		}
		if len(got) != 2 || got[0].Source != "f:1" || got[0].Err != nil ||
			got[1].Source != "f:2" || !errors.Is(got[1].Err, boom) {
			t.Fatalf("withErr=%v: items %+v, want f:1 checked and f:2 the read error", withErr, got)
		}
		if withErr && !errors.Is(readErr, boom) {
			t.Errorf("readErr = %v, want the read error", readErr)
		}
	}
}

// TestLinesStopsWhenAsked: a consumer that stops early gets no further
// items.
func TestLinesStopsWhenAsked(t *testing.T) {
	n := 0
	for range Lines(strings.NewReader("r1(x)->0\nr2(x)->0\nr3(x)->0\n"), "s", 1, nil) {
		if n++; n == 2 {
			break
		}
	}
	if n != 2 {
		t.Errorf("consumed %d items, want 2", n)
	}
}

// TestTally pins the counting rule and the totals line every batch
// summary prints.
func TestTally(t *testing.T) {
	var a Tally
	a.Add(Verdict{Result: core.Result{Opaque: true, Nodes: 3}})
	a.Add(Verdict{Result: core.Result{Nodes: 5}})
	a.Add(Verdict{Result: core.Result{Opaque: true, Nodes: 7}, Err: core.ErrSearchLimit})
	if want := (Tally{Histories: 3, Opaque: 1, NonOpaque: 1, Errored: 1, Nodes: 15}); a != want {
		t.Fatalf("after three verdicts: %#v, want %#v", a, want)
	}
	b := Tally{Histories: 2, Opaque: 2, Nodes: 100}
	b.Merge(a)
	if got, want := b.String(), "5 histories: 3 opaque, 1 non-opaque, 1 errors; 115 search nodes"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
