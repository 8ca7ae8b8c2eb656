package checkpool

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"testing"
	"time"

	"otm/internal/core"
	"otm/internal/history"
)

// waitGoroutines polls until the goroutine count settles back to at most
// base (plus a small allowance for runtime helpers) or the deadline
// expires, returning the final count.
func waitGoroutines(base int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// counted yields hs as items labeled "lineN" and counts in *pulled how
// far the pool advanced it. RunTo has stopped running the sequence when
// it returns, so *pulled is safe to read then.
func counted(hs []history.History, pulled *int) iter.Seq[Item] {
	return func(yield func(Item) bool) {
		for i, h := range hs {
			*pulled++
			if !yield(Item{Source: fmt.Sprintf("line%d", i), History: h}) {
				return
			}
		}
	}
}

// TestRunToCancelMidBatch cancels the context partway through a large
// batch and asserts the contract of RunTo: verdicts for already-admitted
// histories still arrive, in input order and without gaps; the input is
// not advanced past the window; RunTo reports the cancellation; and no
// pool goroutine is left behind. Runs under the CI -race job.
func TestRunToCancelMidBatch(t *testing.T) {
	const n, workers = 5000, 4
	hs := corpus(n)
	want := make([]bool, n)
	for i, h := range hs {
		res, err := core.Opaque(h)
		if err != nil {
			t.Fatalf("history %d: %v", i, err)
		}
		want[i] = res.Opaque
	}

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	got, pulled := 0, 0
	err := New(Options{Workers: workers}).RunTo(ctx, counted(hs, &pulled), func(v Verdict) error {
		if v.Index != got {
			t.Fatalf("verdict %d carries index %d: cancellation broke ordering", got, v.Index)
		}
		if v.Source != fmt.Sprintf("line%d", got) {
			t.Fatalf("verdict %d carries source %q", got, v.Source)
		}
		if v.Err != nil {
			t.Fatalf("history %d: %v", got, v.Err)
		}
		if v.Result.Opaque != want[got] {
			t.Fatalf("history %d: pool says opaque=%v, sequential says %v", got, v.Result.Opaque, want[got])
		}
		got++
		if got == 16 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunTo = %v, want context.Canceled", err)
	}
	if got < 16 {
		t.Fatalf("only %d verdicts delivered, want at least the 16 seen pre-cancel", got)
	}
	// Every admitted history is delivered. At the cancelling call at
	// most the window was admitted beyond the 15 delivered before it,
	// plus at most one item already pulled; nothing more is pulled.
	if window := 4 * workers; got > 16+window {
		t.Errorf("%d verdicts delivered after cancelling at 16: more than the %d-item window was admitted", got, window)
	}
	if pulled > got+1 {
		t.Errorf("input advanced to item %d, but only %d were admitted before cancellation", pulled, got)
	}

	if g := waitGoroutines(base); g > base {
		t.Errorf("goroutine leak after cancellation: %d running, started with %d", g, base)
	}
}

// TestRunToCancelBeforeStart: a context cancelled before RunTo starts
// yields zero verdicts, pulls no item, and leaves no goroutine behind.
func TestRunToCancelBeforeStart(t *testing.T) {
	hs := corpus(32)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	got, pulled := 0, 0
	err := New(Options{Workers: 2}).RunTo(ctx, counted(hs, &pulled), func(Verdict) error {
		got++
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunTo = %v, want context.Canceled", err)
	}
	if got != 0 {
		t.Errorf("pre-cancelled pool emitted %d verdicts, want 0", got)
	}
	if pulled != 0 {
		t.Errorf("pre-cancelled pool advanced its input to item %d", pulled)
	}
	if g := waitGoroutines(base); g > base {
		t.Errorf("goroutine leak: %d running, started with %d", g, base)
	}
}

// TestRunToCancelRace hammers concurrent cancellation at random points
// while verdicts stream, for the -race detector's benefit: order holds
// and the input never runs ahead of what was admitted.
func TestRunToCancelRace(t *testing.T) {
	hs := corpus(200)
	for round := 0; round < 8; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func(after int) {
			time.Sleep(time.Duration(after) * time.Millisecond)
			cancel()
		}(round)
		prev, pulled := -1, 0
		New(Options{Workers: 4}).RunTo(ctx, counted(hs, &pulled), func(v Verdict) error {
			if v.Index != prev+1 {
				t.Fatalf("round %d: verdict index %d after %d", round, v.Index, prev)
			}
			prev = v.Index
			return nil
		})
		if pulled > prev+2 {
			t.Errorf("round %d: input advanced to item %d, only %d delivered", round, pulled, prev+1)
		}
		cancel()
	}
}
