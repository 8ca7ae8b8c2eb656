package core_test

import (
	"errors"
	"fmt"
	"testing"

	"otm/internal/core"
	"otm/internal/gen"
	"otm/internal/history"
	"otm/internal/spec"
)

// appendTruncating feeds h into inc one event at a time, attempting a
// truncation after every single append — the most adversarial
// checkpointing schedule possible: every quiescent point collapses the
// whole live suffix. Returns the prefix length the checker flagged, or
// -1, plus the number of checkpoints taken.
func appendTruncating(t *testing.T, inc *core.Incremental, h history.History) (int, int) {
	t.Helper()
	flagged := -1
	for i, ev := range h {
		res, err := inc.Append(ev)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !res.Opaque && flagged == -1 {
			flagged = res.PrefixLen
		}
		if _, err := inc.TryTruncate(0); err != nil {
			t.Fatalf("event %d: TryTruncate: %v", i, err)
		}
	}
	return flagged, inc.Result().Checkpoints
}

// TestTruncatedMatchesCheckEveryPrefix is the tentpole differential:
// with truncation attempted after every event, the running verdict must
// still agree with fresh one-shot Check calls on every prefix of the
// full, untruncated history — the checkpointed session may only ever
// hold a suffix, yet must judge exactly the same language.
func TestTruncatedMatchesCheckEveryPrefix(t *testing.T) {
	n := 60
	if !testing.Short() {
		n = 250
	}
	truncated := 0
	for _, cfg := range []gen.Config{
		{Txs: 5, Objs: 3, MaxOps: 3, PStaleRead: 0.3},
		{Txs: 6, Objs: 2, MaxOps: 4, PStaleRead: 0.4, PLeaveLive: 0.5},
		{Txs: 4, Objs: 2, MaxOps: 3, PStaleRead: 0.2, PCommit: 0.4},
	} {
		for seed, h := range gen.Corpus(cfg, n, 7) {
			want := firstBadPrefix(t, h)
			inc := core.NewIncremental(core.Config{})
			flagged, cps := appendTruncating(t, inc, h)
			truncated += cps
			if flagged != want {
				t.Fatalf("cfg=%+v seed=%d: truncating incremental flags prefix %d, one-shot scan says %d (checkpoints=%d):\n%s",
					cfg, seed, flagged, want, cps, h.Format())
			}
		}
	}
	if truncated == 0 {
		t.Fatal("no corpus history ever truncated — the differential exercised nothing")
	}
}

// TestTruncatedMatchesReferenceEngine pins the truncating checker
// against the independent DisableMemo reference engine, checked fresh on
// every response-boundary prefix of the untruncated history.
func TestTruncatedMatchesReferenceEngine(t *testing.T) {
	n := 30
	if !testing.Short() {
		n = 100
	}
	for seed, h := range gen.Corpus(gen.Config{Txs: 5, Objs: 2, MaxOps: 3, PStaleRead: 0.35, PLeaveLive: 0.3}, n, 19) {
		inc := core.NewIncremental(core.Config{})
		flagged, _ := appendTruncating(t, inc, h)
		want := -1
		for i := 1; i <= len(h); i++ {
			if i < len(h) && h[i-1].Kind.Invocation() {
				continue
			}
			r, err := core.Check(h[:i], core.Config{DisableMemo: true})
			if err != nil {
				t.Fatalf("seed=%d: reference Check of prefix %d: %v", seed, i, err)
			}
			if !r.Opaque {
				want = i
				break
			}
		}
		if flagged != want {
			t.Fatalf("seed=%d: truncating incremental flags %d, reference engine says %d:\n%s",
				seed, flagged, want, h.Format())
		}
	}
}

// TestTruncateCollapsesState: on a long well-behaved workload with
// per-transaction quiescence, aggressive truncation keeps the live
// suffix at a handful of events while the verdict stays opaque and the
// fast path keeps carrying the checks.
func TestTruncateCollapsesState(t *testing.T) {
	inc := core.NewIncremental(core.Config{})
	maxLive := 0
	for i := 0; i < 200; i++ {
		tx := history.TxID(i + 1)
		evs := history.History{
			history.Inv(tx, "x", "write", i), history.Ret(tx, "x", "write", history.OK),
			history.Inv(tx, "x", "read", nil), history.Ret(tx, "x", "read", i),
			history.TryC(tx), history.Commit(tx),
		}
		for _, ev := range evs {
			if _, err := inc.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := inc.TryTruncate(0); err != nil {
			t.Fatal(err)
		}
		if l := inc.LiveLen(); l > maxLive {
			maxLive = l
		}
	}
	res := inc.Result()
	if !res.Opaque {
		t.Fatalf("flagged at %d", res.PrefixLen)
	}
	if res.Events != 1200 {
		t.Fatalf("Events = %d, want 1200", res.Events)
	}
	if res.Checkpoints != 200 {
		t.Errorf("Checkpoints = %d, want 200 (every transaction boundary is quiescent)", res.Checkpoints)
	}
	if res.TruncatedEvents != 1200 {
		t.Errorf("TruncatedEvents = %d, want 1200", res.TruncatedEvents)
	}
	if res.Roots != 1 {
		t.Errorf("Roots = %d, want 1 (deterministic sequential workload)", res.Roots)
	}
	if maxLive > 6 {
		t.Errorf("live suffix reached %d events; truncation is not bounding state", maxLive)
	}
	if inc.LiveLen() != 0 {
		t.Errorf("live suffix %d events after final truncation, want 0", inc.LiveLen())
	}
}

// TestTruncateMultiRootCheckpoint: a stable prefix whose serializations
// reach several distinct final states must carry all of them, and a
// suffix is opaque iff it extends at least one.
func TestTruncateMultiRootCheckpoint(t *testing.T) {
	// T1 and T2 write x concurrently (overlapping spans: no real-time
	// constraint either way), so Reach = {x=1, x=2}.
	prefix := history.History{
		history.Inv(1, "x", "write", 1), history.Inv(2, "x", "write", 2),
		history.Ret(1, "x", "write", history.OK), history.Ret(2, "x", "write", history.OK),
		history.TryC(1), history.Commit(1), history.TryC(2), history.Commit(2),
	}.MustWellFormed()

	for _, tc := range []struct {
		name   string
		read   int
		opaque bool
	}{
		{"first writer's value", 1, true},
		{"second writer's value", 2, true},
		{"unwritten value", 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inc := core.NewIncremental(core.Config{})
			if _, err := inc.Append(prefix...); err != nil {
				t.Fatal(err)
			}
			ok, err := inc.TryTruncate(0)
			if err != nil || !ok {
				t.Fatalf("TryTruncate = %v, %v; want truncation", ok, err)
			}
			if got := inc.Result().Roots; got != 2 {
				t.Fatalf("Roots = %d, want 2 (both commit orders reachable)", got)
			}
			suffix := history.History{
				history.Inv(3, "x", "read", nil), history.Ret(3, "x", "read", tc.read),
				history.TryC(3), history.Commit(3),
			}
			res, err := inc.Append(suffix...)
			if err != nil {
				t.Fatal(err)
			}
			if res.Opaque != tc.opaque {
				t.Errorf("read x=%d: opaque=%v, want %v", tc.read, res.Opaque, tc.opaque)
			}
			// The untruncated one-shot verdict on the full history agrees.
			full := append(prefix[:len(prefix):len(prefix)], suffix...)
			r, err := core.Check(full, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Opaque != tc.opaque {
				t.Errorf("one-shot Check disagrees: %v, want %v", r.Opaque, tc.opaque)
			}
		})
	}
}

// TestTruncateConfiguredObjects: a checkpoint must not lose the
// configured initial state of objects the collapsed prefix never
// touched.
func TestTruncateConfiguredObjects(t *testing.T) {
	cfg := core.Config{Objects: spec.Registers(7, "y")}
	for _, tc := range []struct {
		name   string
		read   int
		opaque bool
	}{{"configured initial", 7, true}, {"default initial", 0, false}} {
		t.Run(tc.name, func(t *testing.T) {
			inc := core.NewIncremental(cfg)
			prefix := history.History{
				history.Inv(1, "x", "write", 1), history.Ret(1, "x", "write", history.OK),
				history.TryC(1), history.Commit(1),
			}
			if _, err := inc.Append(prefix...); err != nil {
				t.Fatal(err)
			}
			if ok, err := inc.TryTruncate(0); err != nil || !ok {
				t.Fatalf("TryTruncate = %v, %v; want truncation", ok, err)
			}
			res, err := inc.Append(
				history.Inv(2, "y", "read", nil), history.Ret(2, "y", "read", tc.read))
			if err != nil {
				t.Fatal(err)
			}
			if res.Opaque != tc.opaque {
				t.Errorf("read y=%d after truncation: opaque=%v, want %v", tc.read, res.Opaque, tc.opaque)
			}
		})
	}
}

// TestTruncateDeclines: every legitimate reason not to truncate returns
// (false, nil) and leaves the checker fully functional.
func TestTruncateDeclines(t *testing.T) {
	t.Run("unstable", func(t *testing.T) {
		inc := core.NewIncremental(core.Config{})
		if _, err := inc.Append(
			history.Inv(1, "x", "write", 1), history.Ret(1, "x", "write", history.OK)); err != nil {
			t.Fatal(err)
		}
		if inc.Stable() {
			t.Fatal("live transaction but Stable() == true")
		}
		if ok, err := inc.TryTruncate(0); ok || err != nil {
			t.Fatalf("TryTruncate on unstable suffix = %v, %v; want false, nil", ok, err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		inc := core.NewIncremental(core.Config{})
		if ok, err := inc.TryTruncate(0); ok || err != nil {
			t.Fatalf("TryTruncate on empty history = %v, %v; want false, nil", ok, err)
		}
	})
	t.Run("budget", func(t *testing.T) {
		inc := core.NewIncremental(core.Config{})
		if _, err := inc.Append(
			history.Inv(1, "x", "write", 1), history.Ret(1, "x", "write", history.OK),
			history.TryC(1), history.Commit(1)); err != nil {
			t.Fatal(err)
		}
		if ok, err := inc.TryTruncate(1); ok || err != nil {
			t.Fatalf("TryTruncate under a 1-node budget = %v, %v; want false, nil", ok, err)
		}
		// Still checking correctly afterwards.
		res, err := inc.Append(history.Inv(2, "x", "read", nil), history.Ret(2, "x", "read", 1))
		if err != nil || !res.Opaque {
			t.Fatalf("append after declined truncation: res=%+v err=%v", res, err)
		}
	})
	t.Run("reference path", func(t *testing.T) {
		inc := core.NewIncremental(core.Config{DisableMemo: true})
		if _, err := inc.Append(
			history.Inv(1, "x", "write", 1), history.Ret(1, "x", "write", history.OK),
			history.TryC(1), history.Commit(1)); err != nil {
			t.Fatal(err)
		}
		if ok, err := inc.TryTruncate(0); ok || err != nil {
			t.Fatalf("TryTruncate on the reference path = %v, %v; want false, nil", ok, err)
		}
	})
	t.Run("violated", func(t *testing.T) {
		inc := core.NewIncremental(core.Config{})
		res, err := inc.Append(history.Inv(1, "x", "read", nil), history.Ret(1, "x", "read", 9))
		if err != nil {
			t.Fatal(err)
		}
		if res.Opaque {
			t.Fatal("expected a violation")
		}
		if ok, err := inc.TryTruncate(0); ok || err != nil {
			t.Fatalf("TryTruncate after a violation = %v, %v; want false, nil", ok, err)
		}
		if got := len(inc.History()); got != 2 {
			t.Errorf("violating suffix length %d, want 2 (retained for diagnosis)", got)
		}
	})
}

// TestIncrementalDiagnose: the checkpoint-aware diagnosis names the
// culpable suffix transactions, judged from the checkpoint roots.
func TestIncrementalDiagnose(t *testing.T) {
	inc := core.NewIncremental(core.Config{})
	if _, err := inc.Append(
		history.Inv(1, "x", "write", 5), history.Ret(1, "x", "write", history.OK),
		history.TryC(1), history.Commit(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Diagnose(); err == nil {
		t.Fatal("Diagnose with no violation should error")
	}
	if ok, err := inc.TryTruncate(0); err != nil || !ok {
		t.Fatalf("TryTruncate = %v, %v; want truncation", ok, err)
	}
	// T2 reads the checkpointed value (fine), T3 reads garbage.
	res, err := inc.Append(
		history.Inv(2, "x", "read", nil), history.Ret(2, "x", "read", 5),
		history.Inv(3, "x", "read", nil), history.Ret(3, "x", "read", 9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Opaque {
		t.Fatal("expected a violation")
	}
	d, err := inc.Diagnose()
	if err != nil {
		t.Fatal(err)
	}
	if d.PrefixLen != res.PrefixLen {
		t.Errorf("diagnosis PrefixLen %d, want %d", d.PrefixLen, res.PrefixLen)
	}
	if len(d.Implicated) != 1 || d.Implicated[0] != 3 {
		t.Errorf("Implicated = %v, want [T3]", d.Implicated)
	}
	if d.Culprit.Tx != 3 {
		t.Errorf("Culprit = %v, want T3's read", d.Culprit)
	}
}

// TestIncrementalDiagnoseIgnoresLaterEvents: events appended after the
// violation latched change nothing in the diagnosis. It names the event
// and transactions the one-shot Diagnose of the whole history names,
// before and after more events arrive, and its re-checks run under the
// checker's own Config: on the reduced engine, the unreduced one and
// the reference.
func TestIncrementalDiagnoseIgnoresLaterEvents(t *testing.T) {
	stable := history.MustParse("w9(z,1) tryC9 C9")
	// Three interchangeable writers, then a reader that misses them all;
	// the violation is T4's read response.
	h := history.MustParse("w1(x,1) w2(x,1) w3(x,1) tryC1 tryC2 tryC3 C1 C2 C3 r4(x)->0 tryC4 C4")
	later := history.MustParse("w5(y,1) tryC5 C5")
	full := append(append(stable.Clone(), h...), later...)
	want, err := core.Diagnose(full, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want.PrefixLen != len(stable)+14 || len(want.Implicated) != 1 || want.Implicated[0] != 4 {
		t.Fatalf("one-shot diagnosis %+v, want the violation at T4's read and T4 implicated", want)
	}

	nodes := map[string]int{}
	for name, cfg := range map[string]core.Config{
		"reduced":   {},
		"unreduced": {DisableSym: true},
		"reference": {DisableMemo: true},
	} {
		t.Run(name, func(t *testing.T) {
			inc := core.NewIncremental(cfg)
			if _, err := inc.Append(stable...); err != nil {
				t.Fatal(err)
			}
			if _, err := inc.TryTruncate(0); err != nil {
				t.Fatal(err)
			}
			if _, err := inc.Append(h...); err != nil {
				t.Fatal(err)
			}
			atViolation, err := inc.Diagnose()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inc.Append(later...); err != nil {
				t.Fatal(err)
			}
			afterMore, err := inc.Diagnose()
			if err != nil {
				t.Fatal(err)
			}

			// The re-checks the diagnosis owes: the live prefix that ends
			// at the violation, without each of its transactions in turn,
			// from the checkpoint root when there is one.
			prefix := history.History(nil)
			if inc.Result().Checkpoints == 0 {
				prefix = append(prefix, stable...)
			}
			prefix = append(prefix, h[:14]...)
			recheck := cfg
			if roots := inc.Roots(); roots != nil {
				recheck.Objects = roots[0]
			}
			wantNodes := 0
			for _, tx := range prefix.Transactions() {
				r, err := core.Check(core.RemoveTx(prefix, tx), recheck)
				if err != nil {
					t.Fatal(err)
				}
				wantNodes += r.Nodes
			}

			for _, d := range []core.Diagnosis{atViolation, afterMore} {
				if d.PrefixLen != want.PrefixLen || d.Culprit != want.Culprit {
					t.Errorf("violation at %d (%s), want %d (%s)", d.PrefixLen, d.Culprit, want.PrefixLen, want.Culprit)
				}
				if fmt.Sprint(d.Implicated) != fmt.Sprint(want.Implicated) {
					t.Errorf("Implicated = %v, want %v", d.Implicated, want.Implicated)
				}
				if d.Nodes != wantNodes {
					t.Errorf("Nodes = %d, want %d from the re-checks under %+v", d.Nodes, wantNodes, cfg)
				}
			}
			nodes[name] = atViolation.Nodes
		})
	}
	if nodes["reduced"] == nodes["unreduced"] {
		t.Errorf("the symmetry reduction saved no node (%d): the history does not tell the engines apart", nodes["reduced"])
	}
}

// TestTruncateComposition: a second truncation enumerates from every
// root of the first checkpoint; when the new stable suffix overwrites
// the divergent state, the per-root Reach sets collapse back into one
// deduplicated root.
func TestTruncateComposition(t *testing.T) {
	inc := core.NewIncremental(core.Config{})
	// Two concurrent writers: checkpoint with Reach = {x=1, x=2}.
	if _, err := inc.Append(
		history.Inv(1, "x", "write", 1), history.Inv(2, "x", "write", 2),
		history.Ret(1, "x", "write", history.OK), history.Ret(2, "x", "write", history.OK),
		history.TryC(1), history.Commit(1), history.TryC(2), history.Commit(2)); err != nil {
		t.Fatal(err)
	}
	if ok, err := inc.TryTruncate(0); err != nil || !ok {
		t.Fatalf("first TryTruncate = %v, %v", ok, err)
	}
	if got := len(inc.Roots()); got != 2 {
		t.Fatalf("Roots() has %d entries, want 2", got)
	}
	// T3 overwrites x: from either root the only final state is x=9.
	if _, err := inc.Append(
		history.Inv(3, "x", "write", 9), history.Ret(3, "x", "write", history.OK),
		history.TryC(3), history.Commit(3)); err != nil {
		t.Fatal(err)
	}
	if ok, err := inc.TryTruncate(0); err != nil || !ok {
		t.Fatalf("second TryTruncate = %v, %v", ok, err)
	}
	res := inc.Result()
	if res.Checkpoints != 2 || res.Roots != 1 {
		t.Fatalf("after composition: Checkpoints=%d Roots=%d, want 2 and 1", res.Checkpoints, res.Roots)
	}
	r, err := inc.Append(history.Inv(4, "x", "read", nil), history.Ret(4, "x", "read", 9))
	if err != nil || !r.Opaque {
		t.Fatalf("read of the converged state: res=%+v err=%v", r, err)
	}
}

// TestTruncateRootCapDeclines: a stable prefix whose Reach set exceeds
// maxCheckpointRoots (64) is declined — every root multiplies later
// check cost, so a too-diverse checkpoint is worse than none.
func TestTruncateRootCapDeclines(t *testing.T) {
	inc := core.NewIncremental(core.Config{})
	// Seven objects, each with two concurrent writers racing distinct
	// values, all fourteen transactions overlapping: Reach is the full
	// product, 2^7 = 128 > 64 final states.
	var open, rest history.History
	for o := range 7 {
		obj := history.ObjID(fmt.Sprintf("x%d", o))
		a, b := history.TxID(2*o+1), history.TxID(2*o+2)
		open = append(open, history.Inv(a, obj, "write", 1), history.Inv(b, obj, "write", 2))
		rest = append(rest,
			history.Ret(a, obj, "write", history.OK), history.Ret(b, obj, "write", history.OK))
	}
	for tx := history.TxID(1); tx <= 14; tx++ {
		rest = append(rest, history.TryC(tx), history.Commit(tx))
	}
	if _, err := inc.Append(append(open, rest...)...); err != nil {
		t.Fatal(err)
	}
	if !inc.Stable() {
		t.Fatal("prefix should be stable")
	}
	if ok, err := inc.TryTruncate(1 << 20); ok || err != nil {
		t.Fatalf("TryTruncate over a 128-state Reach = %v, %v; want false, nil (root cap)", ok, err)
	}
	if inc.Result().Checkpoints != 0 || inc.LiveLen() == 0 {
		t.Error("declined truncation must leave the history intact")
	}
}

// TestReferencePathBudgetError: an exhausted node budget on the
// DisableMemo reference path latches like any checking error.
func TestReferencePathBudgetError(t *testing.T) {
	inc := core.NewIncremental(core.Config{DisableMemo: true, MaxNodes: 1})
	var err error
	evs := history.History{
		history.Inv(1, "x", "write", 1), history.Inv(2, "x", "write", 2),
		history.Ret(1, "x", "write", history.OK), history.Ret(2, "x", "write", history.OK),
		history.TryC(1), history.Commit(1), history.TryC(2), history.Commit(2),
	}
	for _, ev := range evs {
		if _, err = inc.Append(ev); err != nil {
			break
		}
	}
	if !errors.Is(err, core.ErrSearchLimit) {
		t.Fatalf("err = %v, want ErrSearchLimit", err)
	}
	if inc.Err() == nil {
		t.Fatal("budget error did not latch")
	}
}
