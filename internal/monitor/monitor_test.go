package monitor_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"otm/internal/core"
	"otm/internal/gen"
	"otm/internal/history"
	"otm/internal/monitor"
	"otm/internal/stm"
	"otm/internal/stm/gatm"
	"otm/internal/stm/stmtest"
	"otm/internal/stm/tl2"
)

// zombieHistory is the §2 inconsistent-snapshot stream: T1 reads x=0,
// T2 commits x=1 and y=1, T1 reads y=1 — non-opaque at T1's second read
// (event 10): no serialization explains x=0 together with y=1.
func zombieHistory() history.History {
	return history.History{
		history.Inv(1, "x", "read", nil), history.Ret(1, "x", "read", 0),
		history.Inv(2, "x", "write", 1), history.Ret(2, "x", "write", history.OK),
		history.Inv(2, "y", "write", 1), history.Ret(2, "y", "write", history.OK),
		history.TryC(2), history.Commit(2),
		history.Inv(1, "y", "read", nil), history.Ret(1, "y", "read", 1),
	}.MustWellFormed()
}

// TestSyncCatchesViolation: a sync session flags the zombie read at the
// exact event, diagnoses the culpable transaction, and fires
// OnViolation exactly once; the verdict then latches.
func TestSyncCatchesViolation(t *testing.T) {
	var calls atomic.Int32
	s := monitor.New(monitor.Options{
		OnViolation: func(v monitor.Violation) { calls.Add(1) },
	})
	h := zombieHistory()
	var v monitor.Verdict
	for i, ev := range h {
		v = s.Append(ev)
		if i < 9 && v.Status != monitor.StatusOpaque {
			t.Fatalf("event %d: status %v before the violating read", i, v.Status)
		}
	}
	if v.Status != monitor.StatusViolated || v.PrefixLen != 10 {
		t.Fatalf("verdict %+v, want VIOLATED at prefix 10", v)
	}
	viol := s.Violation()
	if viol == nil {
		t.Fatal("no violation recorded")
	}
	if viol.Event.Kind != history.KindRet || viol.Event.Tx != 1 {
		t.Errorf("culpable event %v, want T1's ret", viol.Event)
	}
	if !viol.Diagnosed {
		t.Fatal("violation not diagnosed")
	}
	if got := viol.Diagnosis.Implicated; len(got) != 1 || got[0] != 1 {
		t.Errorf("implicated %v, want [T1] (removing the zombie restores opacity)", got)
	}
	if calls.Load() != 1 {
		t.Errorf("OnViolation fired %d times, want 1", calls.Load())
	}
	// Latched: further events are counted, not checked.
	v = s.Append(history.TryC(1))
	if v.Status != monitor.StatusViolated || v.Events != 11 || v.Checked != 10 {
		t.Errorf("post-violation verdict %+v, want 11 events / 10 checked", v)
	}
	if got := s.Close(); got.Status != monitor.StatusViolated {
		t.Errorf("Close status %v", got.Status)
	}
}

// TestAsyncCatchesViolation: the same stream through an async session;
// Close drains and reports the violation.
func TestAsyncCatchesViolation(t *testing.T) {
	var calls atomic.Int32
	s := monitor.New(monitor.Options{
		Mode:        monitor.Async,
		OnViolation: func(monitor.Violation) { calls.Add(1) },
	})
	for _, ev := range zombieHistory() {
		s.Append(ev)
	}
	v := s.Close()
	if v.Status != monitor.StatusViolated || v.PrefixLen != 10 {
		t.Fatalf("final verdict %+v, want VIOLATED at prefix 10", v)
	}
	if calls.Load() != 1 {
		t.Errorf("OnViolation fired %d times, want 1", calls.Load())
	}
	if s.Violation() == nil || !s.Violation().Diagnosed {
		t.Error("missing or undiagnosed violation after Close")
	}
	// Appends after Close are ignored entirely.
	after := s.Append(history.TryC(1))
	if after.Events != v.Events {
		t.Errorf("post-Close append counted: %d events", after.Events)
	}
	if again := s.Close(); again.Status != monitor.StatusViolated {
		t.Errorf("second Close: %+v", again)
	}
}

// TestSessionPrefixDifferential is the satellite differential: every
// prefix of a 1k generated corpus through monitor sessions, cross-
// checked against fresh one-shot core.Check calls. The session must be
// opaque exactly while every prefix is opaque and must flag the
// violation at exactly the shortest non-opaque prefix.
func TestSessionPrefixDifferential(t *testing.T) {
	n := 150
	if !testing.Short() {
		n = 1000
	}
	hs := gen.Corpus(gen.Config{Txs: 5, Objs: 3, MaxOps: 3, PStaleRead: 0.3, PLeaveLive: 0.25}, n, 11)
	violations := 0
	for seed, h := range hs {
		// Brute-force oracle: fresh Check on every prefix length.
		want := -1
		for i := 1; i <= len(h); i++ {
			r, err := core.Check(h[:i], core.Config{})
			if err != nil {
				t.Fatalf("seed %d prefix %d: %v", seed, i, err)
			}
			if !r.Opaque {
				want = i
				break
			}
		}
		s := monitor.New(monitor.Options{})
		for i, ev := range h {
			v := s.Append(ev)
			wantStatus := monitor.StatusOpaque
			if want != -1 && i+1 >= want {
				wantStatus = monitor.StatusViolated
			}
			if v.Status != wantStatus {
				t.Fatalf("seed %d after event %d: session %v, one-shot scan says %v (violation at %d):\n%s",
					seed, i, v.Status, wantStatus, want, h.Format())
			}
			if v.Status == monitor.StatusViolated && v.PrefixLen != want {
				t.Fatalf("seed %d: session flags prefix %d, one-shot scan says %d", seed, v.PrefixLen, want)
			}
		}
		if want != -1 {
			violations++
		}
	}
	if min := n / 40; violations < min {
		t.Errorf("corpus produced only %d violating histories, want ≥%d for a meaningful differential", violations, min)
	}
}

// TestAttachOpaqueEngineConcurrent attaches monitors to a real engine
// driven by concurrent goroutines — the recorder-tap race test. tl2 is
// opaque, so every mode must certify the run; with Block there are no
// drops, so every event the recorder emitted must also be checked. The
// emitted events are counted below the recorder, which keeps none of
// them while tapped.
func TestAttachOpaqueEngineConcurrent(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts monitor.Options
	}{
		{"sync", monitor.Options{}},
		{"async-block", monitor.Options{Mode: monitor.Async}},
		{"async-drop", monitor.Options{Mode: monitor.Async, DropPolicy: monitor.Drop, Buffer: 4096}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const goroutines, txPerG, k = 6, 30, 4
			engine := stmtest.NewCounting(tl2.New(k))
			rec := stm.NewRecorder(engine)
			s := monitor.Attach(rec, tc.opts)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < txPerG; i++ {
						err := stm.Atomically(rec, func(tx stm.Tx) error {
							if _, err := tx.Read((g + i) % k); err != nil {
								return err
							}
							return tx.Write(g%k, g*1000+i)
						})
						if err != nil {
							t.Errorf("g%d tx %d: %v", g, i, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			rec.Tap(nil)
			v := s.Close()
			switch v.Status {
			case monitor.StatusOpaque:
				if v.Checked != v.Events || v.Dropped != 0 {
					t.Errorf("opaque verdict with gaps: %+v", v)
				}
				if got := engine.Events(); v.Events != got {
					t.Errorf("monitor saw %d events, the recorder emitted %d", v.Events, got)
				}
				if got := len(rec.History()); got != 0 {
					t.Errorf("the tapped recorder kept %d events", got)
				}
			case monitor.StatusLossy:
				if tc.opts.DropPolicy != monitor.Drop {
					t.Errorf("lossy without Drop policy: %+v", v)
				}
				if v.Dropped == 0 {
					t.Errorf("lossy verdict with zero drops: %+v", v)
				}
			default:
				t.Errorf("tl2 run flagged: %+v (violation: %+v)", v, s.Violation())
			}
		})
	}
}

// TestAttachCatchesNonOpaqueEngine replays the §2 zombie schedule on
// gatm — the global-atomicity-only engine — under a live sync monitor:
// the violation must be flagged the moment the zombie read returns,
// while the reader transaction is still running.
func TestAttachCatchesNonOpaqueEngine(t *testing.T) {
	rec := stm.NewRecorder(gatm.New(2))
	var caught atomic.Int32
	s := monitor.Attach(rec, monitor.Options{
		OnViolation: func(v monitor.Violation) { caught.Add(1) },
	})

	t1 := rec.Begin()
	if _, err := t1.Read(0); err != nil {
		t.Fatal(err)
	}
	t2 := rec.Begin()
	if err := t2.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if caught.Load() != 0 {
		t.Fatal("violation before the zombie read")
	}
	v, err := t1.Read(1) // the zombie read: gatm serves the new value
	if err != nil {
		t.Fatalf("gatm unexpectedly aborted the reader: %v", err)
	}
	if v != 1 {
		t.Fatalf("zombie read returned %d, want 1", v)
	}
	if caught.Load() != 1 {
		t.Fatalf("monitor missed the zombie read (caught=%d)", caught.Load())
	}
	verdict := s.Close()
	if verdict.Status != monitor.StatusViolated {
		t.Fatalf("verdict %+v", verdict)
	}
	viol := s.Violation()
	if !viol.Diagnosed {
		t.Fatal("violation not diagnosed")
	}
	if got := viol.Diagnosis.Implicated; len(got) != 1 || got[0] != 1 {
		t.Errorf("implicated %v, want [T1]", got)
	}
	t1.Abort()
}

// TestAsyncDropLatchesLossy: a 1-slot buffer with the Drop policy under
// a fast producer must drop (the drain checks each event under a lock
// while the producer appends unboundedly) and the session must say so
// rather than certify a gapped history.
func TestAsyncDropLatchesLossy(t *testing.T) {
	s := monitor.New(monitor.Options{Mode: monitor.Async, Buffer: 1, DropPolicy: monitor.Drop})
	b := history.NewBuilder()
	for i := 1; i <= 400; i++ {
		tx := history.TxID(i)
		b.Write(tx, "x", i).Commits(tx)
	}
	h := b.MustHistory()
	for _, ev := range h {
		s.Append(ev)
	}
	v := s.Close()
	if v.Dropped == 0 {
		t.Skip("drain outpaced the producer; drop path not exercised on this machine")
	}
	if v.Status != monitor.StatusLossy {
		t.Fatalf("status %v with %d drops, want lossy", v.Status, v.Dropped)
	}
	if v.Events != len(h) {
		t.Errorf("events %d, want %d (drops still counted)", v.Events, len(h))
	}
	if v.Checked >= v.Events {
		t.Errorf("checked %d of %d events despite drops", v.Checked, v.Events)
	}
}

// TestErrorStatus: an ill-formed event stream turns the session into
// StatusError with the latched error, not a panic or a silent pass.
func TestErrorStatus(t *testing.T) {
	s := monitor.New(monitor.Options{})
	s.Append(history.Inv(1, "x", "read", nil))
	v := s.Append(history.Inv(1, "y", "read", nil)) // second inv while pending
	if v.Status != monitor.StatusError || v.Err == nil {
		t.Fatalf("verdict %+v, want StatusError", v)
	}
	// Latched.
	v = s.Append(history.Ret(1, "x", "read", 0))
	if v.Status != monitor.StatusError || v.Events != 3 {
		t.Errorf("post-error verdict %+v", v)
	}
}

// TestSyncCloseIsFinal: a Sync session's Close verdict cannot change —
// events offered afterwards (e.g. by a still-recording engine whose tap
// was not detached) are ignored, and OnViolation can no longer fire.
func TestSyncCloseIsFinal(t *testing.T) {
	var calls atomic.Int32
	s := monitor.New(monitor.Options{OnViolation: func(monitor.Violation) { calls.Add(1) }})
	s.Append(history.Inv(1, "x", "write", 1))
	s.Append(history.Ret(1, "x", "write", history.OK))
	v := s.Close()
	if v.Status != monitor.StatusOpaque || v.Events != 2 {
		t.Fatalf("close verdict %+v", v)
	}
	// This read would be a violation (nobody committed a write of 7) —
	// but the session is closed, so it must not flip the verdict.
	after := s.Append(history.Inv(2, "x", "read", nil))
	after = s.Append(history.Ret(2, "x", "read", 7))
	if after.Status != monitor.StatusOpaque || after.Events != 2 || after.Checked != 2 {
		t.Fatalf("post-Close verdict changed: %+v", after)
	}
	if calls.Load() != 0 {
		t.Errorf("OnViolation fired %d times after Close", calls.Load())
	}
}

// TestNamesAndHistorySnapshot covers the presentation helpers the CLI
// table leans on, and the history snapshot accessor.
func TestNamesAndHistorySnapshot(t *testing.T) {
	for want, got := range map[string]string{
		"sync":     monitor.Sync.String(),
		"async":    monitor.Async.String(),
		"opaque":   monitor.StatusOpaque.String(),
		"VIOLATED": monitor.StatusViolated.String(),
		"lossy":    monitor.StatusLossy.String(),
		"error":    monitor.StatusError.String(),
		"unknown":  monitor.Status(42).String(),
	} {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	s := monitor.New(monitor.Options{})
	s.Append(history.Inv(1, "x", "read", nil))
	s.Append(history.Ret(1, "x", "read", 0))
	h := s.History()
	if len(h) != 2 || h.WellFormed() != nil {
		t.Errorf("History() = %v", h)
	}
	// The snapshot is independent of the session's ongoing appends.
	s.Append(history.TryC(1))
	if len(h) != 2 {
		t.Errorf("snapshot grew with the session: %v", h)
	}
}

// TestStatusWorse pins the order a session's status rises along, and
// the fleet aggregates by: error ≻ violated ≻ lossy ≻ opaque, strict, so
// no status is worse than itself.
func TestStatusWorse(t *testing.T) {
	order := []monitor.Status{monitor.StatusOpaque, monitor.StatusLossy, monitor.StatusViolated, monitor.StatusError}
	for i, a := range order {
		for j, b := range order {
			if got := a.Worse(b); got != (i > j) {
				t.Errorf("%v.Worse(%v) = %v, want %v", a, b, got, i > j)
			}
		}
	}
}

// TestVerdictCountersOpaqueRun: on a clean run the bookkeeping adds up —
// every event checked, fast path carrying repeat work, no drops.
func TestVerdictCountersOpaqueRun(t *testing.T) {
	b := history.NewBuilder()
	for i := 1; i <= 20; i++ {
		tx := history.TxID(i)
		b.Write(tx, "x", i).Read(tx, "x", i).Commits(tx)
	}
	h := b.MustHistory()
	s := monitor.New(monitor.Options{})
	for _, ev := range h {
		s.Append(ev)
	}
	v := s.Close()
	if v.Status != monitor.StatusOpaque {
		t.Fatalf("verdict %+v", v)
	}
	if v.Events != len(h) || v.Checked != len(h) || v.Dropped != 0 {
		t.Errorf("counters %+v, want %d/%d/0", v, len(h), len(h))
	}
	if v.FastPath <= v.Searches {
		t.Errorf("fast path %d vs searches %d: revalidation should dominate", v.FastPath, v.Searches)
	}
	if v.PrefixLen != -1 {
		t.Errorf("PrefixLen %d on an opaque run", v.PrefixLen)
	}
}
