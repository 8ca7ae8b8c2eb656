package monitor_test

import (
	"testing"

	"otm/internal/core"
	"otm/internal/gen"
	"otm/internal/history"
	"otm/internal/monitor"
)

// TestAutoTruncationBoundsState: with truncation armed, a long
// well-behaved sequential run stays opaque while the session holds only
// a bounded live suffix — the checkpoint counters account for every
// event.
func TestAutoTruncationBoundsState(t *testing.T) {
	b := history.NewBuilder()
	for i := 1; i <= 300; i++ {
		tx := history.TxID(i)
		b.Write(tx, "x", i).Read(tx, "x", i).Commits(tx)
	}
	h := b.MustHistory()
	s := monitor.New(monitor.Options{TruncateAfterEvents: 12})
	maxLive := 0
	for _, ev := range h {
		if v := s.Append(ev); v.LiveEvents > maxLive {
			maxLive = v.LiveEvents
		}
	}
	v := s.Close()
	if v.Status != monitor.StatusOpaque {
		t.Fatalf("verdict %+v", v)
	}
	if v.Checkpoints == 0 {
		t.Fatal("no checkpoints on a run far past the truncation threshold")
	}
	if v.TruncatedEvents+v.LiveEvents != v.Checked {
		t.Errorf("counters do not add up: truncated %d + live %d != checked %d",
			v.TruncatedEvents, v.LiveEvents, v.Checked)
	}
	// The threshold is checked per event and every transaction boundary
	// is quiescent here, so the live suffix never grows far past it.
	if maxLive > 18 {
		t.Errorf("live suffix reached %d events with TruncateAfterEvents=12", maxLive)
	}
	if got := len(s.History()); got != v.LiveEvents {
		t.Errorf("History() holds %d events, verdict says %d live", got, v.LiveEvents)
	}
}

// TestResidentDropsAtCheckpoint: the residency gauge counts what the
// session's tables hold now, so it falls at every checkpoint and stays
// bounded over a long run, while TableStates, counted since the session
// began, keeps growing.
func TestResidentDropsAtCheckpoint(t *testing.T) {
	b := history.NewBuilder()
	for i := 1; i <= 300; i++ {
		tx := history.TxID(i)
		b.Write(tx, "x", i).Read(tx, "x", i).Commits(tx)
	}
	s := monitor.New(monitor.Options{TruncateAfterEvents: 12})
	prev := s.Stats()
	maxResident, drops := 0, 0
	for _, ev := range b.MustHistory() {
		s.Append(ev)
		st := s.Stats()
		if st.Checkpoints > prev.Checkpoints {
			if st.TableResident >= prev.TableResident {
				t.Fatalf("checkpoint %d: resident entries %d → %d, want a drop", st.Checkpoints, prev.TableResident, st.TableResident)
			}
			drops++
		}
		maxResident = max(maxResident, st.TableResident)
		prev = st
	}
	s.Close()
	if drops == 0 {
		t.Fatal("no checkpoint on a run far past the truncation threshold")
	}
	if prev.TableStates < 100 {
		t.Errorf("TableStates %d after 300 transactions of fresh values, want it counting since the session began", prev.TableStates)
	}
	if maxResident > 40 {
		t.Errorf("resident entries reached %d with TruncateAfterEvents=12 (TableStates %d): not bounded by the live suffix", maxResident, prev.TableStates)
	}
}

// TestTruncatedSessionCatchesViolation: a violation after several
// checkpoints is flagged at the correct global prefix length, with the
// live suffix as evidence and a diagnosis naming the culprit.
func TestTruncatedSessionCatchesViolation(t *testing.T) {
	b := history.NewBuilder()
	for i := 1; i <= 50; i++ {
		tx := history.TxID(i)
		b.Write(tx, "x", i).Commits(tx)
	}
	h := b.MustHistory()
	s := monitor.New(monitor.Options{TruncateAfterEvents: 8})
	for _, ev := range h {
		s.Append(ev)
	}
	if v := s.Verdict(); v.Checkpoints == 0 {
		t.Fatalf("prelude produced no checkpoints: %+v", v)
	}
	// T100 reads a value no serialization can produce.
	bad := history.History{
		history.Inv(100, "x", "read", nil), history.Ret(100, "x", "read", 999),
	}
	for _, ev := range bad {
		s.Append(ev)
	}
	v := s.Close()
	if v.Status != monitor.StatusViolated {
		t.Fatalf("verdict %+v, want violated", v)
	}
	if want := len(h) + len(bad); v.PrefixLen != want {
		t.Errorf("PrefixLen = %d, want the global position %d", v.PrefixLen, want)
	}
	viol := s.Violation()
	if viol == nil {
		t.Fatal("no violation recorded")
	}
	if viol.Event.Tx != 100 {
		t.Errorf("violating event %v, want T100's read", viol.Event)
	}
	if len(viol.Prefix) == 0 || len(viol.Prefix) >= len(h) {
		t.Errorf("violation snapshot holds %d events, want the live suffix only", len(viol.Prefix))
	}
	if !viol.Diagnosed {
		t.Fatal("violation not diagnosed")
	}
	if len(viol.Diagnosis.Implicated) != 1 || viol.Diagnosis.Implicated[0] != 100 {
		t.Errorf("Implicated = %v, want [T100]", viol.Diagnosis.Implicated)
	}
}

// TestTruncatingSessionDifferential: the truncating session agrees with
// fresh one-shot Check calls on every prefix of every corpus history —
// same differential as TestSessionPrefixDifferential, with aggressive
// truncation thresholds forcing checkpoints mid-history.
func TestTruncatingSessionDifferential(t *testing.T) {
	n := 100
	if !testing.Short() {
		n = 400
	}
	hs := gen.Corpus(gen.Config{Txs: 5, Objs: 3, MaxOps: 3, PStaleRead: 0.3, PLeaveLive: 0.25}, n, 13)
	checkpoints := 0
	for seed, h := range hs {
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
		s := monitor.New(monitor.Options{TruncateAfterEvents: 1})
		var v monitor.Verdict
		for i, ev := range h {
			v = s.Append(ev)
			wantStatus := monitor.StatusOpaque
			if want != -1 && i+1 >= want {
				wantStatus = monitor.StatusViolated
			}
			if v.Status != wantStatus {
				t.Fatalf("seed %d after event %d: session %v, one-shot scan says %v (violation at %d, %d checkpoints):\n%s",
					seed, i, v.Status, wantStatus, want, v.Checkpoints, h.Format())
			}
			if v.Status == monitor.StatusViolated && v.PrefixLen != want {
				t.Fatalf("seed %d: session flags prefix %d, one-shot scan says %d", seed, v.PrefixLen, want)
			}
		}
		checkpoints += v.Checkpoints
		s.Close()
	}
	if checkpoints == 0 {
		t.Fatal("no corpus history ever truncated — the differential exercised nothing")
	}
}
