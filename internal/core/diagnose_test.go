package core

import (
	"strings"
	"testing"

	"otm/internal/history"
)

func TestDiagnoseFigure1(t *testing.T) {
	d, err := Diagnose(figure1(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Opaque {
		t.Fatal("H1 is not opaque")
	}
	// The violation becomes observable at T2's read of y returning 2.
	if d.Culprit.Kind != history.KindRet || d.Culprit.Tx != 2 || d.Culprit.Obj != "y" {
		t.Errorf("culprit = %v, want T2's ret on y", d.Culprit)
	}
	// Removing T2 (the inconsistent reader) restores opacity; so does
	// removing T1 or T3 (either write makes the snapshot consistent).
	found := map[history.TxID]bool{}
	for _, tx := range d.Implicated {
		found[tx] = true
	}
	if !found[2] {
		t.Errorf("T2 must be implicated; got %v", d.Implicated)
	}
	s := d.String()
	if !strings.Contains(s, "not opaque") || !strings.Contains(s, "T2") {
		t.Errorf("diagnosis string %q", s)
	}
}

// TestDiagnoseNodesAccounted: Diagnose reports the total search cost of
// its internal checks, and a caller-supplied context is actually used
// (its tables are populated by the run).
func TestDiagnoseNodesAccounted(t *testing.T) {
	ctx := NewSearchContext()
	d, err := Diagnose(figure1(), Config{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if d.Opaque {
		t.Fatal("H1 is not opaque")
	}
	if d.Nodes <= 0 {
		t.Errorf("Diagnosis.Nodes = %d, want > 0 (prefix scan plus per-transaction re-checks)", d.Nodes)
	}
	if s := ctx.Stats(); s.States == 0 {
		t.Errorf("supplied context not used by Diagnose: %+v", s)
	}
	// The opaque path reports cost too.
	d2, err := Diagnose(figure2(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Opaque || d2.Nodes <= 0 {
		t.Errorf("opaque diagnosis: %+v, want Opaque with Nodes > 0", d2)
	}
}

func TestDiagnoseOpaque(t *testing.T) {
	d, err := Diagnose(figure2(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Opaque || d.String() != "opaque" {
		t.Errorf("diagnosis = %+v", d)
	}
}

func TestDiagnoseMalformed(t *testing.T) {
	if _, err := Diagnose(history.History{history.Commit(1)}, Config{}); err == nil {
		t.Error("malformed history must error")
	}
}

func TestRemoveTx(t *testing.T) {
	h := figure1()
	h2 := RemoveTx(h, 2)
	if h2.Contains(2) {
		t.Error("T2 events must be gone")
	}
	if len(h2) != len(h)-len(h.Sub(2)) {
		t.Error("only T2's events may be removed")
	}
	// Without the inconsistent reader, H1 becomes opaque.
	r, err := Opaque(h2)
	if err != nil || !r.Opaque {
		t.Errorf("H1 minus T2 must be opaque: %v %v", r.Opaque, err)
	}
}
