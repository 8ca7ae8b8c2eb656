package interleave

import (
	"testing"

	"otm/internal/bench"
	"otm/internal/core"
	"otm/internal/opg"
	"otm/internal/stm"
)

// TestZombieBehaviourMatrix replays the §2 schedule against every
// engine and pins each to its behaviour class — the zombie-probe column
// of the matrix `tmbench -matrix` prints. Single-version opaque engines
// abort the probe; multi-version engines serve the old snapshot; gatm
// alone zombies.
func TestZombieBehaviourMatrix(t *testing.T) {
	want := map[string]Behaviour{
		"dstm":  BehaviourAbort,
		"tl2":   BehaviourAbort,
		"tl2x":  BehaviourAbort, // the extension fails: object 0 changed
		"vstm":  BehaviourAbort,
		"mvstm": BehaviourOldValue,
		"sistm": BehaviourOldValue,
		"gatm":  BehaviourZombie,
	}
	for _, e := range bench.Engines() {
		got := Classify(e.New(2))
		if got != want[e.Name] {
			t.Errorf("%s: behaviour %s, want %s", e.Name, got, want[e.Name])
		}
	}
}

// TestWriteSkewMatrix: exactly the snapshot-isolation engine lets both
// write-skew commits through.
func TestWriteSkewMatrix(t *testing.T) {
	for _, e := range bench.Engines() {
		tm := e.New(2)
		if err := stm.DirectWrite(tm, 0, 50); err != nil {
			t.Fatal(err)
		}
		if err := stm.DirectWrite(tm, 1, 50); err != nil {
			t.Fatal(err)
		}
		res := Run(tm, WriteSkewSchedule())
		c0, c1 := res[8], res[9]
		bothCommitted := c0.Err == nil && c1.Err == nil
		if e.Name == "sistm" {
			if !bothCommitted {
				t.Errorf("sistm must admit write skew (got %v, %v)", c0.Err, c1.Err)
			}
			continue
		}
		if bothCommitted {
			t.Errorf("%s admitted write skew", e.Name)
		}
	}
}

// TestTheorem3ScheduleShapes mirrors the E9 probe through the schedule
// driver: dstm serves the read after Θ(k) validation, tl2 aborts it.
func TestTheorem3ScheduleShapes(t *testing.T) {
	for _, name := range []string{"dstm", "tl2"} {
		e, err := bench.EngineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		const k = 16
		res := Run(e.New(k), Theorem3Schedule(k))
		probe := res[len(res)-1]
		switch name {
		case "dstm":
			if probe.Err != nil || probe.Val != 1 {
				t.Errorf("dstm probe = %+v, want successful read of 1", probe)
			}
		case "tl2":
			if !probe.Aborted() {
				t.Errorf("tl2 probe = %+v, want non-progressive abort", probe)
			}
		}
	}
}

func TestRunLazyBeginAndCompletedTx(t *testing.T) {
	e, err := bench.EngineByName("tl2")
	if err != nil {
		t.Fatal(err)
	}
	res := Run(e.New(2), []Step{
		{Tx: 0, Action: Write, Obj: 0, Val: 9},
		{Tx: 0, Action: Commit},
		{Tx: 0, Action: Read, Obj: 0}, // after completion: ErrAborted
		{Tx: 1, Action: Read, Obj: 0},
		{Tx: 1, Action: Abort},
	})
	if res[1].Err != nil {
		t.Fatalf("commit failed: %v", res[1].Err)
	}
	if !res[2].Aborted() {
		t.Error("operation after completion must report ErrAborted")
	}
	if res[3].Err != nil || res[3].Val != 9 {
		t.Errorf("fresh transaction read = %+v", res[3])
	}
}

func TestRunUnknownAction(t *testing.T) {
	e, _ := bench.EngineByName("tl2")
	res := Run(e.New(1), []Step{{Tx: 0, Action: Action(99)}})
	if res[0].Err == nil {
		t.Error("unknown action must error")
	}
}

// TestEngineRecorderCheckerTriangle closes the loop end to end: run a
// deterministic schedule on every engine under the recorder, then check
// the recorded history with BOTH the definitional checker and the
// Theorem 2 graph characterization. The two must agree with each other
// on every engine, and report opaque for the opaque engines. Initial
// reads of 0 are attributed to an initializing transaction (WithInit);
// workload write values are distinct, so the unique-writes assumption of
// the characterization holds.
func TestEngineRecorderCheckerTriangle(t *testing.T) {
	schedule := []Step{
		{Tx: 0, Action: Read, Obj: 0},
		{Tx: 1, Action: Write, Obj: 0, Val: 101},
		{Tx: 1, Action: Write, Obj: 1, Val: 102},
		{Tx: 1, Action: Commit},
		{Tx: 0, Action: Read, Obj: 1},
		{Tx: 0, Action: Commit},
		{Tx: 2, Action: Read, Obj: 1},
		{Tx: 2, Action: Write, Obj: 1, Val: 103},
		{Tx: 2, Action: Commit},
	}
	for _, e := range bench.Engines() {
		rec := stm.NewRecorder(e.New(2))
		Run(rec, schedule)
		h := opg.WithInit(rec.History(), 0)

		defRes, err := core.Opaque(h)
		if err != nil {
			t.Fatalf("%s: core: %v\n%s", e.Name, err, h.Format())
		}
		gRes, err := opg.CheckTheorem2(h)
		if err != nil {
			t.Fatalf("%s: opg: %v\n%s", e.Name, err, h.Format())
		}
		if defRes.Opaque != gRes.Opaque {
			t.Fatalf("%s: checkers disagree (def=%v thm2=%v):\n%s",
				e.Name, defRes.Opaque, gRes.Opaque, h.Format())
		}
		if e.Opaque && !defRes.Opaque {
			t.Errorf("%s: opaque engine produced a non-opaque history:\n%s", e.Name, h.Format())
		}
		if e.Name == "gatm" && defRes.Opaque {
			t.Errorf("gatm on the zombie schedule must record a non-opaque history:\n%s", h.Format())
		}
	}
}

// TestFirstOperationPinsSnapshot: mvstm takes its snapshot at a
// transaction's first operation, not at Begin — a recorded history has
// no begin event, so a commit between Begin and the first read is
// visible to that read — and from then on the snapshot holds against
// later commits.
func TestFirstOperationPinsSnapshot(t *testing.T) {
	e, err := bench.EngineByName("mvstm")
	if err != nil {
		t.Fatal(err)
	}
	tm := e.New(1)
	res := Run(tm, []Step{
		{Tx: 0, Action: Begin},
		{Tx: 1, Action: Write, Obj: 0, Val: 7},
		{Tx: 1, Action: Commit},
		{Tx: 0, Action: Read, Obj: 0},
		{Tx: 2, Action: Write, Obj: 0, Val: 9},
		{Tx: 2, Action: Commit},
		{Tx: 0, Action: Read, Obj: 0},
	})
	if res[3].Err != nil || res[3].Val != 7 {
		t.Errorf("first read after a competing commit = %+v, want 7", res[3])
	}
	if res[6].Err != nil || res[6].Val != 7 {
		t.Errorf("read after the snapshot was pinned = %+v, want 7", res[6])
	}
}
