package criteria

import (
	"errors"
	"strings"
	"testing"

	"otm/internal/core"
	"otm/internal/gen"
	"otm/internal/history"
	"otm/internal/spec"
)

// figure1 is the paper's H1: globally atomic (with real-time ordering)
// and strictly recoverable, but not opaque.
func figure1() history.History {
	return history.MustParse(
		"w1(x,1) tryC1 C1 r2(x)->1 w3(x,2) w3(y,2) tryC3 C3 r2(y)->2 tryC2 A2")
}

func TestCommittedProjection(t *testing.T) {
	proj := CommittedProjection(figure1())
	txs := proj.Transactions()
	if len(txs) != 2 {
		t.Fatalf("committed projection has %d transactions, want T1 and T3", len(txs))
	}
	for _, e := range proj {
		if e.Tx == 2 {
			t.Error("aborted T2 must not appear in the committed projection")
		}
	}
	if !proj.Committed(1) || !proj.Committed(3) {
		t.Error("T1 and T3 must remain committed in the projection")
	}
}

func TestFigure1Verdicts(t *testing.T) {
	// The punchline of the paper's Figure 1: every weaker criterion
	// passes, opacity fails.
	rep, err := Evaluate(figure1(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Opaque {
		t.Error("H1 must not be opaque")
	}
	if !rep.Serializable {
		t.Error("H1 must be serializable (committed T1, T3 are sequential)")
	}
	if !rep.StrictlySerializable {
		t.Error("H1 must be strictly serializable")
	}
	if !rep.GloballyAtomic {
		t.Error("H1 must satisfy global atomicity with real-time ordering")
	}
	if !rep.StrictlyRecoverable {
		t.Error("H1 must be strictly recoverable (paper, §3.5)")
	}
	if rep.Rigorous {
		t.Error("H1 is not rigorous: T3 writes x while reader T2 is live")
	}
}

func TestSerializableVsStrict(t *testing.T) {
	// T1 commits x=1 before T2 starts; T2 reads the older value 0 and
	// commits. Serializable (order T2 T1) but not strictly serializable.
	h := history.NewBuilder().
		Write(1, "x", 1).Commits(1).
		Read(2, "x", 0).Commits(2).
		MustHistory()
	if ok, err := Serializable(h, nil); err != nil || !ok {
		t.Errorf("stale read is serializable without real-time: %v %v", ok, err)
	}
	if ok, err := StrictlySerializable(h, nil); err != nil || ok {
		t.Errorf("stale read violates strict serializability: %v %v", ok, err)
	}
}

func TestSerializabilityIgnoresAborted(t *testing.T) {
	// A wildly inconsistent aborted transaction does not affect
	// serializability — that is exactly its weakness.
	h := figure1()
	if ok, _ := Serializable(h, nil); !ok {
		t.Error("aborted T2 must be invisible to serializability")
	}
	// But an inconsistent COMMITTED read does break it.
	bad := history.NewBuilder().
		Write(1, "x", 1).Commits(1).
		Read(2, "x", 7).Commits(2).
		MustHistory()
	if ok, _ := Serializable(bad, nil); ok {
		t.Error("committed read of a never-written value is not serializable")
	}
}

func TestGlobalAtomicityCounter(t *testing.T) {
	// §3.4: concurrent committed increments — globally atomic under
	// counter semantics (and under opacity too), impossible as
	// read-modify-write registers.
	var h history.History
	for tx := history.TxID(1); tx <= 3; tx++ {
		h = append(h, history.Inv(tx, "c", "inc", nil))
	}
	for tx := history.TxID(1); tx <= 3; tx++ {
		h = append(h, history.Ret(tx, "c", "inc", spec.OK))
	}
	for tx := history.TxID(1); tx <= 3; tx++ {
		h = append(h, history.TryC(tx), history.Commit(tx))
	}
	h = h.MustWellFormed()
	objs := spec.Objects{"c": spec.NewCounter(0)}
	if ok, err := GloballyAtomic(h, objs); err != nil || !ok {
		t.Errorf("concurrent increments are globally atomic: %v %v", ok, err)
	}
	// Recoverability forbids the very same history (paper's point: it is
	// too strong for arbitrary objects).
	if ok, v := StrictlyRecoverable(h, nil); ok {
		t.Error("concurrent increments violate strict recoverability")
	} else if v == nil {
		t.Error("violation detail missing")
	}
}

func TestStrictRecoverabilityWindow(t *testing.T) {
	// Writer completes before the reader touches x: recoverable.
	h := history.NewBuilder().
		Write(1, "x", 1).Commits(1).
		Read(2, "x", 1).Commits(2).
		MustHistory()
	if ok, _ := StrictlyRecoverable(h, nil); !ok {
		t.Error("sequential writer then reader is recoverable")
	}
	// Reader overlaps the live writer on x: not recoverable.
	h2 := history.History{
		history.Inv(1, "x", "write", 1), history.Ret(1, "x", "write", spec.OK),
		history.Inv(2, "x", "read", nil), history.Ret(2, "x", "read", 0),
		history.TryC(1), history.Commit(1),
		history.TryC(2), history.Commit(2),
	}.MustWellFormed()
	ok, v := StrictlyRecoverable(h2, nil)
	if ok {
		t.Fatal("read of an object updated by a live transaction is not recoverable")
	}
	if v.First != 1 || v.Second != 2 || v.Obj != "x" {
		t.Errorf("violation = %+v", v)
	}
	if !strings.Contains(v.Error(), "T1") {
		t.Errorf("violation message %q should name T1", v.Error())
	}
}

func TestRecoverabilityLiveWriterWindowExtendsToEnd(t *testing.T) {
	// The writer never completes: its window covers the rest of the
	// history.
	h := history.History{
		history.Inv(1, "x", "write", 1), history.Ret(1, "x", "write", spec.OK),
		history.Inv(2, "x", "read", nil), history.Ret(2, "x", "read", 0),
	}.MustWellFormed()
	if ok, _ := StrictlyRecoverable(h, nil); ok {
		t.Error("access to an object held by a live writer is not recoverable")
	}
}

func TestRigorousSchedulingReadersOK(t *testing.T) {
	// Two concurrent readers of the same object are rigorous.
	h := history.History{
		history.Inv(1, "x", "read", nil), history.Ret(1, "x", "read", 0),
		history.Inv(2, "x", "read", nil), history.Ret(2, "x", "read", 0),
		history.TryC(1), history.Commit(1),
		history.TryC(2), history.Commit(2),
	}.MustWellFormed()
	if ok, v := RigorouslyScheduled(h, nil); !ok {
		t.Errorf("concurrent readers are rigorous; violation: %v", v)
	}
}

func TestRigorousSchedulingBlindWritersRejected(t *testing.T) {
	// §3.6: concurrent blind writers violate rigorous scheduling even
	// though the history is opaque. (The paper's argument that rigorous
	// scheduling is too strong.)
	var h history.History
	for tx := history.TxID(1); tx <= 3; tx++ {
		h = append(h, history.Inv(tx, "x", "write", int(tx)),
			history.Ret(tx, "x", "write", spec.OK))
	}
	for tx := history.TxID(1); tx <= 3; tx++ {
		h = append(h, history.TryC(tx), history.Commit(tx))
	}
	h = h.MustWellFormed()
	ok, v := RigorouslyScheduled(h, nil)
	if ok {
		t.Fatal("concurrent writers must violate rigorous scheduling")
	}
	if v.Obj != "x" {
		t.Errorf("violation object = %s", v.Obj)
	}
}

func TestRigorousAfterCompletionOK(t *testing.T) {
	// Accesses strictly after the updater completes are fine.
	h := history.NewBuilder().
		Write(1, "x", 1).Commits(1).
		Write(2, "x", 2).Commits(2).
		MustHistory()
	if ok, _ := RigorouslyScheduled(h, nil); !ok {
		t.Error("sequential writers are rigorous")
	}
}

func TestCustomUpdateClassifier(t *testing.T) {
	// With a classifier that treats "inc" as read-only, concurrent incs
	// pass recoverability.
	var h history.History
	for tx := history.TxID(1); tx <= 2; tx++ {
		h = append(h, history.Inv(tx, "c", "inc", nil))
	}
	for tx := history.TxID(1); tx <= 2; tx++ {
		h = append(h, history.Ret(tx, "c", "inc", spec.OK))
	}
	for tx := history.TxID(1); tx <= 2; tx++ {
		h = append(h, history.TryC(tx), history.Commit(tx))
	}
	h = h.MustWellFormed()
	never := func(string) bool { return false }
	if ok, _ := StrictlyRecoverable(h, never); !ok {
		t.Error("no updates → trivially recoverable")
	}
	if ok, _ := RigorouslyScheduled(h, never); !ok {
		t.Error("no updates → trivially rigorous")
	}
}

func TestReportString(t *testing.T) {
	rep, err := Evaluate(figure1(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"opacity", "NO", "serializability", "yes"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
	// An opaque history's report includes the witness order.
	rep2, err := Evaluate(history.MustParse("w1(x,1) tryC1 C1 r2(x)->1 tryC2 C2"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep2.String(), "witness") {
		t.Error("opaque report should include the witness")
	}
}

func TestEvaluatePropagatesErrors(t *testing.T) {
	if _, err := Evaluate(history.History{history.Commit(1)}, nil); err == nil {
		t.Error("Evaluate must propagate malformed-history errors")
	}
}

// Opacity implies strict serializability of the committed projection —
// checked here on the paper's opaque H5 (Figure 2).
func TestOpacityImpliesStrictSerializability(t *testing.T) {
	h5 := history.History{
		history.Inv(2, "x", "write", 1), history.Ret(2, "x", "write", spec.OK),
		history.Inv(2, "y", "write", 2), history.Ret(2, "y", "write", spec.OK),
		history.TryC(2),
		history.Inv(1, "x", "read", nil),
		history.Commit(2),
		history.Inv(3, "y", "write", 3),
		history.Ret(1, "x", "read", 1), history.Inv(1, "x", "write", 5),
		history.Ret(3, "y", "write", spec.OK),
		history.Ret(1, "x", "write", spec.OK), history.Inv(1, "y", "read", nil),
		history.Inv(3, "x", "read", nil),
		history.Ret(1, "y", "read", 2), history.TryC(1),
		history.Ret(3, "x", "read", 1), history.TryC(3),
		history.Abort(1),
		history.Commit(3),
	}.MustWellFormed()
	rep, err := Evaluate(h5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Opaque {
		t.Fatal("H5 is opaque")
	}
	if !rep.StrictlySerializable {
		t.Error("opacity implies strict serializability")
	}
}

// permute calls visit with every ordering of txs (rearranged in place)
// until visit returns false, and reports whether it ran to the end.
func permute(txs []history.TxID, k int, visit func([]history.TxID) bool) bool {
	if k == len(txs) {
		return visit(txs)
	}
	for i := k; i < len(txs); i++ {
		txs[k], txs[i] = txs[i], txs[k]
		if !permute(txs, k+1, visit) {
			return false
		}
		txs[k], txs[i] = txs[i], txs[k]
	}
	return true
}

// bruteSerializable is the §3 definition run literally: some ordering of
// the committed transactions, concatenated as their H|Ti blocks, is a
// legal sequential history — one that, with realTime, also preserves the
// real-time order of the committed projection. It shares nothing with
// the opacity search but core.AllLegal.
func bruteSerializable(h history.History, objs spec.Objects, realTime bool) bool {
	proj := CommittedProjection(h)
	txs := proj.Transactions()
	blocks := make(map[history.TxID]history.History, len(txs))
	for _, tx := range txs {
		blocks[tx] = proj.Sub(tx)
	}
	s := make(history.History, 0, len(proj))
	return !permute(txs, 0, func(order []history.TxID) bool {
		s = s[:0]
		for _, tx := range order {
			s = append(s, blocks[tx]...)
		}
		if realTime && !history.PreservesRealTimeOrder(proj, s) {
			return true
		}
		_, legal := core.AllLegal(s, objs)
		return !legal
	})
}

// asCounters rewrites the register operations on the objects of objs as
// counter operations — a write becomes inc, a read becomes get with the
// same return value — so a register corpus exercises counter semantics.
func asCounters(h history.History, objs spec.Objects) history.History {
	out := h.Clone()
	for i, e := range out {
		if _, ok := objs[e.Obj]; !ok || (e.Kind != history.KindInv && e.Kind != history.KindRet) {
			continue
		}
		switch e.Op {
		case "write":
			e.Op, e.Arg = "inc", nil
		case "read":
			e.Op = "get"
		}
		out[i] = e
	}
	return out
}

// TestCriteriaMatchBruteForce pins Serializable and StrictlySerializable
// (and GloballyAtomic, its synonym) to the brute-force definition on
// generated histories of at most 6 committed transactions, over
// registers and over a counter.
func TestCriteriaMatchBruteForce(t *testing.T) {
	n := 100
	if !testing.Short() {
		n = 300
	}
	counter := spec.ParseCounters("x0")
	for _, env := range []struct {
		name string
		objs spec.Objects
	}{{"registers", nil}, {"counter", counter}} {
		var yes, no [2]int
		serialOnly := 0 // serializable, but not strictly
		for i, h := range gen.Corpus(gen.Config{Txs: 6, Objs: 2, MaxOps: 2, PStaleRead: 0.3, PCommit: 0.9, PLeaveLive: 0.05}, n, 500) {
			if env.objs != nil {
				h = asCounters(h, env.objs)
			}
			if c := len(CommittedProjection(h).Transactions()); c > 6 {
				t.Fatalf("history %d has %d committed transactions", i, c)
			}
			var got [2]bool
			for k, decide := range []func(history.History, spec.Objects) (bool, error){Serializable, StrictlySerializable} {
				ok, err := decide(h, env.objs)
				if err != nil {
					t.Fatalf("%s history %d: %v", env.name, i, err)
				}
				if want := bruteSerializable(h, env.objs, k == 1); ok != want {
					t.Fatalf("%s history %d, real time %v: criterion says %v, brute force %v:\n%s",
						env.name, i, k == 1, ok, want, h.Format())
				}
				got[k] = ok
				if ok {
					yes[k]++
				} else {
					no[k]++
				}
			}
			if ga, err := GloballyAtomic(h, env.objs); err != nil || ga != got[1] {
				t.Fatalf("%s history %d: GloballyAtomic %v (err %v), StrictlySerializable %v", env.name, i, ga, err, got[1])
			}
			if got[0] && !got[1] {
				serialOnly++
			}
		}
		for k := range yes {
			if min := n / 20; yes[k] < min || no[k] < min {
				t.Errorf("%s, real time %v: %d yes and %d no verdicts, want ≥%d of each", env.name, k == 1, yes[k], no[k], min)
			}
		}
		if serialOnly == 0 {
			t.Errorf("%s: no history is serializable without being strictly serializable", env.name)
		}
		t.Logf("%s: serializable %d/%d, strictly %d/%d, serializable only %d", env.name, yes[0], n, yes[1], n, serialOnly)
	}
}

// TestCriteriaRejectIllFormed: an ill-formed history gets its
// *WellFormedError from every serializability-style criterion, even when
// the offending event belongs to a transaction the committed projection
// drops.
func TestCriteriaRejectIllFormed(t *testing.T) {
	// T2 reads after its abort (event 8); T1 alone is well-formed.
	h := history.MustParse("w1(x,1) tryC1 C1 w2(x,2) tryA2 A2 r2(x)->1")
	for name, decide := range map[string]func(history.History, spec.Objects) (bool, error){
		"Serializable": Serializable, "StrictlySerializable": StrictlySerializable, "GloballyAtomic": GloballyAtomic,
	} {
		ok, err := decide(h, nil)
		var we *history.WellFormedError
		if !errors.As(err, &we) || we.Index != 8 {
			t.Errorf("%s = %v, %v; want the *WellFormedError at event 8", name, ok, err)
		}
	}
}

// TestEvaluateSerializabilityRows: Evaluate reads the serializability
// rows off the opacity witness when its completion commits no
// commit-pending transaction, and searches otherwise; either way the
// rows are the answers of Serializable, StrictlySerializable and
// GloballyAtomic. The corpus leaves many transactions commit-pending, so
// it holds opaque histories of both kinds and non-opaque ones.
func TestEvaluateSerializabilityRows(t *testing.T) {
	var fromWitness, pendingCommitted, notOpaque int
	for i, h := range gen.Corpus(gen.Config{Txs: 5, Objs: 2, MaxOps: 3, PStaleRead: 0.2, PLeaveLive: 0.5}, 400, 900) {
		rep, err := Evaluate(h, nil)
		if err != nil {
			t.Fatalf("history %d: %v", i, err)
		}
		for _, row := range []struct {
			name   string
			got    bool
			decide func(history.History, spec.Objects) (bool, error)
		}{
			{"serializability", rep.Serializable, Serializable},
			{"strict serializability", rep.StrictlySerializable, StrictlySerializable},
			{"global atomicity", rep.GloballyAtomic, GloballyAtomic},
		} {
			want, err := row.decide(h, nil)
			if err != nil {
				t.Fatalf("history %d: %s: %v", i, row.name, err)
			}
			if row.got != want {
				t.Fatalf("history %d: Evaluate's %s row is %v, the criterion says %v:\n%s", i, row.name, row.got, want, h.Format())
			}
		}
		if len(h.CommitPendingTxs()) == 0 {
			continue
		}
		res, err := core.Check(h, core.Config{})
		switch {
		case err != nil:
			t.Fatalf("history %d: %v", i, err)
		case !res.Opaque:
			notOpaque++
		case commitsAny(res.Witness.Completion[len(h):]):
			pendingCommitted++
		default:
			fromWitness++
		}
	}
	t.Logf("with commit-pending transactions: %d rows from the witness, %d searched after the witness committed one, %d not opaque",
		fromWitness, pendingCommitted, notOpaque)
	if fromWitness == 0 || pendingCommitted == 0 || notOpaque == 0 {
		t.Errorf("corpus misses a case: %d from the witness, %d witness-committed, %d not opaque", fromWitness, pendingCommitted, notOpaque)
	}
}
