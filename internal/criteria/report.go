package criteria

import (
	"fmt"
	"strings"

	"otm/internal/core"
	"otm/internal/history"
	"otm/internal/spec"
)

// Report collects the verdict of every criterion for one history — the
// rows of cmd/opacheck's criteria table (for the paper's Figure 1,
// `opacheck -demo fig1`, pinned by TestFigure1Verdicts).
type Report struct {
	Opaque               bool
	Serializable         bool
	StrictlySerializable bool
	GloballyAtomic       bool
	StrictlyRecoverable  bool
	Rigorous             bool

	// OpacityWitness is the serialization order proving opacity, when
	// Opaque is true.
	OpacityWitness []history.TxID
}

// Evaluate runs every criterion on h with the given object environment
// (nil = registers initialized to 0).
//
// An opacity witness whose completion commits none of h's commit-pending
// transactions also settles the serializability rows without a search:
// restricted to the committed transactions it is a legal sequential
// equivalent of the committed projection that preserves its ≺.
// Otherwise a committed transaction may have read from a commit-pending
// one the witness committed, and the rows are searched for. Global
// atomicity takes the answer of strict serializability, which is the
// same function.
func Evaluate(h history.History, objs spec.Objects) (Report, error) {
	var rep Report
	res, err := core.Check(h, core.Config{Objects: objs})
	if err != nil {
		return rep, fmt.Errorf("opacity: %w", err)
	}
	rep.Opaque = res.Opaque
	if res.Opaque {
		rep.OpacityWitness = res.Witness.Order
	}
	if res.Opaque && !commitsAny(res.Witness.Completion[len(h):]) {
		rep.Serializable, rep.StrictlySerializable = true, true
	} else {
		if rep.Serializable, err = Serializable(h, objs); err != nil {
			return rep, fmt.Errorf("serializability: %w", err)
		}
		if rep.StrictlySerializable, err = StrictlySerializable(h, objs); err != nil {
			return rep, fmt.Errorf("strict serializability: %w", err)
		}
	}
	rep.GloballyAtomic = rep.StrictlySerializable
	rep.StrictlyRecoverable, _ = StrictlyRecoverable(h, nil)
	rep.Rigorous, _ = RigorouslyScheduled(h, nil)
	return rep, nil
}

// commitsAny reports whether evs hold a commit event.
func commitsAny(evs history.History) bool {
	for _, e := range evs {
		if e.Kind == history.KindCommit {
			return true
		}
	}
	return false
}

// String renders the report as an aligned two-column table.
func (r Report) String() string {
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "NO"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %s", "opacity", mark(r.Opaque))
	if r.Opaque {
		b.WriteString("  (witness:")
		if len(r.OpacityWitness) > 0 {
			b.WriteString(" " + history.TxList(r.OpacityWitness))
		}
		b.WriteString(")")
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "%-24s %s\n", "serializability", mark(r.Serializable))
	fmt.Fprintf(&b, "%-24s %s\n", "strict serializability", mark(r.StrictlySerializable))
	fmt.Fprintf(&b, "%-24s %s\n", "global atomicity (+rt)", mark(r.GloballyAtomic))
	fmt.Fprintf(&b, "%-24s %s\n", "strict recoverability", mark(r.StrictlyRecoverable))
	fmt.Fprintf(&b, "%-24s %s\n", "rigorous scheduling", mark(r.Rigorous))
	return b.String()
}
