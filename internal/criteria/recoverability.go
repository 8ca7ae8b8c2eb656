package criteria

import (
	"fmt"

	"otm/internal/history"
)

// ReadOnlyOps lists the operation names treated as non-updating when
// deciding recoverability and rigorous scheduling. Everything else is an
// update. The set covers the objects of internal/spec; callers with
// custom objects can pass their own classification via the *WithOps
// variants.
var ReadOnlyOps = map[string]bool{
	"read":     true,
	"get":      true,
	"contains": true,
	"size":     true,
	"len":      true,
}

// Violation describes why a scheduling criterion failed: transaction
// Second performed op on Obj while First's access was still unresolved.
type Violation struct {
	First, Second history.TxID
	Obj           history.ObjID
	Index         int // event index of the offending access
	Msg           string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("T%d vs T%d on %s at event %d: %s",
		int(v.First), int(v.Second), v.Obj, v.Index, v.Msg)
}

// completionIndexes returns a lookup of the index of a transaction's
// first commit/abort event in h, or len(h) if the transaction is live
// (its window extends to the end of the history). One pass over h
// builds it, so the checks below stay linear in the history plus the
// windows they scan, however many invocations h has.
func completionIndexes(h history.History) func(history.TxID) int {
	ends := make(map[history.TxID]int)
	for i, e := range h {
		if e.Kind == history.KindCommit || e.Kind == history.KindAbort {
			if _, ok := ends[e.Tx]; !ok {
				ends[e.Tx] = i
			}
		}
	}
	return func(tx history.TxID) int {
		if i, ok := ends[tx]; ok {
			return i
		}
		return len(h)
	}
}

// StrictlyRecoverable reports whether h satisfies strict recoverability
// (§3.5, after Hadzilacos): if a transaction Ti updates a shared object
// x, then no other transaction performs any operation on x until Ti
// commits or aborts. isUpdate classifies operations; nil uses
// ReadOnlyOps's complement.
func StrictlyRecoverable(h history.History, isUpdate func(op string) bool) (bool, *Violation) {
	if isUpdate == nil {
		isUpdate = func(op string) bool { return !ReadOnlyOps[op] }
	}
	completion := completionIndexes(h)
	for i, e := range h {
		if e.Kind != history.KindInv || !isUpdate(e.Op) {
			continue
		}
		end := completion(e.Tx)
		for j := i + 1; j < end && j < len(h); j++ {
			f := h[j]
			if f.Kind == history.KindInv && f.Obj == e.Obj && f.Tx != e.Tx {
				return false, &Violation{
					First: e.Tx, Second: f.Tx, Obj: e.Obj, Index: j,
					Msg: fmt.Sprintf("%s invoked on %s updated by live T%d", f.Op, f.Obj, int(e.Tx)),
				}
			}
		}
	}
	return true, nil
}

// RigorouslyScheduled reports whether h satisfies rigorous scheduling
// (§3.6, after Breitbart et al.): no two transactions concurrently access
// an object if one of them updates it. Concretely, after Ti accesses x
// and until Ti completes, no other transaction may update x; and after Ti
// updates x and until Ti completes, no other transaction may access x at
// all.
func RigorouslyScheduled(h history.History, isUpdate func(op string) bool) (bool, *Violation) {
	if isUpdate == nil {
		isUpdate = func(op string) bool { return !ReadOnlyOps[op] }
	}
	completion := completionIndexes(h)
	for i, e := range h {
		if e.Kind != history.KindInv {
			continue
		}
		end := completion(e.Tx)
		for j := i + 1; j < end && j < len(h); j++ {
			f := h[j]
			if f.Kind != history.KindInv || f.Obj != e.Obj || f.Tx == e.Tx {
				continue
			}
			if isUpdate(e.Op) || isUpdate(f.Op) {
				return false, &Violation{
					First: e.Tx, Second: f.Tx, Obj: e.Obj, Index: j,
					Msg: fmt.Sprintf("conflicting %s/%s on %s while T%d is live", e.Op, f.Op, f.Obj, int(e.Tx)),
				}
			}
		}
	}
	return true, nil
}
