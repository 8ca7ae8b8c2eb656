package core

import (
	"fmt"
	"strings"

	"otm/internal/history"
)

// Diagnosis explains why a history is not opaque, in terms a TM
// implementer can act on: where the violation first became observable
// and which transactions are implicated.
type Diagnosis struct {
	// Opaque mirrors the checker verdict; the remaining fields are
	// meaningful only when it is false.
	Opaque bool
	// PrefixLen is the length of the shortest non-opaque prefix; the
	// violation became observable when event Culprit (the last event of
	// that prefix) was issued.
	PrefixLen int
	Culprit   history.Event
	// Implicated lists the transactions whose removal (alone) from the
	// offending prefix restores opacity — the minimal players of the
	// conflict. It may be empty when no single transaction is
	// responsible.
	Implicated []history.TxID
	// Nodes is the total number of search nodes explored across every
	// internal check: the prefix scan plus one re-check per removed
	// transaction. All of them share one SearchContext, so the total is
	// directly comparable to running the same checks with cold tables.
	Nodes int
}

// String renders the diagnosis for humans.
func (d Diagnosis) String() string {
	if d.Opaque {
		return "opaque"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "not opaque: first observable at event %d (%s)", d.PrefixLen-1, d.Culprit)
	if len(d.Implicated) > 0 {
		parts := make([]string, len(d.Implicated))
		for i, tx := range d.Implicated {
			parts[i] = fmt.Sprintf("T%d", int(tx))
		}
		fmt.Fprintf(&b, "; removing any of {%s} restores opacity", strings.Join(parts, ", "))
	}
	return b.String()
}

// RemoveTx returns h with every event of tx removed.
func RemoveTx(h history.History, tx history.TxID) history.History {
	var out history.History
	for _, e := range h {
		if e.Tx != tx {
			out = append(out, e)
		}
	}
	return out
}

// Diagnose locates the first non-opaque prefix of h and identifies the
// implicated transactions. It returns an error for malformed histories
// or search exhaustion. Every internal check — the prefix scan and the
// per-removed-transaction re-checks — runs on one shared SearchContext
// (cfg.Context if supplied), so the interned states and cached
// transitions of the scan are reused when each candidate transaction is
// removed; Diagnosis.Nodes makes the total cost observable.
func Diagnose(h history.History, cfg Config) (Diagnosis, error) {
	if cfg.Context == nil && !cfg.DisableMemo {
		cfg.Context = NewSearchContext()
	}
	n, nodes, err := firstNonOpaquePrefix(h, cfg)
	if err != nil {
		return Diagnosis{Nodes: nodes}, err
	}
	if n == -1 {
		return Diagnosis{Opaque: true, PrefixLen: -1, Nodes: nodes}, nil
	}
	d := Diagnosis{PrefixLen: n, Culprit: h[n-1], Nodes: nodes}
	err = d.implicate(h[:n], func(h history.History) (bool, int, error) {
		r, err := Check(h, cfg)
		return r.Opaque, r.Nodes, err
	})
	return d, err
}

// implicate re-checks prefix once per transaction, with that transaction
// removed, through opaque (which reports the verdict and the nodes it
// explored), and collects in d.Implicated the transactions whose removal
// restores opacity. d.Nodes accumulates every re-check's nodes.
func (d *Diagnosis) implicate(prefix history.History, opaque func(history.History) (bool, int, error)) error {
	for _, tx := range prefix.Transactions() {
		ok, nodes, err := opaque(RemoveTx(prefix, tx))
		d.Nodes += nodes
		if err != nil {
			return fmt.Errorf("diagnosing without T%d: %w", int(tx), err)
		}
		if ok {
			d.Implicated = append(d.Implicated, tx)
		}
	}
	return nil
}
