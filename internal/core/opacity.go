package core

import (
	"errors"
	"fmt"

	"otm/internal/history"
	"otm/internal/spec"
)

// ErrSearchLimit is returned when the opacity search exceeds the
// configured node budget before reaching a verdict.
var ErrSearchLimit = errors.New("core: opacity search exceeded node limit")

// Witness demonstrates that a history is opaque: Completion is the member
// of Complete(H) assembled from the commit/abort fates the search chose
// for the commit-pending transactions, Order is the serialization of its
// transactions, and Sequential is the resulting history S of Definition 1
// (equivalent to Completion, preserving ≺H, with every transaction
// legal).
type Witness struct {
	Completion history.History
	Order      []history.TxID
	Sequential history.History
}

// String renders the witness serialization order, e.g. "T2 T1 T3".
func (w *Witness) String() string { return history.TxList(w.Order) }

// Result is the outcome of an opacity check.
type Result struct {
	// Opaque is the verdict.
	Opaque bool
	// Witness is non-nil iff Opaque: the certificate of Definition 1.
	Witness *Witness
	// Nodes is the number of search nodes explored. For the default
	// engine this counts one unified search across all completions; for
	// the DisableMemo reference it accumulates across the per-completion
	// searches, so the two are directly comparable.
	Nodes int
}

// Config tunes the opacity decision procedure.
type Config struct {
	// Objects supplies the sequential specifications and initial states
	// of the shared objects. Objects not listed (or a nil map) default to
	// integer registers initialized to 0, matching the paper's examples.
	Objects spec.Objects
	// MaxNodes bounds the number of search nodes; 0 means the default
	// (4,000,000). Exceeding the bound yields ErrSearchLimit. The budget
	// covers the whole verdict: one unified search for the default
	// engine, the sum over completions for the reference engine.
	MaxNodes int
	// Context supplies the interned-state tables of the search engine.
	// nil means a fresh context per call; passing one amortizes state
	// interning and transition caching across calls (the failure memo
	// belongs to each search, so the verdict and node count do not
	// depend on it). Contexts are single-goroutine; see SearchContext.
	// Ignored when DisableMemo is set.
	Context *SearchContext
	// DisableMemo runs the reference decision procedure instead of the
	// unified engine: completions are enumerated as an outer loop (2^k
	// for k commit-pending transactions) and each runs a plain
	// backtracking search: no memo, no interned states, no symmetry
	// reduction. Differential-testing hook; not for production paths.
	DisableMemo bool
	// DisableSym turns off the symmetry reduction of the unified engine:
	// every transaction is its own class and interchangeable placements
	// are all explored. Differential-testing hook; not for production
	// paths.
	DisableSym bool
}

const defaultMaxNodes = 4_000_000

// Opaque decides Definition 1 for h with register objects initialized to
// 0. It is shorthand for Check(h, Config{}).
func Opaque(h history.History) (Result, error) {
	return Check(h, Config{})
}

// Check decides whether h is opaque (Definition 1 of the paper):
//
//	∃ H' ∈ Complete(H), ∃ sequential S ≡ H' such that
//	S preserves ≺H and every transaction in S is legal in S.
//
// The search is completion-aware: instead of enumerating the 2^k members
// of Complete(H) as an outer loop, the fate of each commit-pending
// transaction is decided lazily when the transaction is placed in the
// serialization (see decideBranch), so one memo table and one node
// budget serve the whole verdict. A transaction may be appended to the
// partial order when all its ≺H-predecessors have been placed and its
// operation executions are legal on the object states produced by the
// committed transactions placed so far. Failed search states are
// memoized by (placed set, interned object states), so placement orders
// and fate assignments that reach the same state are explored once.
//
// Check returns an error if h is not well-formed or the node budget is
// exhausted.
func Check(h history.History, cfg Config) (Result, error) {
	return check(h, cfg, nil)
}

// check is the engine shared by Check and CheckStrong: extraPreds adds
// ordering constraints on top of the real-time order ≺H.
//
// The unified engine reads h once, loading it into the context's
// history.Appender in place: Load rejects an ill-formed history with the
// same *WellFormedError WellFormed returns, and the Appender's views —
// transactions, statuses, executions, spans, objects — are what the
// search setup runs on, as it does for Incremental, and what the witness
// is assembled from.
func check(h history.History, cfg Config, extraPreds [][2]history.TxID) (Result, error) {
	maxNodes := cfg.MaxNodes
	if maxNodes == 0 {
		maxNodes = defaultMaxNodes
	}

	if cfg.DisableMemo {
		if err := h.WellFormed(); err != nil {
			return Result{}, err
		}
		txs := h.Transactions()
		if len(txs) == 0 {
			return Result{Opaque: true, Witness: &Witness{}}, nil
		}
		// ≺H is the real-time order of the *original* history h:
		// Definition 1 requires S to preserve the real-time order of H,
		// not of the completion.
		preds := append(h.RealTimeOrder(), extraPreds...)
		return checkPerCompletion(h, cfg, txs, preds, maxNodes)
	}

	ctx := cfg.Context
	if ctx == nil {
		ctx = NewSearchContext()
	}
	s := acquire(ctx)
	defer s.release()
	live := ctx.oneShot()
	if err := live.app.Load(h); err != nil {
		return Result{}, err
	}
	if len(live.app.Transactions()) == 0 {
		return Result{Opaque: true, Witness: &Witness{}}, nil
	}

	res := Result{}
	found, err := s.findSerialization(serializeOptions{
		live:       live,
		preds:      extraPreds,
		objects:    cfg.Objects,
		maxNodes:   maxNodes,
		nodes:      &res.Nodes,
		disableSym: cfg.DisableSym,
	})
	if err != nil {
		return res, err
	}
	if !found {
		return res, nil
	}
	res.Opaque = true
	res.Witness = s.witness(h, live.app)
	return res, nil
}

// witness assembles Definition 1's certificate from the serialization
// the search left in s.pos and s.fate and the Appender app, into which
// h is loaded. The completion is h itself when no transaction is live,
// and otherwise h followed by each live transaction's completion events
// in transaction order (Appender.Complete, the events CompleteWith
// would append for the same fates). S takes one counting pass over each
// event's transaction index: transaction t's events form the block at
// its rank in s.pos, in completion order.
func (s *searcher) witness(h history.History, app *history.Appender) *Witness {
	txs := app.Transactions()
	n := s.n
	w := &Witness{Completion: h, Order: make([]history.TxID, n)}
	if app.Open() > 0 {
		w.Completion = app.Complete(s.fate)
	}
	hc, tailAt := w.Completion, len(h)
	// rank[t] is t's position in the order; off[k] is where the block of
	// rank k starts, then its next free slot; tail[j] is the transaction
	// of completion event hc[tailAt+j].
	s.wbuf = grow(s.wbuf, 2*n+1+len(hc)-tailAt)
	rank, off, tail := s.wbuf[:n], s.wbuf[n:2*n+1], s.wbuf[2*n+1:]
	clear(off)
	for k, t := range s.pos {
		w.Order[k] = txs[t]
		rank[t] = int32(k)
	}
	// The completion events come grouped by transaction, in index order.
	for j, c := 0, int32(0); j < len(tail); j++ {
		for txs[c] != hc[tailAt+j].Tx {
			c++
		}
		tail[j] = c
	}
	evTx := app.EventTxs()
	for _, t := range evTx {
		off[rank[t]+1]++
	}
	for _, t := range tail {
		off[rank[t]+1]++
	}
	for k := 1; k <= n; k++ {
		off[k] += off[k-1]
	}
	seq := make(history.History, len(hc))
	for i, t := range evTx {
		seq[off[rank[t]]] = h[i]
		off[rank[t]]++
	}
	for j, t := range tail {
		seq[off[rank[t]]] = hc[tailAt+j]
		off[rank[t]]++
	}
	w.Sequential = seq
	return w
}

// checkPerCompletion is the retained reference decision procedure: the
// completion-outer-loop, un-memoized search that the unified engine is
// differentially tested against. It inherits EachCompletion's limit of
// 62 commit-pending transactions; the unified engine has no such cap.
func checkPerCompletion(h history.History, cfg Config, txs []history.TxID, preds [][2]history.TxID, maxNodes int) (Result, error) {
	res := Result{}
	var found *Witness
	var searchErr error

	h.EachCompletion(func(hc history.History) bool {
		order, err := findSerializationRef(hc, txs, preds, cfg.Objects, maxNodes, &res.Nodes)
		if err != nil {
			searchErr = err
			return false
		}
		if order != nil {
			found = &Witness{
				Completion: hc,
				Order:      order,
				Sequential: buildSequential(hc, order),
			}
			return false // stop enumerating completions
		}
		return true
	})

	if found != nil {
		res.Opaque = true
		res.Witness = found
		return res, nil
	}
	if searchErr != nil {
		return res, searchErr
	}
	return res, nil
}

// IsOpaque is a convenience wrapper returning only the verdict; it panics
// on malformed histories or search exhaustion. Intended for tests and
// examples where such conditions are programming errors.
func IsOpaque(h history.History, objs spec.Objects) bool {
	r, err := Check(h, Config{Objects: objs})
	if err != nil {
		panic(err)
	}
	return r.Opaque
}

// FirstNonOpaquePrefix returns the length of the shortest prefix of h
// that is not opaque, or -1 if every prefix is opaque. A correct TM
// generates its history progressively and every prefix the application
// can observe must be opaque; this is the "online" view of opacity used
// to validate recorded STM runs. The scan runs on the Incremental
// checker: every prefix shares one SearchContext (cfg.Context if
// supplied, a private one otherwise), and each check first revalidates
// the previous prefix's witness, so an all-opaque history costs a replay
// per event rather than a search per event. With cfg.DisableMemo the
// scan instead re-checks each response-boundary prefix from scratch on
// the reference engine.
func FirstNonOpaquePrefix(h history.History, cfg Config) (int, error) {
	n, _, err := firstNonOpaquePrefix(h, cfg)
	return n, err
}

// firstNonOpaquePrefix is FirstNonOpaquePrefix plus the total node count
// across the prefix scan, for Diagnose's cost accounting.
func firstNonOpaquePrefix(h history.History, cfg Config) (int, int, error) {
	if cfg.DisableMemo {
		nodes := 0
		for i := 1; i <= len(h); i++ {
			if i < len(h) && h[i-1].Kind.Invocation() {
				continue
			}
			r, err := Check(h[:i], cfg)
			nodes += r.Nodes
			if err != nil {
				return 0, nodes, fmt.Errorf("prefix of length %d: %w", i, err)
			}
			if !r.Opaque {
				return i, nodes, nil
			}
		}
		return -1, nodes, nil
	}
	inc := NewIncremental(cfg)
	if _, err := inc.Append(h...); err != nil {
		return 0, inc.Result().Nodes, err
	}
	r := inc.Result()
	if !r.Opaque {
		return r.PrefixLen, r.Nodes, nil
	}
	return -1, r.Nodes, nil
}
