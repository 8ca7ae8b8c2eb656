// Package core implements opacity, the TM correctness criterion of
// Guerraoui & Kapałka, "On the Correctness of Transactional Memory"
// (PPoPP 2008) — the paper's primary contribution.
//
// Definition 1 of the paper: a history H is opaque if there exists a
// sequential history S equivalent to some history in Complete(H), such
// that (1) S preserves the real-time order of H, and (2) every
// transaction Ti ∈ S is legal in S.
//
// The package provides:
//
//   - Legality of transactions in complete sequential histories (§4,
//     "Legal histories and transactions"), parameterized by the
//     sequential specifications of the shared objects (package
//     internal/spec) — opacity is defined for arbitrary objects, not just
//     read/write registers.
//
//   - Opaque, a completion-aware decision procedure implementing
//     Definition 1. The search covers Complete(H) without enumerating its
//     2^k members as an outer loop: the commit/abort fate of each
//     commit-pending transaction is decided lazily, as a branch taken
//     when the transaction is placed in the serialization (commit makes
//     its effects visible to later placements; abort leaves no trace).
//     One memo table and one node budget therefore serve the entire
//     verdict, and search prefixes shared between completions are
//     explored once. A symmetry reduction places interchangeable
//     transactions (same replay signature, decision and ordering
//     constraints) in index order only; the lexicographically least
//     valid order is class-sorted, so no witness is lost.
//
//     The engine's hot path runs entirely on interned state
//     (SearchContext). Per-object states are interned to small integers
//     by their spec.State.Key fingerprint, and each search node's full
//     object configuration is a dense vector of those atoms, itself
//     interned to a stateID — so comparing or hashing a search state is
//     word arithmetic, never string building. Replaying a transaction is
//     cached twice over: a transition cache maps (stateID, transaction
//     replay signature) to the resulting stateID, so each transaction is
//     replayed at most once per distinct state rather than once per
//     (node, candidate) pair, and an atom-level step cache makes even
//     those replays skip spec.State.Step for operations it has applied
//     to the same object state before. Failure verdicts are memoized
//     under a fixed-size comparable key — (placed-transaction bitset,
//     stateID) — in a memo that belongs to the one search: it is
//     emptied before the next, so a verdict's node count is a function
//     of the history and Config alone. The interned states
//     and cached transitions are pure values and outlive the call, which
//     is what makes one context reusable across calls:
//     FirstNonOpaquePrefix threads a single SearchContext through its
//     prefix scan, and Diagnose shares one across the scan and every
//     per-removed-transaction re-check. The tables themselves have one
//     implementation, SharedTables, safe for concurrent use: a context
//     from NewSearchContext runs on a fresh set of its own, and
//     internal/checkpool gives every worker of a run a context over one
//     common set (SharedTables.NewContext), so a batch interns each
//     distinct state once. Subtrees truncated by the node budget
//     propagate a distinct status, so a budget-starved search stops at
//     once and never records them as failures.
//
//     On success Opaque returns a Witness — the completion assembled
//     from the chosen fates, the serialization order, and the sequential
//     history S they induce; the Nodes count of every Result measures
//     the search, and SearchContext.Stats exposes the interning and
//     cache counters (see `opacheck -parallel`'s summary and
//     BenchmarkCheckOpacityBatch's nodes/corpus and states-interned
//     metrics). Deciding opacity is NP-hard in general (it subsumes
//     view-serializability), so the procedure is exponential in the
//     worst case; the pruning makes it fast on the history sizes
//     produced by tests, fuzzing and recorded STM runs. The
//     pre-unification engine — completions as an outer loop, an
//     un-memoized, un-interned backtracking search per completion on
//     copy-on-write object maps — survives behind Config.DisableMemo as
//     the independent reference the unified engine is differentially
//     tested and fuzzed against (FuzzCheckOpacityDiff,
//     search_diff_test.go, context_test.go).
//
//   - FirstNonOpaquePrefix, an "online" view: TM histories are generated
//     progressively and every prefix observed by the application must
//     itself be opaque (the set of opaque histories is not prefix-closed,
//     as §5.2 notes, but a correct TM never shows a non-opaque prefix).
//
// The graph characterization of opacity (Theorem 2) lives in
// internal/opg; the weaker criteria it is compared against in §3 live in
// internal/criteria.
package core
