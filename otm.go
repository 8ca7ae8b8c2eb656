// Package otm is an executable reproduction of Guerraoui & Kapałka,
// "On the Correctness of Transactional Memory" (PPoPP 2008): the formal
// model of TM histories, the opacity correctness criterion (Definition
// 1), its graph characterization (Theorem 2), the weaker criteria the
// paper compares against (§3), seven STM engines covering the strategy
// space of the Ω(k) lower bound (Theorem 3), and the instrumentation to
// measure that bound.
//
// This file is the public facade: it re-exports the pieces a user
// composes — build or record histories, check them against opacity and
// the weaker criteria, and run the STM engines. The implementation lives
// in internal/ packages:
//
//	internal/history   events, histories, ≺H, Complete(H)      (§4)
//	internal/spec      sequential specifications of objects     (§4)
//	internal/core      opacity: legality, Definition 1 checker  (§5)
//	internal/opg       opacity graphs and Theorem 2             (§5.4)
//	internal/criteria  serializability, recoverability, ...     (§3)
//	internal/base      step-counted base shared objects         (§6.1)
//	internal/stm       TM interface, recorder, retry loop
//	internal/stm/dstm  progressive single-version invisible-read engine (Θ(k))
//	internal/stm/tl2   global-clock engine (O(1), not progressive) and
//	                   its LSA-style snapshot-extension variant (tl2x)
//	internal/stm/vstm  visible-read engine (O(1), progressive)
//	internal/stm/mvstm multi-version engine (independent of k; optional GC)
//	internal/stm/gatm  global-atomicity-only engine (O(1), NOT opaque)
//	internal/stm/sistm snapshot-isolation engine (write skew, NOT opaque)
//	internal/cm        contention managers
//	internal/interleave deterministic schedule replay
//	internal/gen       random history & workload generators
//	internal/monitor   online opacity monitoring of live executions
//	internal/controlplane fleet aggregation, telemetry, violation capture
//	internal/telemetry stdlib metrics registry (Prometheus text + JSON)
package otm

import (
	"io"

	"otm/internal/cm"
	"otm/internal/controlplane"
	"otm/internal/core"
	"otm/internal/criteria"
	"otm/internal/history"
	"otm/internal/monitor"
	"otm/internal/opg"
	"otm/internal/spec"
	"otm/internal/stm"
	"otm/internal/stm/dstm"
	"otm/internal/stm/gatm"
	"otm/internal/stm/mvstm"
	"otm/internal/stm/sistm"
	"otm/internal/stm/tl2"
	"otm/internal/stm/vstm"
)

// Core history vocabulary (see internal/history).
type (
	// History is a totally ordered sequence of transactional events.
	History = history.History
	// Event is a single transactional event.
	Event = history.Event
	// TxID identifies a transaction.
	TxID = history.TxID
	// ObjID identifies a shared object.
	ObjID = history.ObjID
	// HistoryBuilder constructs histories fluently.
	HistoryBuilder = history.Builder
)

// NewHistory returns a fluent history builder.
func NewHistory() *HistoryBuilder { return history.NewBuilder() }

// ParseHistory parses the textual history notation (see
// internal/history.Parse for the grammar).
func ParseHistory(s string) (History, error) { return history.Parse(s) }

// Opacity checking (see internal/core).
type (
	// CheckConfig tunes the opacity decision procedure.
	CheckConfig = core.Config
	// CheckResult is an opacity verdict with its witness.
	CheckResult = core.Result
)

// CheckOpacity decides Definition 1 for h (registers initialized to 0 by
// default; supply object specifications via CheckConfig.Objects).
func CheckOpacity(h History, cfg CheckConfig) (CheckResult, error) {
	return core.Check(h, cfg)
}

// Diagnosis explains an opacity violation (first observable event,
// implicated transactions).
type Diagnosis = core.Diagnosis

// DiagnoseOpacity locates the first non-opaque prefix of h and the
// transactions implicated in the violation.
func DiagnoseOpacity(h History, cfg CheckConfig) (Diagnosis, error) {
	return core.Diagnose(h, cfg)
}

// CheckStrongOpacity decides the §5.2 strengthening of opacity that
// additionally preserves the real-time order of operation executions —
// provided to demonstrate why the paper rejects it (see
// internal/core.CheckStrong).
func CheckStrongOpacity(h History, cfg CheckConfig) (CheckResult, error) {
	return core.CheckStrong(h, cfg)
}

// Incremental opacity checking (see internal/core.Incremental).
type (
	// IncrementalCheck decides opacity for successive prefixes of one
	// growing history, reusing search state across appends.
	IncrementalCheck = core.Incremental
	// IncrementalCheckResult is its running verdict.
	IncrementalCheckResult = core.IncrementalResult
)

// NewIncrementalCheck returns an append-driven opacity checker.
func NewIncrementalCheck(cfg CheckConfig) *IncrementalCheck {
	return core.NewIncremental(cfg)
}

// Online monitoring of live executions (see internal/monitor).
type (
	// MonitorSession is one online opacity-monitoring session.
	MonitorSession = monitor.Session
	// MonitorOptions configures a monitoring session.
	MonitorOptions = monitor.Options
	// MonitorVerdict is a session verdict snapshot.
	MonitorVerdict = monitor.Verdict
	// MonitorViolation describes the first observed opacity violation.
	MonitorViolation = monitor.Violation
)

// Monitoring modes and buffer-full policies.
const (
	MonitorSync        = monitor.Sync
	MonitorAsync       = monitor.Async
	MonitorBlock       = monitor.Block
	MonitorDrop        = monitor.Drop
	MonitorStatusOK    = monitor.StatusOpaque
	MonitorStatusBad   = monitor.StatusViolated
	MonitorStatusLossy = monitor.StatusLossy
	MonitorStatusError = monitor.StatusError
)

// NewMonitor starts a monitoring session fed via Append.
func NewMonitor(opts MonitorOptions) *MonitorSession { return monitor.New(opts) }

// AttachMonitor starts a session fed by every event rec records; a
// correct engine keeps it opaque, a broken one is flagged at the exact
// violating event. From then on rec keeps none of the events: the
// session's History holds what the monitor retains.
func AttachMonitor(rec *Recorder, opts MonitorOptions) *MonitorSession {
	return monitor.Attach(rec, opts)
}

// Monitoring control plane (see internal/controlplane): fleets of
// monitoring sessions with aggregated status, exported telemetry
// (Prometheus text or JSON over HTTP) and replayable violation capture.
type (
	// MonitorStats is a session's lock-free counter snapshot, readable
	// mid-run without perturbing the append path.
	MonitorStats = monitor.Stats
	// Fleet owns and aggregates a set of monitoring sessions.
	Fleet = controlplane.Fleet
	// FleetOptions configures a fleet.
	FleetOptions = controlplane.Options
	// FleetMember is one session of a fleet.
	FleetMember = controlplane.Member
	// FleetStatus is the aggregated fleet verdict and rate snapshot.
	FleetStatus = controlplane.Status
	// FleetViolation is a captured fleet violation record.
	FleetViolation = controlplane.ViolationRecord
	// ViolationArtifact is a replayable violation capture.
	ViolationArtifact = controlplane.Artifact
)

// Fleet-wide violation policies.
const (
	FleetStopOne = controlplane.StopOne
	FleetStopAll = controlplane.StopAll
)

// NewFleet creates an empty monitoring fleet; add members with Add or
// Attach and serve telemetry via its Handler.
func NewFleet(opts FleetOptions) (*Fleet, error) { return controlplane.New(opts) }

// ParseViolationArtifact decodes a violation artifact captured by a
// fleet; Replay re-derives its verdict offline.
func ParseViolationArtifact(r io.Reader) (*ViolationArtifact, error) {
	return controlplane.ParseArtifact(r)
}

// Criteria reports (see internal/criteria).
type CriteriaReport = criteria.Report

// EvaluateCriteria runs opacity plus every §3 criterion on h.
func EvaluateCriteria(h History, objs spec.Objects) (CriteriaReport, error) {
	return criteria.Evaluate(h, objs)
}

// Theorem2Result is a graph-characterization verdict (see internal/opg).
type Theorem2Result = opg.Theorem2Result

// CheckTheorem2 decides opacity via the opacity-graph characterization.
func CheckTheorem2(h History) (Theorem2Result, error) {
	return opg.CheckTheorem2(h)
}

// Object specifications (see internal/spec).
type (
	// ObjectSpecs maps objects to initial specification states.
	ObjectSpecs = spec.Objects
	// ObjectState is one state of a sequential specification.
	ObjectState = spec.State
)

// Object specification constructors.
var (
	NewRegister    = spec.NewRegister
	NewCounter     = spec.NewCounter
	NewCASRegister = spec.NewCASRegister
	NewSet         = spec.NewSet
	NewQueue       = spec.NewQueue
	NewStack       = spec.NewStack
)

// STM programming interface (see internal/stm).
type (
	// TM is a transactional memory over integer registers.
	TM = stm.TM
	// Tx is a live transaction.
	Tx = stm.Tx
	// Recorder wraps a TM and records the history of a run.
	Recorder = stm.Recorder
	// ContentionManager arbitrates conflicts in progressive engines.
	ContentionManager = cm.Manager
)

// ErrAborted is the forceful-abort error of the STM engines.
var ErrAborted = stm.ErrAborted

// Atomically retries fn in fresh transactions until one commits.
func Atomically(tm TM, fn func(Tx) error) error { return stm.Atomically(tm, fn) }

// Nest starts a closed-nested child transaction (§7 of the paper):
// committed children flatten into the parent, aborted children roll back
// alone.
func Nest(parent Tx) Tx { return stm.Nest(parent) }

// DirectRead performs a non-transactional read with single-transaction
// semantics (§7's encapsulation of non-transactional operations).
func DirectRead(tm TM, i int) (int, error) { return stm.DirectRead(tm, i) }

// DirectWrite performs a non-transactional write with single-transaction
// semantics.
func DirectWrite(tm TM, i, v int) error { return stm.DirectWrite(tm, i, v) }

// NewRecorder wraps tm so every transactional event is recorded. While a
// monitor is attached (AttachMonitor) the events go to it instead, and
// the recorder's History keeps only those recorded while untapped.
func NewRecorder(tm TM) *Recorder { return stm.NewRecorder(tm) }

// Engine constructors. Each returns a TM over n integer registers
// initialized to 0.
func NewDSTM(n int, mgr ContentionManager) TM { return dstm.New(n, mgr) }

// NewTL2 returns the TL2-style engine (invisible reads, O(1) operations,
// not progressive).
func NewTL2(n int) TM { return tl2.New(n) }

// NewTL2Extending returns the TL2 variant with LSA-style snapshot
// extension: O(1) conflict-free reads, Θ(read-set) revalidation instead
// of an abort when the snapshot is invalidated.
func NewTL2Extending(n int) TM { return tl2.NewExtending(n) }

// NewVSTM returns the visible-read engine (O(1) operations, progressive).
func NewVSTM(n int, mgr ContentionManager) TM { return vstm.New(n, mgr) }

// NewMVSTM returns the multi-version engine (read-only transactions never
// abort; per-operation cost independent of the number of objects).
// Version chains grow with the commit history; use NewMVSTMWithGC for
// bounded chains.
func NewMVSTM(n int) TM { return mvstm.New(n) }

// NewMVSTMWithGC returns the multi-version engine with version garbage
// collection: chains are truncated below the oldest active snapshot.
func NewMVSTMWithGC(n int) TM { return mvstm.NewWithGC(n) }

// NewGATM returns the global-atomicity-only engine — the §6
// counterexample that is NOT opaque. Use it to observe zombies.
func NewGATM(n int) TM { return gatm.New(n) }

// NewSISTM returns the snapshot-isolation engine (the paper's other
// named safety-for-performance trade, §1): reads are always consistent
// snapshots, but write skew makes committed histories non-serializable —
// NOT opaque.
func NewSISTM(n int) TM { return sistm.New(n) }

// Contention manager policies.
var (
	Aggressive ContentionManager = cm.Aggressive{}
	Polite     ContentionManager = cm.Polite{}
	Karma      ContentionManager = cm.Karma{}
	Greedy     ContentionManager = cm.Greedy{}
)
