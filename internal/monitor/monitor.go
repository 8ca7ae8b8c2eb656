// Package monitor checks opacity of live STM executions online: a
// Session taps the event stream of an stm.Recorder (or is fed events
// directly) and maintains an incremental verdict as operations, commits
// and aborts arrive, flagging a violation at the exact event that
// introduces it.
//
// Monitoring is well-founded because the checker's online view is
// prefix-driven: a correct TM emits its history progressively, and
// every prefix the application can observe must be opaque (the same
// view core.FirstNonOpaquePrefix takes post-hoc). The Session runs on
// core.Incremental, so successive prefixes of the growing history reuse
// one SearchContext — interned object states, cached transitions — and
// the common "still opaque" event costs a witness revalidation, not a
// search.
//
// Two modes trade latency against perturbation:
//
//   - Sync: the verdict is updated inside the recorder's event append,
//     so every transactional operation of every goroutine waits for the
//     check. The violating operation is still in flight when the
//     verdict lands — stop-the-world monitoring for tests and
//     debugging.
//   - Async: events enqueue into a bounded buffer and a drain goroutine
//     checks them off the critical path. The buffer-full policy is
//     configurable: Block applies backpressure to the engine, Drop
//     discards the event and latches the session lossy (a gapped
//     history cannot be judged, so lossiness is flagged, never
//     silently absorbed).
//
// On the first violation the Session stops checking (the verdict is
// latched — no later event can un-observe a violation), snapshots the
// offending prefix, and runs core.Diagnose on it to name the culpable
// transactions.
package monitor

import (
	"sync"
	"sync/atomic"
	"time"

	"otm/internal/core"
	"otm/internal/history"
	"otm/internal/spec"
	"otm/internal/stm"
)

// Mode selects where checking happens relative to the event source.
type Mode int

const (
	// Sync checks inside Append (for a tapped Recorder: inside the
	// engine's own operation, under the recorder mutex).
	Sync Mode = iota
	// Async checks on a drain goroutine fed by a bounded queue.
	Async
)

// String returns "sync" or "async".
func (m Mode) String() string {
	if m == Async {
		return "async"
	}
	return "sync"
}

// DropPolicy says what an Async session does when its buffer is full.
type DropPolicy int

const (
	// Block applies backpressure: Append waits for the drain goroutine.
	// Monitoring stays complete; the engine slows down.
	Block DropPolicy = iota
	// Drop discards the event and latches the session lossy: the engine
	// never waits, but from the first dropped event on the monitor can
	// no longer certify the run and says so in its verdict.
	Drop
)

// Status is the overall state of a monitoring session.
type Status int

const (
	// StatusOpaque: every checked prefix so far is opaque.
	StatusOpaque Status = iota
	// StatusViolated: a non-opaque prefix was observed; see Violation.
	StatusViolated
	// StatusLossy: at least one event was dropped (Drop policy); the
	// verdict covers only the events checked before the gap.
	StatusLossy
	// StatusError: checking failed (ill-formed event stream or an
	// exhausted search budget); see Verdict.Err.
	StatusError
)

// Worse reports whether s is a worse verdict than t, in the order
// error ≻ violated ≻ lossy ≻ opaque. A session's status only rises along
// it, and a fleet reports the worst of its members' statuses.
func (s Status) Worse(t Status) bool { return s.severity() > t.severity() }

// severity ranks s for Worse.
func (s Status) severity() int {
	switch s {
	case StatusLossy:
		return 1
	case StatusViolated:
		return 2
	case StatusError:
		return 3
	}
	return 0
}

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusOpaque:
		return "opaque"
	case StatusViolated:
		return "VIOLATED"
	case StatusLossy:
		return "lossy"
	case StatusError:
		return "error"
	default:
		return "unknown"
	}
}

// Options configures a Session. The zero value is a synchronous,
// blocking, diagnosing monitor over default register objects.
type Options struct {
	// Mode selects Sync (default) or Async checking.
	Mode Mode
	// Buffer is the Async queue capacity (default 1024). Ignored for
	// Sync.
	Buffer int
	// DropPolicy says what a full Async buffer does (default Block).
	DropPolicy DropPolicy
	// Objects supplies the object specifications, as in core.Config.
	Objects spec.Objects
	// MaxNodes bounds each prefix check, as in core.Config.
	MaxNodes int
	// TruncateAfterEvents arms automatic checkpointed truncation:
	// whenever the live suffix (events since the last checkpoint)
	// reaches TruncateAfterEvents events, the session attempts
	// core.Incremental.TryTruncate at the next quiescent point,
	// collapsing the suffix into its reachable final states so per-event
	// cost stays O(live-suffix) no matter how long the session runs.
	// Zero (the default) disables truncation — the session retains the
	// full history. A threshold that is never reached at a quiescent
	// point simply never truncates; declined attempts are free, and so
	// is an attempt whose enumeration outgrows the core's default
	// budget: it is abandoned, it does not fail the session.
	TruncateAfterEvents int
	// TruncateBarrier arms an admission barrier that makes truncation
	// effective under workloads that never quiesce on their own.
	// Truncation can only collapse the suffix at a quiescent point —
	// every transaction completed — and with several goroutines issuing
	// transactions back to back such points become combinatorially rare,
	// so the live suffix (and with it the per-event witness-replay cost)
	// grows without bound. With the barrier armed, once the events
	// admitted since the last checkpoint reach TruncateBarrier, the
	// session's AdmissionGate — wired into the recorder by Attach, so
	// it runs at Begin with no lock held — stalls the start of NEW
	// transactions until the already-open transactions complete and the
	// checker truncates at the resulting quiescent point (or declines
	// there, which also releases the stall). Events of open
	// transactions are never stalled, so that point always arrives;
	// sessions fed directly through Append are only ever bookkept,
	// never blocked.
	// The stalls are counted in Stats (BarrierStalls, BarrierWaitNanos):
	// a bounded, observable pause in exchange for bounded monitor state.
	// 0 (default) disables the barrier. A positive barrier with no
	// TruncateAfterEvents threshold arms truncation at the barrier
	// length itself.
	TruncateBarrier int
	// OnViolation, if non-nil, is called once, with the violation, when
	// the verdict flips. It must never call Close (it runs inside the
	// session's intake critical section). In Sync mode it runs on the
	// engine goroutine that issued the violating operation — and, when
	// tapped into a Recorder, under the recorder's mutex, so there it
	// must not call back into the recorder or the session at all.
	OnViolation func(Violation)
}

// Violation describes the first opacity violation a session observed.
type Violation struct {
	// PrefixLen is the length of the shortest non-opaque prefix (a
	// global event count, checkpoints included); Event is its last
	// event — the one that made the violation observable.
	PrefixLen int
	Event     history.Event
	// Prefix is an independent snapshot of the retained portion of that
	// prefix: the whole prefix for a session that never truncated, the
	// live suffix since the last checkpoint otherwise.
	Prefix history.History
	// Diagnosis names the implicated transactions (valid when Diagnosed
	// is true; diagnosis is abandoned on internal error).
	Diagnosis core.Diagnosis
	Diagnosed bool
}

// Verdict is a snapshot of a session's state: its Stats plus the
// checking error.
type Verdict struct {
	Stats
	// Err is the checking error when Status is StatusError.
	Err error
}

// Stats is a lock-free snapshot of a session's state, read entirely
// from the atomics the append and check paths maintain as they go: a
// telemetry scrape calling Stats mid-run takes no session lock and
// therefore never blocks — or is blocked by — an append, a check or a
// violation capture. Each counter is individually exact; across fields
// the snapshot is only loosely consistent while the session is running
// (exact after Close), which is the usual metrics contract.
type Stats struct {
	// Status is the verdict so far. It only rises, along the order of
	// Status.Worse.
	Status Status
	// Events counts every event offered to the session, including
	// dropped ones and events arriving after a latched verdict.
	Events int
	// Checked counts the events consumed by the incremental checker;
	// the verdict covers exactly this prefix.
	Checked int
	// Dropped counts events discarded by the Drop policy, and Lossy
	// latches whether any event was ever dropped: the two agree —
	// Dropped > 0 exactly when Lossy (and exactly when the session
	// latched StatusLossy), so telemetry can report both the fact and
	// the magnitude of the information loss.
	Dropped int
	Lossy   bool
	// PrefixLen is the shortest non-opaque prefix (StatusViolated), -1
	// otherwise.
	PrefixLen int
	// QueueDepth and QueueCap describe the Async queue: events enqueued
	// but not yet drained, and the buffer capacity (both 0 for Sync).
	QueueDepth int
	QueueCap   int
	// Nodes, FastPath, Searches and Skipped mirror
	// core.IncrementalResult: total search nodes, checks resolved by
	// witness revalidation, full searches, and response events skipped
	// by the abort rule.
	Nodes    int
	FastPath int
	Searches int
	Skipped  int
	// Checkpoints, TruncatedEvents, Roots and TruncNodes mirror the
	// checkpointed-truncation counters of core.IncrementalResult:
	// successful truncations, events collapsed behind checkpoints, the
	// current checkpoint's reachable-state count, and the enumeration
	// nodes spent on truncation attempts. LiveEvents is the live-suffix
	// length — the state the session actually holds.
	Checkpoints     int
	TruncatedEvents int
	LiveEvents      int
	Roots           int
	TruncNodes      int
	// TableStates, TableAtoms and TableMemoEntries mirror the session
	// SearchContext's counters (core.Stats.States, .Atoms,
	// .MemoEntries). TableStates and TableAtoms count what the session
	// has interned since it began; they are cumulative across the table
	// generation swaps that bound residency, so they never fall and,
	// after the first checkpoint, exceed what the session currently
	// holds. TableMemoEntries counts the failure-memo entries recorded
	// by the session's searches since it began, each search's memo
	// dropped when that search ends.
	TableStates      int
	TableAtoms       int
	TableMemoEntries int
	// TableResident is what the session's tables hold now: the state,
	// signature and transition entries plus atoms of the table
	// generation it runs on (core.Incremental.Resident). Every
	// checkpoint retires that generation, so it falls at each one and
	// stays bounded by what the live suffix interns.
	TableResident int
	// BarrierStalls counts transaction starts the TruncateBarrier
	// stalled, and BarrierWaitNanos the total time they spent waiting —
	// the admission-control cost the barrier trades for bounded state.
	BarrierStalls    int
	BarrierWaitNanos int64
}

// counters are the session's state behind Stats and Verdict, kept in
// atomics so that both read it without a lock. The append path adds to
// events and dropped, check publishes the incremental result after
// every consumed event, and raise lifts status.
type counters struct {
	status    atomic.Int32
	events    atomic.Int64
	checked   atomic.Int64
	dropped   atomic.Int64
	prefixLen atomic.Int64
	nodes     atomic.Int64
	fastPath  atomic.Int64
	searches  atomic.Int64
	skipped   atomic.Int64
	ckpts     atomic.Int64
	truncEvs  atomic.Int64
	roots     atomic.Int64
	truncNds  atomic.Int64
	tblStates atomic.Int64
	tblAtoms  atomic.Int64
	tblMemo   atomic.Int64
	tblRes    atomic.Int64
	barStalls atomic.Int64
	barWaitNs atomic.Int64
}

// Session is one online monitoring session over one growing history.
// Appends must arrive in history order (the recorder tap guarantees
// this: it runs under the recorder's mutex); Verdict, Violation,
// History, Stats and Close may be called from any goroutine at any
// time.
type Session struct {
	opts Options

	st counters

	// incMu guards the incremental checker. mu guards err and
	// violation, each set once, before the status rises to the latch it
	// explains.
	incMu sync.Mutex
	inc   *core.Incremental

	mu        sync.Mutex
	err       error
	violation *Violation

	// Async plumbing. closeMu serializes Append against Close so the
	// event channel is never written after it is closed.
	ch      chan history.Event
	done    chan struct{}
	closeMu sync.RWMutex
	closed  bool

	// Admission barrier (TruncateBarrier > 0). barMu guards the
	// appender-side view: which transactions have started but not
	// completed, and how many events were admitted since the last
	// barrier release. It is taken before closeMu — a stalled appender
	// must not hold the close lock, or Close would deadlock behind it.
	barMu      sync.Mutex
	barCond    *sync.Cond
	barOpen    map[history.TxID]struct{}
	barSince   int
	barClosing bool
}

// New starts a session. Async sessions own a drain goroutine until
// Close.
func New(opts Options) *Session {
	s := &Session{
		opts: opts,
		inc: core.NewIncremental(core.Config{
			Objects:  opts.Objects,
			MaxNodes: opts.MaxNodes,
		}),
	}
	s.st.prefixLen.Store(-1)
	if opts.TruncateBarrier > 0 {
		s.barCond = sync.NewCond(&s.barMu)
		s.barOpen = make(map[history.TxID]struct{})
	}
	if opts.Mode == Async {
		buf := opts.Buffer
		if buf <= 0 {
			buf = 1024
		}
		s.ch = make(chan history.Event, buf)
		s.done = make(chan struct{})
		go s.drain()
	}
	return s
}

// Attach starts a session fed by every event rec records, in recording
// order. It takes rec's tap, so from then on rec keeps none of the
// events (see stm.Recorder.Tap): the session's History is what remains
// of the run — all of it while the session never truncated, the live
// suffix otherwise. Detach by rec.Tap(nil); Close the session when the
// run ends.
func Attach(rec *stm.Recorder, opts Options) *Session {
	s := New(opts)
	s.Tap(rec)
	return s
}

// Tap feeds the session every event rec records from now on, in
// recording order, and arms rec with the session's admission gate, if
// it has one (see AdmissionGate). It takes rec's tap, so rec keeps none
// of the events (see stm.Recorder.Tap). The tap offers each event as
// Append does, without building a Verdict nobody reads. Detach by
// rec.Tap(nil).
func (s *Session) Tap(rec *stm.Recorder) {
	if g := s.AdmissionGate(); g != nil {
		rec.Gate(g)
	}
	rec.Tap(s.offer)
}

// Append offers one event to the session and returns a verdict
// snapshot. Sync sessions check in place; Async sessions enqueue
// (blocking or dropping per DropPolicy) and return the verdict as of
// now — possibly lagging the enqueued event. Events offered after
// Close are ignored in both modes, so a Close verdict is final.
func (s *Session) Append(ev history.Event) Verdict {
	s.offer(ev)
	return s.Verdict()
}

// offer is Append without the verdict snapshot.
func (s *Session) offer(ev history.Event) {
	s.admit(ev)
	var v *Violation
	s.closeMu.RLock()
	if !s.closed {
		s.st.events.Add(1)
		if s.opts.Mode == Async {
			s.enqueue(ev)
		} else {
			v = s.consume(ev)
		}
	}
	s.closeMu.RUnlock()
	s.notify(v)
}

// enqueue hands ev to the drain goroutine. A latched session spares the
// queue; a full queue blocks (Block) or drops ev and latches the session
// lossy (Drop).
func (s *Session) enqueue(ev history.Event) {
	if s.status() != StatusOpaque {
		return
	}
	if s.opts.DropPolicy == Block {
		s.ch <- ev
		return
	}
	select {
	case s.ch <- ev:
	default:
		s.st.dropped.Add(1)
		s.raise(StatusLossy)
	}
}

// consume checks ev unless the session has latched, so a latched Async
// session discards the rest of its queue, and returns the violation the
// check latched, if any.
func (s *Session) consume(ev history.Event) *Violation {
	s.incMu.Lock()
	defer s.incMu.Unlock()
	if s.status() != StatusOpaque {
		return nil
	}
	return s.check(ev)
}

// notify runs OnViolation for a violation consume latched, outside the
// session's locks.
func (s *Session) notify(v *Violation) {
	if v != nil && s.opts.OnViolation != nil {
		s.opts.OnViolation(*v)
	}
}

// admit maintains the barrier's appender-side bookkeeping for one
// event: which transactions are open, and how many events were admitted
// since the last release. It never blocks — stalling happens only in
// the AdmissionGate, at transaction start, where no recorder or session
// lock is held.
func (s *Session) admit(ev history.Event) {
	if s.opts.TruncateBarrier <= 0 {
		return
	}
	s.barMu.Lock()
	if _, open := s.barOpen[ev.Tx]; !open {
		s.barOpen[ev.Tx] = struct{}{}
	}
	if ev.Kind == history.KindCommit || ev.Kind == history.KindAbort {
		delete(s.barOpen, ev.Tx)
		if len(s.barOpen) == 0 {
			// The stream is quiescent at this position: wake gated
			// starters so they are not stranded once every producer is
			// waiting. Their wait condition re-checks the open set, so
			// they proceed; the checker truncates here once its
			// threshold is due.
			s.barCond.Broadcast()
		}
	}
	s.barSince++
	s.barMu.Unlock()
}

// AdmissionGate returns the barrier's admission hook, or nil when no
// TruncateBarrier is armed. Registered as an stm.Recorder Gate (Attach
// does this automatically), it runs at the start of every transaction —
// outside the recorder mutex, before any event of the transaction
// exists — and blocks while the admitted-but-untruncated stretch
// exceeds the barrier and other transactions are still open. Events of
// open transactions never pass the gate, so the quiescent point the
// gate is waiting for always arrives; a truncation attempt there (see
// check) or a latched verdict or Close releases all waiters.
func (s *Session) AdmissionGate() func() {
	if s.opts.TruncateBarrier <= 0 {
		return nil
	}
	return func() {
		s.barMu.Lock()
		if s.barSince >= s.opts.TruncateBarrier && len(s.barOpen) > 0 && s.barBlocking() {
			s.st.barStalls.Add(1)
			start := time.Now()
			for s.barSince >= s.opts.TruncateBarrier && len(s.barOpen) > 0 && s.barBlocking() {
				s.barCond.Wait()
			}
			s.st.barWaitNs.Add(time.Since(start).Nanoseconds())
		}
		s.barMu.Unlock()
	}
}

// barBlocking reports whether the barrier may stall: only while the
// session is live and still certifying. Callers hold barMu.
func (s *Session) barBlocking() bool {
	return !s.barClosing && s.status() == StatusOpaque
}

// barrierRelease wakes stalled appenders after the checker had its
// truncation chance at a quiescent point. retained is the live-suffix
// length that survived; the queue backlog (admitted, not yet drained)
// is added back so the barrier re-arms at an honest suffix estimate.
func (s *Session) barrierRelease(retained int) {
	if s.opts.TruncateBarrier <= 0 {
		return
	}
	s.barMu.Lock()
	s.barSince = retained
	if s.ch != nil {
		s.barSince += len(s.ch)
	}
	s.barCond.Broadcast()
	s.barMu.Unlock()
}

// barrierWake releases all waiters unconditionally (latch or Close):
// their wait condition consults the latched status and barClosing.
func (s *Session) barrierWake() {
	if s.opts.TruncateBarrier <= 0 {
		return
	}
	s.barMu.Lock()
	s.barCond.Broadcast()
	s.barMu.Unlock()
}

// drain is the Async checking goroutine.
func (s *Session) drain() {
	defer close(s.done)
	for ev := range s.ch {
		s.notify(s.consume(ev))
	}
}

// check feeds one event to the incremental checker and publishes the
// outcome, latching an error or a violation. Callers hold incMu (but
// not mu).
func (s *Session) check(ev history.Event) *Violation {
	res, err := s.inc.Append(ev)
	if err == nil && res.Opaque && s.truncateDue() {
		// Auto-truncation: TryTruncate declines for free when the suffix
		// is not quiescent or too expensive to collapse; only internal
		// inconsistencies surface as errors (and latch, like any checking
		// error). A successful truncation — or a decline at a quiescent
		// point, which was the barrier's best shot — releases any
		// appenders stalled on the admission barrier.
		ok, terr := s.inc.TryTruncate(0)
		if terr != nil {
			err = terr
		} else if ok || s.inc.Stable() {
			s.barrierRelease(s.inc.LiveLen())
		}
		res = s.inc.Result()
	}
	var v *Violation
	if err == nil && !res.Opaque {
		suffix := s.inc.History().Clone()
		v = &Violation{
			PrefixLen: res.PrefixLen,
			Event:     suffix[len(suffix)-1],
			Prefix:    suffix,
		}
		// The checkpoint-aware diagnosis judges the retained suffix from
		// the checkpoint roots (the whole history, from the configured
		// initial state, when the session never truncated), sharing the
		// monitoring SearchContext so the per-removed-transaction
		// re-checks reuse everything interned so far.
		d, derr := s.inc.Diagnose()
		if derr == nil {
			v.Diagnosis = d
			v.Diagnosed = true
		}
	}
	// Mirror the incremental result and the search-table residency into
	// the lock-free Stats counters. ContextStats follows the context's
	// single-goroutine rules — callers of check hold incMu, the same
	// exclusion the checking itself runs under.
	cs := s.inc.ContextStats()
	s.st.checked.Store(int64(res.Events))
	s.st.prefixLen.Store(int64(res.PrefixLen))
	s.st.nodes.Store(int64(res.Nodes))
	s.st.fastPath.Store(int64(res.FastPath))
	s.st.searches.Store(int64(res.Searches))
	s.st.skipped.Store(int64(res.Skipped))
	s.st.ckpts.Store(int64(res.Checkpoints))
	s.st.truncEvs.Store(int64(res.TruncatedEvents))
	s.st.roots.Store(int64(res.Roots))
	s.st.truncNds.Store(int64(res.TruncNodes))
	s.st.tblStates.Store(int64(cs.States))
	s.st.tblAtoms.Store(int64(cs.Atoms))
	s.st.tblMemo.Store(int64(cs.MemoEntries))
	s.st.tblRes.Store(int64(s.inc.Resident()))
	switch {
	case err != nil:
		s.mu.Lock()
		s.err = err
		s.mu.Unlock()
		s.raise(StatusError)
	case v != nil:
		s.mu.Lock()
		s.violation = v
		s.mu.Unlock()
		s.raise(StatusViolated)
	}
	return v
}

// status returns the session's current status.
func (s *Session) status() Status { return Status(s.st.status.Load()) }

// raise lifts the session's status to t unless it already is t or worse,
// and then wakes the barrier's waiters, whose wait condition consults
// the status. A check in flight when an event drops finishes after the
// session latched lossy, so its violation or error still rises above
// it.
func (s *Session) raise(t Status) {
	for {
		cur := s.status()
		if !t.Worse(cur) {
			return
		}
		if s.st.status.CompareAndSwap(int32(cur), int32(t)) {
			s.barrierWake()
			return
		}
	}
}

// truncateDue reports whether the live suffix has outgrown the
// configured truncation thresholds. A barrier with no explicit
// threshold arms truncation at the barrier length, so stalled
// appenders always have a truncation attempt to wait for. Callers
// hold incMu.
func (s *Session) truncateDue() bool {
	ae, b := s.opts.TruncateAfterEvents, s.opts.TruncateBarrier
	return (ae > 0 && s.inc.LiveLen() >= ae) || (b > 0 && s.inc.LiveLen() >= b)
}

// Verdict returns the session's Stats plus its checking error. It takes
// a lock only to read the error, which is stored before the status rises
// to StatusError. For Async sessions it may lag events still in the
// queue; Close first for a final word.
func (s *Session) Verdict() Verdict {
	v := Verdict{Stats: s.Stats()}
	if v.Status == StatusError {
		s.mu.Lock()
		v.Err = s.err
		s.mu.Unlock()
	}
	return v
}

// Stats returns a lock-free snapshot of the session's counters, read
// entirely from atomics, so a telemetry scraper can call it at any rate
// without perturbing the append path or waiting out an in-flight check.
// See the Stats type for the consistency contract. Checked is loaded
// before Events, which counts an event before it is checked, and Status
// before PrefixLen, which check publishes before the status rises.
func (s *Session) Stats() Stats {
	dropped := int(s.st.dropped.Load())
	checked := int(s.st.checked.Load())
	truncEvs := int(s.st.truncEvs.Load())
	st := Stats{
		Status:           s.status(),
		Events:           int(s.st.events.Load()),
		Checked:          checked,
		Dropped:          dropped,
		Lossy:            dropped > 0,
		PrefixLen:        int(s.st.prefixLen.Load()),
		Nodes:            int(s.st.nodes.Load()),
		FastPath:         int(s.st.fastPath.Load()),
		Searches:         int(s.st.searches.Load()),
		Skipped:          int(s.st.skipped.Load()),
		Checkpoints:      int(s.st.ckpts.Load()),
		TruncatedEvents:  truncEvs,
		LiveEvents:       checked - truncEvs,
		Roots:            int(s.st.roots.Load()),
		TruncNodes:       int(s.st.truncNds.Load()),
		TableStates:      int(s.st.tblStates.Load()),
		TableAtoms:       int(s.st.tblAtoms.Load()),
		TableMemoEntries: int(s.st.tblMemo.Load()),
		TableResident:    int(s.st.tblRes.Load()),
		BarrierStalls:    int(s.st.barStalls.Load()),
		BarrierWaitNanos: s.st.barWaitNs.Load(),
	}
	if s.opts.Mode == Async {
		st.QueueDepth = len(s.ch)
		st.QueueCap = cap(s.ch)
	}
	return st
}

// Violation returns the recorded violation, or nil. The returned value
// is shared; treat it as read-only.
func (s *Session) Violation() *Violation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.violation
}

// History returns a snapshot of the retained history: everything checked
// so far for a session that never truncated, the live suffix since the
// last checkpoint otherwise.
func (s *Session) History() history.History {
	s.incMu.Lock()
	defer s.incMu.Unlock()
	return s.inc.History().Clone()
}

// Close stops the session's intake — waiting for any in-flight Sync
// check, and for an Async drain to finish its queue — and returns the
// final verdict: events offered afterwards are ignored, so the verdict
// cannot change once Close has returned. Close is idempotent. Do not
// call it from an OnViolation callback (the callback runs inside
// Append's critical section).
func (s *Session) Close() Verdict {
	if s.opts.TruncateBarrier > 0 {
		s.barMu.Lock()
		s.barClosing = true
		s.barCond.Broadcast()
		s.barMu.Unlock()
	}
	s.closeMu.Lock()
	first := !s.closed
	s.closed = true
	if first && s.opts.Mode == Async {
		close(s.ch)
	}
	s.closeMu.Unlock()
	if s.opts.Mode == Async {
		<-s.done
	}
	return s.Verdict()
}
