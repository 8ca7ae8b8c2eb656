// Package controlplane scales online opacity monitoring from one
// session to a fleet: one monitor.Session per STM instance (or shard),
// aggregated into a single live fleet verdict with first-violation
// latching, exported metrics, and replayable violation capture.
//
// A Fleet owns its member sessions. Each member wraps one
// monitor.Session — fed by a recorder tap (Attach) or directly
// (Member.Append) — and the fleet aggregates their lock-free Stats
// snapshots into a fleet Status: worst-of member status, summed
// throughput counters, events/s and heap residency. The aggregation
// never takes a session lock, so scraping a live fleet perturbs the
// monitored engines only by a handful of atomic loads per member.
//
// On a member's first violation the fleet:
//
//  1. captures a replayable timeline artifact — the offending prefix in
//     the internal/history textual format plus the diagnosis culprit
//     set — through internal/storage (atomic commit-on-close, so a
//     crash mid-capture leaves no partial artifact), closing the loop
//     between the online monitor and the offline checker: `opacheck
//     -replay` re-derives the same verdict from the artifact alone;
//  2. latches the fleet-level first violation (later violations are
//     counted and captured, but First stays first);
//  3. under StopAll, asynchronously closes every other member — the
//     fleet-wide analogue of a session's own first-violation stop.
//
// Telemetry is a telemetry.Registry of per-session and fleet-level
// metrics; Handler serves it at /metrics (Prometheus text, or JSON via
// ?format=json) alongside /status (the aggregated fleet Status as
// JSON).
package controlplane

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"otm/internal/history"
	"otm/internal/monitor"
	"otm/internal/stm"
	"otm/internal/storage"
	"otm/internal/telemetry"
)

// StopPolicy says what the fleet does with the other members when one
// member observes a violation.
type StopPolicy int

const (
	// StopOne stops only the violating session (which latches by
	// itself); the rest of the fleet keeps monitoring. The fleet status
	// still latches the violation.
	StopOne StopPolicy = iota
	// StopAll additionally closes every other member, asynchronously —
	// one bad shard halts monitoring fleet-wide. Closing waits for each
	// member's queue to drain, so already-offered events still get
	// their verdicts.
	StopAll
)

// String returns "stop-one" or "stop-all".
func (p StopPolicy) String() string {
	if p == StopAll {
		return "stop-all"
	}
	return "stop-one"
}

// Options configures a Fleet.
type Options struct {
	// Monitor is the per-member session template. Its OnViolation is
	// wrapped, not replaced: the fleet's capture-and-latch runs first,
	// then the template callback (with the same caveats as
	// monitor.Options.OnViolation).
	Monitor monitor.Options
	// Stop selects the fleet-wide violation policy (default StopOne).
	Stop StopPolicy
	// ArtifactsURI is the storage location violation artifacts are
	// written to (file:///dir, mem://store, or a plain path); empty
	// disables capture. ArtifactsFS overrides it with an already-open
	// FS.
	ArtifactsURI string
	ArtifactsFS  storage.FS
	// OnViolation, if non-nil, is called once per violating member,
	// after the artifact capture and fleet latch. It runs where the
	// member session's own OnViolation would (inside the append
	// critical section — see monitor.Options) and must not call back
	// into the fleet or its sessions.
	OnViolation func(session string, v ViolationRecord)
}

// ViolationRecord is the fleet's account of one member violation.
type ViolationRecord struct {
	// Session names the violating member; Seq is the fleet-wide
	// violation sequence number (0 for the first).
	Session string `json:"session"`
	Seq     int    `json:"seq"`
	// PrefixLen and Event locate the violation as in monitor.Violation.
	PrefixLen int    `json:"prefix_len"`
	Event     string `json:"event"`
	// Culprits is the diagnosed culprit set, rendered "T<n>".
	Culprits  []string `json:"culprits,omitempty"`
	Diagnosed bool     `json:"diagnosed"`
	// Artifact is the storage object name the capture committed to
	// ("" when capture is disabled), and CaptureErr the capture failure
	// if one occurred — capture failures never mask the violation
	// itself.
	Artifact   string `json:"artifact,omitempty"`
	CaptureErr string `json:"capture_err,omitempty"`
}

// SessionStatus is one member's slice of the fleet status.
type SessionStatus struct {
	Name string `json:"name"`
	monitor.Stats
}

// Status is the aggregated fleet verdict and throughput snapshot.
type Status struct {
	// Sessions is the member count; Fleet is the worst-of aggregate of
	// the member statuses (error ≻ violated ≻ lossy ≻ opaque).
	Sessions int            `json:"sessions"`
	Fleet    monitor.Status `json:"-"`
	// FleetStatus is Fleet rendered for JSON.
	FleetStatus string `json:"fleet_status"`
	// Summed member counters (see monitor.Stats).
	Events      int `json:"events"`
	Checked     int `json:"checked"`
	Dropped     int `json:"dropped"`
	QueueDepth  int `json:"queue_depth"`
	Nodes       int `json:"nodes"`
	FastPath    int `json:"fast_path"`
	Searches    int `json:"searches"`
	Skipped     int `json:"skipped"`
	Checkpoints int `json:"checkpoints"`
	LiveEvents  int `json:"live_events"`
	// Violations counts violating members so far; First is the latched
	// first violation (nil while the fleet is clean).
	Violations int              `json:"violations"`
	First      *ViolationRecord `json:"first,omitempty"`
	// UptimeSecs is the fleet age, EventsPerSec the fleet-wide offered
	// event rate over that age, and HeapBytes the process heap
	// residency at snapshot time.
	UptimeSecs   float64 `json:"uptime_secs"`
	EventsPerSec float64 `json:"events_per_sec"`
	HeapBytes    uint64  `json:"heap_bytes"`
	// PerSession carries each member's own snapshot.
	PerSession []SessionStatus `json:"per_session"`
}

// Fleet runs and aggregates a set of monitoring sessions. Create with
// New, add members with Add or Attach, and Close when the run ends.
// All methods are safe for concurrent use.
type Fleet struct {
	opts  Options
	reg   *telemetry.Registry
	store storage.FS
	start time.Time

	mu      sync.Mutex
	members []*Member
	byName  map[string]*Member
	closed  bool

	violations atomic.Int64
	firstMu    sync.Mutex
	first      *ViolationRecord

	wg sync.WaitGroup // StopAll closers
}

// Member is one fleet session.
type Member struct {
	name  string
	fleet *Fleet
	sess  *monitor.Session
}

// New creates an empty fleet and registers its fleet-level metrics.
func New(opts Options) (*Fleet, error) {
	f := &Fleet{
		opts:   opts,
		reg:    telemetry.NewRegistry(),
		store:  opts.ArtifactsFS,
		start:  time.Now(),
		byName: make(map[string]*Member),
	}
	if f.store == nil && opts.ArtifactsURI != "" {
		fsys, err := storage.Resolve(opts.ArtifactsURI)
		if err != nil {
			return nil, fmt.Errorf("controlplane: artifacts: %w", err)
		}
		f.store = fsys
	}
	f.reg.GaugeFunc("otm_fleet_sessions", "fleet member count",
		func() float64 { f.mu.Lock(); defer f.mu.Unlock(); return float64(len(f.members)) })
	f.reg.GaugeFunc("otm_fleet_status", "aggregate fleet status (0 opaque, 1 violated, 2 lossy, 3 error)",
		func() float64 { return float64(f.aggregateStatus()) })
	f.reg.CounterFunc("otm_fleet_violations_total", "members that observed a violation",
		f.violations.Load)
	f.reg.CounterFunc("otm_fleet_events_total", "events offered across the fleet",
		func() int64 { return f.sum(func(s monitor.Stats) int { return s.Events }) })
	f.reg.GaugeFunc("otm_fleet_events_per_second", "fleet-wide offered event rate since start",
		func() float64 {
			secs := time.Since(f.start).Seconds()
			if secs <= 0 {
				return 0
			}
			return float64(f.sum(func(s monitor.Stats) int { return s.Events })) / secs
		})
	f.reg.GaugeFunc("otm_fleet_uptime_seconds", "seconds since the fleet started",
		func() float64 { return time.Since(f.start).Seconds() })
	f.reg.GaugeFunc("otm_process_heap_bytes", "process heap residency (runtime.MemStats.HeapAlloc)",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	return f, nil
}

// Registry returns the fleet's metrics registry.
func (f *Fleet) Registry() *telemetry.Registry { return f.reg }

// sum folds one Stats field across the members.
func (f *Fleet) sum(field func(monitor.Stats) int) int64 {
	f.mu.Lock()
	members := f.members
	f.mu.Unlock()
	var total int64
	for _, m := range members {
		total += int64(field(m.sess.Stats()))
	}
	return total
}

// Add creates a member session named name from the fleet's session
// template. Names must be unique within the fleet; adding to a closed
// fleet is an error.
func (f *Fleet) Add(name string) (*Member, error) {
	return f.AddWith(name, f.opts.Monitor)
}

// AddWith creates a member with per-member session options (the
// violation plumbing is wired on top of them, as with the template).
func (f *Fleet) AddWith(name string, mopts monitor.Options) (*Member, error) {
	if name == "" {
		return nil, fmt.Errorf("controlplane: member name must be nonempty")
	}
	m := &Member{name: name, fleet: f}
	userCb := mopts.OnViolation
	mopts.OnViolation = func(v monitor.Violation) {
		f.noteViolation(m, v)
		if userCb != nil {
			userCb(v)
		}
	}

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, fmt.Errorf("controlplane: fleet is closed")
	}
	if _, dup := f.byName[name]; dup {
		f.mu.Unlock()
		return nil, fmt.Errorf("controlplane: duplicate member %q", name)
	}
	// Register inside the lock so a racing duplicate Add cannot reach
	// the registry (which would panic) before the name check lands.
	f.byName[name] = m
	f.members = append(f.members, m)
	f.mu.Unlock()

	m.sess = monitor.New(mopts)
	f.registerMemberMetrics(m)
	return m, nil
}

// Attach adds a member fed by every event rec records, in recording
// order — the fleet-scale analogue of monitor.Attach. It takes rec's
// tap, so rec keeps none of the events from then on; the member
// session's History holds what the monitor retains.
func (f *Fleet) Attach(name string, rec *stm.Recorder) (*Member, error) {
	return f.AttachWith(name, rec, f.opts.Monitor)
}

// AttachWith is Attach with per-member session options.
func (f *Fleet) AttachWith(name string, rec *stm.Recorder, mopts monitor.Options) (*Member, error) {
	m, err := f.AddWith(name, mopts)
	if err != nil {
		return nil, err
	}
	m.sess.Tap(rec)
	return m, nil
}

// registerMemberMetrics exports the member's lock-free Stats as labeled
// samples. Every read goes through Stats(), so a scrape never touches
// session locks.
func (f *Fleet) registerMemberMetrics(m *Member) {
	l := telemetry.L("session", m.name)
	stats := m.sess.Stats
	counter := func(name, help string, field func(monitor.Stats) int) {
		f.reg.CounterFunc(name, help, func() int64 { return int64(field(stats())) }, l)
	}
	gauge := func(name, help string, field func(monitor.Stats) int) {
		f.reg.GaugeFunc(name, help, func() float64 { return float64(field(stats())) }, l)
	}
	counter("otm_monitor_events_total", "events offered to the session", func(s monitor.Stats) int { return s.Events })
	counter("otm_monitor_checked_total", "events consumed by the incremental checker", func(s monitor.Stats) int { return s.Checked })
	counter("otm_monitor_dropped_total", "events discarded by the lossy policy", func(s monitor.Stats) int { return s.Dropped })
	counter("otm_monitor_skipped_total", "response events skipped by the abort rule", func(s monitor.Stats) int { return s.Skipped })
	counter("otm_monitor_search_nodes_total", "search nodes explored", func(s monitor.Stats) int { return s.Nodes })
	counter("otm_monitor_fastpath_total", "checks resolved by witness revalidation", func(s monitor.Stats) int { return s.FastPath })
	counter("otm_monitor_searches_total", "checks that ran a full search", func(s monitor.Stats) int { return s.Searches })
	counter("otm_monitor_checkpoints_total", "successful truncation checkpoints", func(s monitor.Stats) int { return s.Checkpoints })
	counter("otm_monitor_truncated_events_total", "events collapsed behind checkpoints", func(s monitor.Stats) int { return s.TruncatedEvents })
	counter("otm_monitor_trunc_nodes_total", "enumeration nodes spent on truncation attempts", func(s monitor.Stats) int { return s.TruncNodes })
	counter("otm_monitor_barrier_stalls_total", "transaction starts stalled by the truncation barrier", func(s monitor.Stats) int { return s.BarrierStalls })
	f.reg.CounterFunc("otm_monitor_barrier_wait_nanoseconds_total", "total time transaction starts waited on the truncation barrier",
		func() int64 { return stats().BarrierWaitNanos }, l)
	gauge("otm_monitor_status", "session status (0 opaque, 1 violated, 2 lossy, 3 error)", func(s monitor.Stats) int { return int(s.Status) })
	gauge("otm_monitor_queue_depth", "async queue occupancy", func(s monitor.Stats) int { return s.QueueDepth })
	gauge("otm_monitor_live_events", "live-suffix length (events since the last checkpoint)", func(s monitor.Stats) int { return s.LiveEvents })
	gauge("otm_monitor_roots", "reachable-state roots of the current checkpoint", func(s monitor.Stats) int { return s.Roots })
	gauge("otm_monitor_table_states", "state vectors interned since the session began", func(s monitor.Stats) int { return s.TableStates })
	gauge("otm_monitor_table_resident", "entries the session's search tables hold now: states, signatures, transitions and atoms of the current table generation, retired at every checkpoint", func(s monitor.Stats) int { return s.TableResident })
	gauge("otm_monitor_table_memo_entries", "failure-memo entries recorded by the session's searches since it began, each search's memo dropped when that search ends", func(s monitor.Stats) int { return s.TableMemoEntries })
}

// Name returns the member's fleet-unique name.
func (m *Member) Name() string { return m.name }

// Session returns the underlying monitoring session.
func (m *Member) Session() *monitor.Session { return m.sess }

// Append offers one event to the member's session.
func (m *Member) Append(ev history.Event) monitor.Verdict { return m.sess.Append(ev) }

// Stats returns the member session's lock-free counters.
func (m *Member) Stats() monitor.Stats { return m.sess.Stats() }

// Verdict returns the member session's verdict snapshot.
func (m *Member) Verdict() monitor.Verdict { return m.sess.Verdict() }

// Close closes the member's session and returns its final verdict. The
// member stays in the fleet (its final counters keep contributing to
// status and metrics).
func (m *Member) Close() monitor.Verdict { return m.sess.Close() }

// noteViolation is the fleet half of a member violation: capture the
// artifact, latch the fleet first-violation, count, notify, and apply
// the stop policy. It runs inside the member session's append critical
// section (see monitor.Options.OnViolation), so everything here must
// avoid the fleet's sessions — StopAll defers its closes to a
// goroutine.
func (f *Fleet) noteViolation(m *Member, v monitor.Violation) {
	seq := int(f.violations.Add(1)) - 1
	rec := ViolationRecord{
		Session:   m.name,
		Seq:       seq,
		PrefixLen: v.PrefixLen,
		Event:     v.Event.String(),
		Diagnosed: v.Diagnosed,
	}
	if v.Diagnosed {
		for _, tx := range v.Diagnosis.Implicated {
			rec.Culprits = append(rec.Culprits, fmt.Sprintf("T%d", int(tx)))
		}
	}
	if f.store != nil {
		name, err := f.capture(m.name, seq, v)
		rec.Artifact = name
		if err != nil {
			rec.CaptureErr = err.Error()
		}
	}
	f.firstMu.Lock()
	if f.first == nil {
		first := rec
		f.first = &first
	}
	f.firstMu.Unlock()
	if f.opts.OnViolation != nil {
		f.opts.OnViolation(m.name, rec)
	}
	if f.opts.Stop == StopAll {
		f.mu.Lock()
		others := make([]*Member, 0, len(f.members))
		for _, o := range f.members {
			if o != m {
				others = append(others, o)
			}
		}
		f.mu.Unlock()
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for _, o := range others {
				o.sess.Close()
			}
		}()
	}
}

// capture writes the violation artifact through the fleet's store. The
// object name is violations/NNN-<session>.hist; commit-on-close means a
// reader can never observe a half-written artifact.
func (f *Fleet) capture(session string, seq int, v monitor.Violation) (string, error) {
	name := fmt.Sprintf("violations/%03d-%s.hist", seq, session)
	w, err := f.store.Create(name)
	if err != nil {
		return "", err
	}
	if _, err := w.Write(NewArtifact(session, v).Encode()); err != nil {
		w.Abort()
		return "", err
	}
	if err := w.Close(); err != nil {
		return "", err
	}
	return name, nil
}

// aggregateStatus folds the member statuses into the worst of them (see
// monitor.Status.Worse).
func (f *Fleet) aggregateStatus() monitor.Status {
	f.mu.Lock()
	members := f.members
	f.mu.Unlock()
	agg := monitor.StatusOpaque
	for _, m := range members {
		if s := m.sess.Stats().Status; s.Worse(agg) {
			agg = s
		}
	}
	return agg
}

// Status aggregates the fleet: worst-of status, summed counters, rates
// and per-member snapshots. Like the member Stats it reads, the
// snapshot is loosely consistent while the fleet is live and exact
// after Close.
func (f *Fleet) Status() Status {
	f.mu.Lock()
	members := make([]*Member, len(f.members))
	copy(members, f.members)
	f.mu.Unlock()

	st := Status{
		Sessions:   len(members),
		Violations: int(f.violations.Load()),
		UptimeSecs: time.Since(f.start).Seconds(),
	}
	agg := monitor.StatusOpaque
	for _, m := range members {
		s := m.sess.Stats()
		st.PerSession = append(st.PerSession, SessionStatus{Name: m.name, Stats: s})
		st.Events += s.Events
		st.Checked += s.Checked
		st.Dropped += s.Dropped
		st.QueueDepth += s.QueueDepth
		st.Nodes += s.Nodes
		st.FastPath += s.FastPath
		st.Searches += s.Searches
		st.Skipped += s.Skipped
		st.Checkpoints += s.Checkpoints
		st.LiveEvents += s.LiveEvents
		if s.Status.Worse(agg) {
			agg = s.Status
		}
	}
	st.Fleet = agg
	st.FleetStatus = agg.String()
	if st.UptimeSecs > 0 {
		st.EventsPerSec = float64(st.Events) / st.UptimeSecs
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.HeapBytes = ms.HeapAlloc

	f.firstMu.Lock()
	if f.first != nil {
		first := *f.first
		st.First = &first
	}
	f.firstMu.Unlock()
	return st
}

// Close closes every member session (waiting for async drains), waits
// for any in-flight StopAll closer, and returns the final aggregated
// status. Close is idempotent; members added afterwards are rejected.
func (f *Fleet) Close() Status {
	f.mu.Lock()
	f.closed = true
	members := make([]*Member, len(f.members))
	copy(members, f.members)
	f.mu.Unlock()
	for _, m := range members {
		m.sess.Close()
	}
	f.wg.Wait()
	return f.Status()
}

// Handler serves the fleet over HTTP:
//
//	/metrics  Prometheus text format (JSON with ?format=json)
//	/status   the aggregated fleet Status as JSON
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", f.reg.Handler())
	mux.HandleFunc("/status", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(f.Status())
	})
	return mux
}
