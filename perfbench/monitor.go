package main

// The monitor workload: the `otmd monitor` shard shape driven by one
// goroutine. A seeded script runs on tl2 behind stm.Recorder, tapped
// into a Sync controlplane.Fleet member with checkpointed truncation,
// and /metrics is rendered in-process at a fixed cadence.

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"otm/internal/controlplane"
	"otm/internal/history"
	"otm/internal/interleave"
	"otm/internal/monitor"
	"otm/internal/stm"
	"otm/internal/stm/gatm"
	"otm/internal/stm/tl2"
)

const (
	// truncateAfter is the session's TruncateAfterEvents, otmd's default.
	truncateAfter = 128
	// admitWindow is how many events may pass since the last quiescent
	// point before the script's goroutine stops admitting transactions
	// and lets the open ones finish. It does by hand what otmd's
	// TruncateBarrier (4×truncateAfter) does; the barrier itself would
	// stall the only goroutine.
	admitWindow = 4 * truncateAfter
	// scrapeEvery is the scrape cadence, in operations.
	scrapeEvery = 1024
)

// monitorWork is the monitor workload's prepared input.
type monitorWork struct {
	script *script
	// zombie runs the script on gatm after the §2 zombie schedule: a
	// deliberate violation for the self-tests.
	zombie bool
}

// monitorCounts are the exact work counts of one pass.
type monitorCounts struct {
	ops, txs, commits, aborts        int
	events, checked, nodes, fastPath int
	searches, skipped, checkpoints   int
	truncNodes, truncatedEvents      int
	liveMax, tableStates             int
	tableMemoEntries                 int
}

func (c monitorCounts) String() string {
	return fmt.Sprintf("ops=%d txs=%d commits=%d aborts=%d events=%d checked=%d nodes=%d fast_path=%d searches=%d skipped=%d checkpoints=%d trunc_nodes=%d truncated_events=%d live_max=%d table_states=%d table_memo_entries=%d",
		c.ops, c.txs, c.commits, c.aborts, c.events, c.checked, c.nodes, c.fastPath, c.searches, c.skipped, c.checkpoints, c.truncNodes, c.truncatedEvents, c.liveMax, c.tableStates, c.tableMemoEntries)
}

// agePoint samples the session's table residency at one scrape.
type agePoint struct {
	events, states, memo int
}

// monitorPass is the outcome of one pass over the script.
type monitorPass struct {
	wall    time.Duration // the operation loop, scrapes included
	cpu     time.Duration // process CPU time over the same interval
	latency []int64       // per operation call (ns), in script order
	// scrapeBytes is the size of the last /metrics page.
	scrapeBytes int
	counts      monitorCounts
	curve       []agePoint
	// failed counts operations whose events the session did not
	// certify opaque.
	failed int64
	status monitor.Status
	// nextReq is the first request id the pass left unused.
	nextReq int32
}

// pass runs the first txs transactions of the script on a fresh engine,
// recorder, fleet and session. With tr set it records each operation as
// a request (reqBase upward) with its Member.Append calls as children,
// and each scrape as a request of its own. lap, if set, is called after
// each operation and scrape.
func (m *monitorWork) pass(txs int, tr *tracer, reqBase int32, lap func()) (*monitorPass, error) {
	fleet, err := controlplane.New(controlplane.Options{
		Monitor: monitor.Options{Mode: monitor.Sync, TruncateAfterEvents: truncateAfter},
	})
	if err != nil {
		return nil, err
	}
	member, err := fleet.Add("shard-0")
	if err != nil {
		return nil, err
	}
	var tm stm.TM = tl2.New(monitorObjs)
	if m.zombie {
		tm = gatm.New(monitorObjs)
	}
	rec := stm.NewRecorder(tm)
	p := &monitorPass{}
	c := &p.counts
	events, sinceQuiet := 0, 0
	req := reqBase
	inOp := false // whether the tapped event belongs to a traced operation
	// Tap wiring as in Fleet.AttachWith, with the append observed.
	rec.Tap(func(ev history.Event) {
		events++
		sinceQuiet++
		if !inOp {
			c.liveMax = max(c.liveMax, member.Append(ev).LiveEvents)
			return
		}
		t0 := tr.now()
		v := member.Append(ev)
		tr.add(span{kind: spanAppend, parent: spanOp, req: req, start: t0, end: tr.now()})
		c.liveMax = max(c.liveMax, v.LiveEvents)
	})
	if m.zombie {
		interleave.Run(rec, interleave.ZombieSchedule())
	}
	handler := fleet.Handler()
	opEnd := make([]int, 0, txs*(monitorOpsPerTx+1))

	type slot struct {
		ops  []scriptOp
		tx   stm.Tx
		pos  int
		open bool
	}
	var slots [monitorSlots]slot
	openIdx := make([]int, 0, monitorSlots)
	rng := rand.New(rand.NewSource(m.script.pickSeed))
	next := 0
	start, cpu0 := time.Now(), cpuTime()
	for {
		quiet := true
		for i := range slots {
			quiet = quiet && !slots[i].open
		}
		if quiet {
			sinceQuiet = 0 // quiescent point: admission resumes
		}
		if sinceQuiet < admitWindow {
			for i := range slots {
				if !slots[i].open && next < txs {
					slots[i] = slot{ops: m.script.txs[next], open: true}
					next++
					c.txs++
				}
			}
		}
		openIdx = openIdx[:0]
		for i := range slots {
			if slots[i].open {
				openIdx = append(openIdx, i)
			}
		}
		if len(openIdx) == 0 {
			break
		}
		sl := &slots[openIdx[rng.Intn(len(openIdx))]]
		if sl.tx == nil {
			sl.tx = rec.Begin()
		}
		inOp = tr != nil
		start := time.Now()
		var err error
		commit := sl.pos == len(sl.ops)
		switch {
		case commit:
			err = sl.tx.Commit()
		case sl.ops[sl.pos].read:
			_, err = sl.tx.Read(sl.ops[sl.pos].obj)
		default:
			err = sl.tx.Write(sl.ops[sl.pos].obj, sl.ops[sl.pos].val)
		}
		end := time.Now()
		inOp = false
		p.latency = append(p.latency, int64(end.Sub(start)))
		if tr != nil {
			tr.add(span{kind: spanOp, parent: spanNone, req: req, start: tr.at(start), end: tr.at(end)})
		}
		req++
		c.ops++
		opEnd = append(opEnd, events)
		switch {
		case errors.Is(err, stm.ErrAborted):
			c.aborts++
			sl.tx, sl.pos = nil, 0 // retry the transaction from its first op
		case err != nil:
			return nil, fmt.Errorf("monitor script: %w", err)
		case commit:
			c.commits++
			sl.open = false
		default:
			sl.pos++
		}
		if c.ops%scrapeEvery == 0 {
			if err := m.scrape(handler, member, p, tr, req); err != nil {
				return nil, err
			}
			req++
		}
		if lap != nil {
			lap()
		}
	}
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
	p.nextReq = req

	fleet.Close()
	v := member.Verdict()
	p.status = v.Status
	c.events, c.checked, c.nodes, c.fastPath = v.Events, v.Checked, v.Nodes, v.FastPath
	c.searches, c.skipped, c.checkpoints = v.Searches, v.Skipped, v.Checkpoints
	c.truncNodes, c.truncatedEvents = v.TruncNodes, v.TruncatedEvents
	st := member.Stats()
	c.tableStates, c.tableMemoEntries = st.TableStates, st.TableMemoEntries

	// Only an opaque, lossless, fully checked session certifies events;
	// a violated one certifies the prefix before the violation.
	certified := 0
	switch {
	case v.Status == monitor.StatusOpaque && v.Dropped == 0 && v.Checked == v.Events && v.Events == events:
		certified = v.Checked
	case v.Status == monitor.StatusViolated:
		certified = v.PrefixLen - 1
	}
	for _, end := range opEnd {
		if end > certified {
			p.failed++
		}
	}
	return p, nil
}

// scrape renders /metrics through the fleet's handler, as a scraper
// would, and samples the session's table residency.
func (m *monitorWork) scrape(h http.Handler, member *controlplane.Member, p *monitorPass, tr *tracer, req int32) error {
	var t0 int64
	if tr != nil {
		t0 = tr.now()
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if tr != nil {
		tr.add(span{kind: spanScrape, parent: spanNone, req: req, start: t0, end: tr.now()})
	}
	if w.Code != http.StatusOK || w.Body.Len() == 0 {
		return fmt.Errorf("scrape: status %d, %d bytes", w.Code, w.Body.Len())
	}
	p.scrapeBytes = w.Body.Len()
	st := member.Stats()
	p.curve = append(p.curve, agePoint{events: st.Events, states: st.TableStates, memo: st.TableMemoEntries})
	return nil
}

// monitorPhase aggregates the passes of one timed phase.
type monitorPhase struct {
	passes   int
	requests int64
	failed   int64
	passSeries
	first   *monitorPass
	nextReq int32
	rt      runtimeUse
}

// timed adds whole-script passes to ph until seconds have elapsed (at
// least one pass). Every pass must repeat the phase's first pass's
// counts exactly; a pass that does not counts all its operations as
// failed.
func (m *monitorWork) timed(ph *monitorPhase, seconds float64, tr *tracer) error {
	before := sampleRuntime()
	begin := time.Now()
	for n := 0; n == 0 || time.Since(begin).Seconds() < seconds; n++ {
		p, err := m.pass(len(m.script.txs), tr, ph.nextReq, nil)
		if err != nil {
			return err
		}
		ph.nextReq = p.nextReq
		ph.passes++
		ph.requests += int64(p.counts.ops)
		ph.failed += p.failed
		ph.add(p.wall, p.cpu, p.latency)
		if ph.first == nil {
			ph.first = p
		} else if p.counts != ph.first.counts {
			ph.failed += int64(p.counts.ops) - p.failed
		}
		ph.rt.noteHeap()
	}
	ph.rt.add(before, sampleRuntime())
	return nil
}
