package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"otm/internal/history"
	"otm/internal/monitor"
)

// soakConfig parameterizes a -soak run: a long synthetic monitored
// session that reports the monitor's per-event latency and retained
// state over time. The workload is bursts of concurrent committed
// transactions — every burst boundary is a quiescent point, so an armed
// truncation policy gets a checkpoint opportunity each burst, while
// within a burst the transactions genuinely overlap.
type soakConfig struct {
	events     int // total events to stream (approximate: whole bursts)
	window     int // reporting window, in events
	burst      int // concurrent transactions per burst
	objects    int // distinct objects
	truncAfter int // Options.TruncateAfterEvents; 0 = truncation off
	assert     bool
}

// soakWindow is one reporting row.
type soakWindow struct {
	events      int
	meanLatency time.Duration
	maxLatency  time.Duration
	live        int
	checkpoints int
	roots       int
	heapAlloc   uint64
}

// runSoak streams the synthetic workload through a Sync session and
// prints one row per window. With cfg.assert it exits nonzero when the
// trajectory is not flat: per-event latency or retained state growing
// monotonically across windows is exactly the failure mode checkpointed
// truncation exists to prevent, so a regression there must fail CI.
func runSoak(cfg soakConfig) {
	mode := "truncation off"
	if cfg.truncAfter > 0 {
		mode = fmt.Sprintf("truncate after %d live events", cfg.truncAfter)
	}
	fmt.Printf("== soak: %d events, bursts of %d txs over %d objects, %s ==\n",
		cfg.events, cfg.burst, cfg.objects, mode)

	sess := monitor.New(monitor.Options{
		Mode:                monitor.Sync,
		TruncateAfterEvents: cfg.truncAfter,
	})
	defer sess.Close()

	// Rows print as they complete (the point of a soak is watching the
	// trajectory live), so fixed widths instead of a tabwriter.
	fmt.Printf("%10s  %9s  %8s  %6s  %11s  %5s  %9s  %8s\n",
		"events", "ns/event", "max µs", "live", "checkpoints", "roots", "truncated", "heap MiB")

	var (
		windows   []soakWindow
		winEvents int
		winTotal  time.Duration
		winMax    time.Duration
		nextTx    = 1
		value     = 1
	)
	flush := func(v monitor.Verdict) {
		if winEvents == 0 {
			return
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		row := soakWindow{
			events:      v.Events,
			meanLatency: winTotal / time.Duration(winEvents),
			maxLatency:  winMax,
			live:        v.LiveEvents,
			checkpoints: v.Checkpoints,
			roots:       v.Roots,
			heapAlloc:   ms.HeapAlloc,
		}
		windows = append(windows, row)
		fmt.Printf("%10d  %9d  %8.1f  %6d  %11d  %5d  %9d  %8.1f\n",
			row.events, row.meanLatency.Nanoseconds(),
			float64(row.maxLatency.Microseconds()),
			row.live, row.checkpoints, row.roots, v.TruncatedEvents,
			float64(row.heapAlloc)/(1<<20))
		winEvents, winTotal, winMax = 0, 0, 0
	}

	var last monitor.Verdict
	for last.Events < cfg.events {
		for _, ev := range soakBurst(&nextTx, &value, cfg.burst, cfg.objects) {
			start := time.Now()
			last = sess.Append(ev)
			lat := time.Since(start)
			winEvents++
			winTotal += lat
			if lat > winMax {
				winMax = lat
			}
			if last.Status != monitor.StatusOpaque {
				fmt.Fprintf(os.Stderr, "tmbench: soak workload flagged %v at event %d: %v\n",
					last.Status, last.Events, last.Err)
				os.Exit(1)
			}
			if winEvents >= cfg.window {
				flush(last)
			}
		}
	}
	// A trailing partial window is dropped: a handful of events is all
	// noise (one GC pause dominates its mean) and would poison the
	// trajectory assertion.
	fmt.Println()

	if cfg.assert {
		if err := assertFlat(windows, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "tmbench: soak assertion failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("soak assertion: latency and retained state are flat")
	}
}

// soakBurst emits one burst: burst transactions that all start before
// any of them finishes (so they overlap in real time), each writing a
// fresh value to its own object, reading it back, and committing. The
// burst is opaque by construction and ends at a quiescent point.
func soakBurst(nextTx, value *int, burst, objects int) history.History {
	type btx struct {
		id  history.TxID
		obj history.ObjID
		val int
	}
	txs := make([]btx, burst)
	for i := range txs {
		txs[i] = btx{
			id:  history.TxID(*nextTx),
			obj: history.ObjID(fmt.Sprintf("x%d", (*nextTx)%objects)),
			val: *value,
		}
		*nextTx++
		*value++
	}
	evs := make(history.History, 0, 6*burst)
	for _, t := range txs { // overlapping opens
		evs = append(evs, history.Inv(t.id, t.obj, "write", t.val))
	}
	for _, t := range txs {
		evs = append(evs,
			history.Ret(t.id, t.obj, "write", history.OK),
			history.Inv(t.id, t.obj, "read", nil),
			history.Ret(t.id, t.obj, "read", t.val))
	}
	for _, t := range txs { // all complete before the next burst
		evs = append(evs, history.TryC(t.id), history.Commit(t.id))
	}
	return evs
}

// assertFlat fails when the per-window trajectory exhibits the unbounded
// growth truncation is meant to eliminate. The first window is warmup
// (context tables filling); comparisons run from the second.
func assertFlat(windows []soakWindow, cfg soakConfig) error {
	if len(windows) < 3 {
		return fmt.Errorf("only %d windows — not enough trajectory to judge (lower -soak-window or raise -soak-events)", len(windows))
	}
	base, last := windows[1], windows[len(windows)-1]
	if cfg.truncAfter > 0 && last.checkpoints == 0 {
		return fmt.Errorf("truncation armed but no checkpoint was ever taken")
	}
	// Retained state must stay near the truncation threshold: a burst can
	// overshoot it (truncation waits for quiescence) but the live suffix
	// must not scale with session length.
	if bound := 2*cfg.truncAfter + 6*cfg.burst; cfg.truncAfter > 0 && last.live > bound {
		return fmt.Errorf("live suffix grew to %d events (threshold %d, bound %d)", last.live, cfg.truncAfter, bound)
	}
	// Latency must be flat: strict monotone growth across every window,
	// or a blowup vs the warm baseline, is the O(session-age) regression.
	if last.meanLatency > 4*base.meanLatency {
		return fmt.Errorf("mean latency grew %v → %v (>4×) across the session", base.meanLatency, last.meanLatency)
	}
	monotone := true
	for i := 2; i < len(windows); i++ {
		if windows[i].meanLatency <= windows[i-1].meanLatency {
			monotone = false
			break
		}
	}
	if monotone {
		return fmt.Errorf("mean latency grew monotonically across all %d measured windows (%v → %v)",
			len(windows)-1, base.meanLatency, last.meanLatency)
	}
	return nil
}
