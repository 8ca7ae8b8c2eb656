package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"otm/internal/history"
	"otm/internal/monitor"
	"otm/internal/stm"
	"otm/internal/stm/tl2"
)

// soakConfig parameterizes a -soak run: two long monitored sessions that
// report the monitor's per-event cost, retained state and heap over
// time. The first is synthetic: bursts of concurrent committed
// transactions fed straight into a session — every burst boundary is a
// quiescent point, so an armed truncation policy gets a checkpoint
// opportunity each burst, while within a burst the transactions
// genuinely overlap. The second goes through an engine: soakGoroutines
// goroutines run transactions on tl2 behind an stm.Recorder, attached
// with monitor.Attach and the truncation barrier armed, as otmd monitor
// wires a shard.
type soakConfig struct {
	events     int // total events to stream per run (approximate: whole bursts or transactions)
	window     int // reporting window, in events
	burst      int // concurrent transactions per burst (synthetic run)
	objects    int // distinct objects
	truncAfter int // Options.TruncateAfterEvents; 0 = truncation off
	assert     bool
}

const (
	// soakGoroutines and soakOpsPerTx shape the engine run: four
	// goroutines issuing four-operation transactions back to back, half
	// reads, half writes of fresh values.
	soakGoroutines = 4
	soakOpsPerTx   = 4
)

// soakWindow is one reporting row.
type soakWindow struct {
	events      int
	meanLatency time.Duration
	maxLatency  time.Duration
	live        int
	checkpoints int
	roots       int
	truncated   int
	resident    int
	heapInuse   uint64 // heap in use after a GC
}

// runSoak runs the synthetic soak and then the engine soak, printing one
// row per window. With cfg.assert it exits nonzero when either
// trajectory is not flat: per-event latency, retained state or heap
// growing across windows is exactly the failure mode checkpointed
// truncation exists to prevent, so a regression there must fail CI.
func runSoak(cfg soakConfig) {
	mode := "truncation off"
	if cfg.truncAfter > 0 {
		mode = fmt.Sprintf("truncate after %d live events", cfg.truncAfter)
	}
	fmt.Printf("== soak 1/2, synthetic: %d events, bursts of %d txs over %d objects, %s ==\n",
		cfg.events, cfg.burst, cfg.objects, mode)
	synthetic := soakSynthetic(cfg)

	barrier := 4 * cfg.truncAfter
	fmt.Printf("== soak 2/2, engine: %d events, tl2 behind a recorder, %d goroutines × %d-op transactions over %d objects, monitor.Attach (sync), %s, barrier %d ==\n",
		cfg.events, soakGoroutines, soakOpsPerTx, cfg.objects, mode, barrier)
	fmt.Println("(ns/event is wall time per event across the goroutines; max µs is the slowest transaction)")
	engine := soakEngine(cfg, barrier)

	if !cfg.assert {
		return
	}
	failed := false
	for _, run := range []struct {
		name      string
		windows   []soakWindow
		liveBound int
	}{
		// A burst can overshoot the threshold (truncation waits for
		// quiescence); the barrier lets the transactions open when it
		// trips finish.
		{"synthetic", synthetic, 2*cfg.truncAfter + 6*cfg.burst},
		{"engine", engine, 2*barrier + soakGoroutines*2*(soakOpsPerTx+1)},
	} {
		if err := assertFlat(run.windows, cfg.truncAfter > 0, run.liveBound); err != nil {
			fmt.Fprintf(os.Stderr, "tmbench: soak assertion failed (%s run): %v\n", run.name, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("soak assertion: latency, retained state and heap are flat in both runs")
}

// soakHeader prints the column header. Rows print as they complete (the
// point of a soak is watching the trajectory live), so fixed widths
// instead of a tabwriter.
func soakHeader() {
	fmt.Printf("%10s  %9s  %8s  %6s  %11s  %5s  %9s  %8s  %8s\n",
		"events", "ns/event", "max µs", "live", "checkpoints", "roots", "truncated", "resident", "heap MiB")
}

// soakRow samples the session and the heap — in use after a GC, so
// garbage not yet collected cannot pass for retained state — and
// prints and returns the row.
func soakRow(sess *monitor.Session, mean, maxLat time.Duration) soakWindow {
	v, st := sess.Verdict(), sess.Stats()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	row := soakWindow{
		events:      v.Events,
		meanLatency: mean,
		maxLatency:  maxLat,
		live:        v.LiveEvents,
		checkpoints: v.Checkpoints,
		roots:       v.Roots,
		truncated:   v.TruncatedEvents,
		resident:    st.TableResident,
		heapInuse:   ms.HeapInuse,
	}
	fmt.Printf("%10d  %9d  %8.1f  %6d  %11d  %5d  %9d  %8d  %8.1f\n",
		row.events, row.meanLatency.Nanoseconds(),
		float64(row.maxLatency.Microseconds()),
		row.live, row.checkpoints, row.roots, row.truncated, row.resident,
		float64(row.heapInuse)/(1<<20))
	return row
}

// soakFlagged reports a session that stopped certifying and exits: both
// soak workloads are opaque by construction.
func soakFlagged(v monitor.Verdict) {
	fmt.Fprintf(os.Stderr, "tmbench: soak workload flagged %v at event %d: %v\n", v.Status, v.Events, v.Err)
	os.Exit(1)
}

// soakSynthetic streams the burst workload through a Sync session,
// timing every Append.
func soakSynthetic(cfg soakConfig) []soakWindow {
	sess := monitor.New(monitor.Options{
		Mode:                monitor.Sync,
		TruncateAfterEvents: cfg.truncAfter,
	})
	defer sess.Close()
	soakHeader()

	var (
		windows   []soakWindow
		winEvents int
		winTotal  time.Duration
		winMax    time.Duration
		nextTx    = 1
		value     = 1
		last      monitor.Verdict
	)
	for last.Events < cfg.events {
		for _, ev := range soakBurst(&nextTx, &value, cfg.burst, cfg.objects) {
			start := time.Now()
			last = sess.Append(ev)
			lat := time.Since(start)
			winEvents++
			winTotal += lat
			winMax = max(winMax, lat)
			if last.Status != monitor.StatusOpaque {
				soakFlagged(last)
			}
			if winEvents >= cfg.window {
				windows = append(windows, soakRow(sess, winTotal/time.Duration(winEvents), winMax))
				winEvents, winTotal, winMax = 0, 0, 0
			}
		}
	}
	// A trailing partial window is dropped: a handful of events is all
	// noise (one GC pause dominates its mean) and would poison the
	// trajectory assertion.
	fmt.Println()
	return windows
}

// soakEngine drives tl2 behind a recorder from soakGoroutines goroutines
// into a session attached to the recorder. Each window runs the
// goroutines until the session has seen the window's events and then
// stops them all, so every row is taken at a quiescent point.
func soakEngine(cfg soakConfig, barrier int) []soakWindow {
	rec := stm.NewRecorder(tl2.New(cfg.objects))
	sess := monitor.Attach(rec, monitor.Options{
		Mode:                monitor.Sync,
		TruncateAfterEvents: cfg.truncAfter,
		TruncateBarrier:     barrier,
	})
	defer sess.Close()
	soakHeader()

	rngs := make([]*rand.Rand, soakGoroutines)
	vals := make([]int, soakGoroutines)
	for g := range rngs {
		rngs[g] = rand.New(rand.NewSource(int64(g + 1)))
		vals[g] = (g + 1) * 1_000_000_000
	}
	var windows []soakWindow
	for target := cfg.window; target <= cfg.events; target += cfg.window {
		before := sess.Stats().Events
		maxLat := make([]time.Duration, soakGoroutines)
		start := time.Now()
		var wg sync.WaitGroup
		for g := range soakGoroutines {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rngs[g]
				for sess.Stats().Events < target {
					t0 := time.Now()
					err := stm.Atomically(rec, func(tx stm.Tx) error {
						for range soakOpsPerTx {
							obj := rng.Intn(cfg.objects)
							if rng.Intn(2) == 0 {
								if _, err := tx.Read(obj); err != nil {
									return err
								}
								continue
							}
							vals[g]++
							if err := tx.Write(obj, vals[g]); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil {
						fmt.Fprintf(os.Stderr, "tmbench: soak engine run: %v\n", err)
						os.Exit(1)
					}
					maxLat[g] = max(maxLat[g], time.Since(t0))
				}
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(start)
		v := sess.Verdict()
		if v.Status != monitor.StatusOpaque {
			soakFlagged(v)
		}
		windows = append(windows, soakRow(sess, elapsed/time.Duration(max(1, v.Events-before)), slices.Max(maxLat)))
	}
	st := sess.Stats()
	fmt.Printf("barrier: %d stalls, %.1f ms waited\n\n", st.BarrierStalls, float64(st.BarrierWaitNanos)/1e6)
	return windows
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

// heapSlack is the heap growth, in bytes, that assertFlat tolerates on
// top of a doubling: a session whose heap is a megabyte or two can
// double on allocator noise alone.
const heapSlack = 2 << 20

// assertFlat fails when the per-window trajectory exhibits the unbounded
// growth truncation is meant to eliminate. The first window is warmup
// (context tables filling); comparisons run from the second.
func assertFlat(windows []soakWindow, truncArmed bool, liveBound int) error {
	if len(windows) < 3 {
		return fmt.Errorf("only %d windows — not enough trajectory to judge (lower -soak-window or raise -soak-events)", len(windows))
	}
	base, last := windows[1], windows[len(windows)-1]
	if truncArmed && last.checkpoints == 0 {
		return fmt.Errorf("truncation armed but no checkpoint was ever taken")
	}
	// Retained state must stay near the truncation threshold: the live
	// suffix must not scale with session length.
	if truncArmed && last.live > liveBound {
		return fmt.Errorf("live suffix grew to %d events (bound %d)", last.live, liveBound)
	}
	// So must the memory behind it: heap in use after a GC that more
	// than doubles (beyond the slack) is state growing with session age,
	// whatever the live suffix says.
	if last.heapInuse > 2*base.heapInuse && last.heapInuse > base.heapInuse+heapSlack {
		return fmt.Errorf("heap in use after GC grew %.1f → %.1f MiB across the session",
			float64(base.heapInuse)/(1<<20), float64(last.heapInuse)/(1<<20))
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
