// Command tmbench prints the paper's quantitative tables: the Theorem 3
// step-complexity sweep (E9, pinned by bench.TestTheorem3Shape), the
// Θ(k²) tightness table (E10, pinned by bench.TestTightnessQuadratic)
// and the throughput comparison (E13, BenchmarkThroughput).
//
// Usage:
//
//	tmbench              # all tables
//	tmbench -sweep       # E9 only
//	tmbench -scan        # E10 only
//	tmbench -throughput  # E13 only
//	tmbench -zombie      # E7/E12 demo: zombie read under gatm vs dstm
//	tmbench -monitor M   # engine × manager × workload matrix under a
//	                     # live opacity monitor (M = sync or async)
//	tmbench -soak        # long monitored sessions, synthetic and through
//	                     # tl2 behind a recorder: per-event latency,
//	                     # retained state and heap over time (see
//	                     # -trunc-after, -soak-assert)
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"text/tabwriter"

	"otm/internal/bench"
	"otm/internal/cm"
	"otm/internal/controlplane"
	"otm/internal/core"
	"otm/internal/criteria"
	"otm/internal/interleave"
	"otm/internal/monitor"
	"otm/internal/stm"
	"otm/internal/stm/dstm"
	"otm/internal/stm/gatm"
)

var sweepKs = []int{16, 64, 256, 1024, 4096}

func main() {
	sweep := flag.Bool("sweep", false, "run the E9 steps-per-operation sweep")
	scan := flag.Bool("scan", false, "run the E10 full-scan table")
	throughput := flag.Bool("throughput", false, "run the E13 throughput comparison")
	cmAblation := flag.Bool("cm", false, "run the contention-manager ablation")
	matrix := flag.Bool("matrix", false, "run the cross-engine behaviour matrix")
	zombie := flag.Bool("zombie", false, "run the E7/E12 zombie demonstration")
	monitored := flag.String("monitor", "", "run every engine × contention-manager × workload mix under a live opacity monitor: sync or async")
	listen := flag.String("listen", "", "with -monitor: serve the fleet's /metrics and /status on this address while the matrix runs")
	goroutines := flag.Int("g", 8, "goroutines for -throughput, -cm and -monitor")
	txPerG := flag.Int("tx", 2000, "transactions per goroutine")
	soak := flag.Bool("soak", false, "run two long monitored sessions, synthetic and through an engine, and report the per-event latency / retained-state / heap trajectory")
	soakEvents := flag.Int("soak-events", 100000, "total events for each -soak run")
	soakWindowN := flag.Int("soak-window", 5000, "reporting window for -soak, in events")
	soakBurstN := flag.Int("soak-burst", 4, "concurrent transactions per burst for the synthetic -soak run")
	soakObjs := flag.Int("soak-k", 8, "distinct objects for -soak")
	truncAfter := flag.Int("trunc-after", 128, "checkpointed truncation threshold for -soak and -monitor, in live events (0 = truncation off)")
	soakAssert := flag.Bool("soak-assert", false, "with -soak: exit nonzero unless latency, retained state and heap stay flat in both runs")
	flag.Parse()

	if *soak {
		runSoak(soakConfig{
			events:     *soakEvents,
			window:     *soakWindowN,
			burst:      *soakBurstN,
			objects:    *soakObjs,
			truncAfter: *truncAfter,
			assert:     *soakAssert,
		})
		return
	}
	if *monitored != "" {
		var mode monitor.Mode
		switch *monitored {
		case "sync":
			mode = monitor.Sync
		case "async":
			mode = monitor.Async
		default:
			fmt.Fprintf(os.Stderr, "tmbench: -monitor must be sync or async, got %q\n", *monitored)
			os.Exit(2)
		}
		runMonitored(mode, *goroutines, *txPerG, *truncAfter, *listen)
		return
	}

	all := !*sweep && !*scan && !*throughput && !*zombie && !*cmAblation && !*matrix
	if *sweep || all {
		runSweep()
	}
	if *scan || all {
		runScan()
	}
	if *throughput || all {
		runThroughput(*goroutines, *txPerG)
	}
	if *cmAblation || all {
		runCMAblation(*goroutines, *txPerG)
	}
	if *matrix || all {
		runMatrix()
	}
	if *zombie || all {
		runZombie()
	}
}

// runMatrix prints the cross-engine behaviour matrix: how each engine
// handles the §2 zombie probe and the write-skew schedule.
func runMatrix() {
	fmt.Println("== behaviour matrix: §2 zombie probe and write skew ==")
	w := newTab()
	fmt.Fprintln(w, "engine\topaque\tzombie probe\twrite skew")
	for _, e := range bench.Engines() {
		probe := interleave.Classify(e.New(2))

		tm := e.New(2)
		_ = stm.DirectWrite(tm, 0, 50)
		_ = stm.DirectWrite(tm, 1, 50)
		res := interleave.Run(tm, interleave.WriteSkewSchedule())
		skew := "prevented"
		if res[8].Err == nil && res[9].Err == nil {
			skew = "ADMITTED"
		}
		opq := "yes"
		if !e.Opaque {
			opq = "NO"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", e.Name, opq, probe, skew)
	}
	w.Flush()
	fmt.Println()
}

// runCMAblation compares contention managers on the progressive engines
// under a maximally hot workload (two objects, long transactions) where
// the victim-selection policy actually decides outcomes.
func runCMAblation(g, txPerG int) {
	fmt.Printf("== contention-manager ablation: k=2, 50%% reads, 8 ops/tx, %d goroutines ==\n", g)
	w := newTab()
	fmt.Fprintln(w, "engine\tmanager\tcommits/s\tabort rate")
	for _, engine := range []string{"dstm", "vstm"} {
		for _, mgr := range bench.Managers() {
			e, err := bench.ManagedEngine(engine, mgr)
			if err != nil {
				fmt.Fprintf(w, "%s\t%s\tERR\t%v\n", engine, mgr.Name(), err)
				continue
			}
			r := bench.Throughput(e, 2, g, txPerG, 8, 0.5)
			fmt.Fprintf(w, "%s\t%s\t%.0f\t%.1f%%\n", engine, mgr.Name(), r.OpsPerSec(), 100*r.AbortRate())
		}
	}
	w.Flush()
	fmt.Println()
}

// runMonitored is the -monitor matrix: every engine (× contention
// manager for the managed progressive engines) × workload mix, with
// every recorded event streamed through a live opacity monitor. Few hot
// objects keep conflicts frequent — the regime where a non-opaque
// engine's zombies actually surface mid-run. Throughput includes the
// recording and (for sync) checking overhead, so the table doubles as a
// live-monitoring cost sheet; BenchmarkMonitorOverhead measures the
// same decomposition under the testing harness.
//
// Every row's session is a member of one controlplane.Fleet, so the
// matrix reports through the same telemetry counters the monitoring
// control plane exports: -listen serves the fleet's /metrics and
// /status while the matrix runs, and the closing fleet summary is the
// aggregated Status. truncAfter bounds each session's live suffix
// (checkpointed truncation), which is what keeps the default 2000
// tx/goroutine workload flat-cost per event.
func runMonitored(mode monitor.Mode, g, txPerG, truncAfter int, listen string) {
	const k, opsPerTx = 2, 8
	mopts := monitor.Options{Mode: mode, TruncateAfterEvents: truncAfter}
	if truncAfter > 0 {
		// Throughput workloads never quiesce on their own; without the
		// admission barrier the live suffix grows unboundedly and the
		// per-event cost with it (see monitor.Options.TruncateBarrier).
		mopts.TruncateBarrier = 4 * truncAfter
	}
	fleet, err := controlplane.New(controlplane.Options{Monitor: mopts})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmbench: %v\n", err)
		os.Exit(1)
	}
	if listen != "" {
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tmbench: %v\n", err)
			os.Exit(1)
		}
		srv := &http.Server{Handler: fleet.Handler()}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "tmbench: serving fleet metrics on http://%s/metrics\n", ln.Addr())
	}

	fmt.Printf("== live opacity monitoring (%s): k=%d, %d goroutines × %d tx, %d ops/tx, trunc-after=%d ==\n",
		mode, k, g, txPerG, opsPerTx, truncAfter)
	w := newTab()
	fmt.Fprintln(w, "engine\tmanager\tmix\tcommits/s\tabort rate\tevents\tchecked\tnodes\tfast\tckpts\tverdict")
	type caught struct {
		row  string
		viol *monitor.Violation
	}
	var caughts []caught
	for _, e := range bench.Engines() {
		mgrs := []cm.Manager{nil}
		if _, err := bench.ManagedEngine(e.Name, cm.Aggressive{}); err == nil {
			mgrs = bench.Managers()
		}
		for _, mgr := range mgrs {
			engine, label := e, "—"
			if mgr != nil {
				engine, _ = bench.ManagedEngine(e.Name, mgr)
				label = mgr.Name()
			}
			for _, mix := range []struct {
				name string
				frac float64
			}{{"90% reads", 0.9}, {"50% reads", 0.5}} {
				row := fmt.Sprintf("%s/%s/%s", e.Name, label, mix.name)
				var member *controlplane.Member
				wrapped := bench.Engine{
					Name: engine.Name,
					New: func(n int) stm.TM {
						rec := stm.NewRecorder(engine.New(n))
						m, err := fleet.Attach(row, rec)
						if err != nil {
							fmt.Fprintf(os.Stderr, "tmbench: %s: %v\n", row, err)
							os.Exit(1)
						}
						member = m
						return rec
					},
				}
				r := bench.Throughput(wrapped, k, g, txPerG, opsPerTx, mix.frac)
				v := member.Close()
				verdict := v.Status.String()
				if v.Status == monitor.StatusViolated {
					verdict = fmt.Sprintf("VIOLATED@%d", v.PrefixLen)
				}
				fmt.Fprintf(w, "%s\t%s\t%s\t%.0f\t%.1f%%\t%d\t%d\t%d\t%d\t%d\t%s\n",
					e.Name, label, mix.name, r.OpsPerSec(), 100*r.AbortRate(),
					v.Events, v.Checked, v.Nodes, v.FastPath, v.Checkpoints, verdict)
				if viol := member.Session().Violation(); viol != nil {
					caughts = append(caughts, caught{row: row, viol: viol})
				}
				if v.Err != nil {
					fmt.Fprintf(os.Stderr, "tmbench: %s: monitoring failed: %v\n", row, v.Err)
				}
			}
		}
	}
	w.Flush()
	for _, c := range caughts {
		fmt.Printf("\n%s: first violation at event %d (%s)\n", c.row, c.viol.PrefixLen-1, c.viol.Event)
		if c.viol.Diagnosed {
			fmt.Printf("  %s\n", c.viol.Diagnosis)
		}
	}
	st := fleet.Close()
	fmt.Printf("\nfleet: %d sessions, %d events (%.0f events/s overall), %d violations, status %s\n\n",
		st.Sessions, st.Events, st.EventsPerSec, st.Violations, st.FleetStatus)
}

func newTab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func runSweep() {
	fmt.Println("== E9: steps per operation in the Theorem 3 scenario ==")
	fmt.Println("   (T1 reads k/2 objects; T2 commits a write; measure T1's next read)")
	w := newTab()
	fmt.Fprintf(w, "engine\tproperties\texpected")
	for _, k := range sweepKs {
		fmt.Fprintf(w, "\tk=%d", k)
	}
	fmt.Fprintln(w)
	for _, e := range bench.Engines() {
		fmt.Fprintf(w, "%s\t%s\t%s", e.Name, props(e), e.Complexity)
		for _, k := range sweepKs {
			steps, err := bench.StepsForNextRead(e, k)
			if err != nil {
				fmt.Fprintf(w, "\tERR")
				continue
			}
			fmt.Fprintf(w, "\t%d", steps)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Println()
}

func runScan() {
	fmt.Println("== E10: total steps for a transaction reading all k objects ==")
	w := newTab()
	fmt.Fprintf(w, "engine\texpected")
	for _, k := range sweepKs {
		fmt.Fprintf(w, "\tk=%d", k)
	}
	fmt.Fprintln(w)
	for _, e := range bench.Engines() {
		exp := "Θ(k)"
		if e.Name == "dstm" {
			exp = "Θ(k²)"
		}
		fmt.Fprintf(w, "%s\t%s", e.Name, exp)
		for _, k := range sweepKs {
			steps, err := bench.FullScanSteps(e, k)
			if err != nil {
				fmt.Fprintf(w, "\tERR")
				continue
			}
			fmt.Fprintf(w, "\t%d", steps)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Println()
}

func runThroughput(g, txPerG int) {
	fmt.Printf("== E13: throughput, k=256, %d goroutines, %d tx each ==\n", g, txPerG)
	w := newTab()
	fmt.Fprintln(w, "mix\tengine\tcommits/s\tabort rate")
	for _, mix := range []struct {
		name string
		frac float64
	}{{"90% reads", 0.9}, {"50% reads", 0.5}} {
		for _, e := range bench.Engines() {
			r := bench.Throughput(e, 256, g, txPerG, 8, mix.frac)
			fmt.Fprintf(w, "%s\t%s\t%.0f\t%.1f%%\n", mix.name, e.Name, r.OpsPerSec(), 100*r.AbortRate())
		}
	}
	w.Flush()
	fmt.Println()
}

func props(e bench.Engine) string {
	var p []string
	if e.SingleVersion {
		p = append(p, "1v")
	} else {
		p = append(p, "mv")
	}
	if e.InvisibleReads {
		p = append(p, "inv-rd")
	} else {
		p = append(p, "vis-rd")
	}
	if e.Progressive {
		p = append(p, "prog")
	}
	if !e.Opaque {
		p = append(p, "NOT-OPAQUE")
	}
	return strings.Join(p, ",")
}

// runZombie replays the §2 inconsistent-view schedule against gatm (the
// zombie reads y=1 while having read x=0) and dstm (the reader is
// aborted instead), then prints the criteria verdicts of the recorded
// gatm history — the executable Figure 1 punchline.
func runZombie() {
	fmt.Println("== E7/E12: zombie demonstration (schedule of §2) ==")

	run := func(tm stm.TM) (string, *stm.Recorder) {
		rec := stm.NewRecorder(tm)
		t1 := rec.Begin()
		if _, err := t1.Read(0); err != nil {
			return "t1's first read aborted", rec
		}
		t2 := rec.Begin()
		_ = t2.Write(0, 1)
		_ = t2.Write(1, 1)
		if err := t2.Commit(); err != nil {
			return "writer failed to commit", rec
		}
		v, err := t1.Read(1)
		if err != nil {
			return "reader forcefully aborted at the second read (no zombie)", rec
		}
		_ = t1.Commit()
		return fmt.Sprintf("reader observed x=0 and y=%d — INCONSISTENT SNAPSHOT", v), rec
	}

	for _, tc := range []struct {
		name string
		tm   stm.TM
	}{
		{"gatm", gatm.New(2)},
		{"dstm", dstm.New(2, cm.Aggressive{})},
	} {
		outcome, rec := run(tc.tm)
		fmt.Printf("\n%s: %s\n", tc.name, outcome)
		h := rec.History()
		fmt.Println(h.Format())
		rep, err := criteria.Evaluate(h, nil)
		if err != nil {
			fmt.Printf("criteria error: %v\n", err)
			continue
		}
		fmt.Print(rep)
		res, err := core.Opaque(h)
		if err == nil && !res.Opaque {
			fmt.Println("=> the recorded history violates opacity while satisfying global atomicity")
		}
	}
}
