// Command perfbench is the repository's end-to-end benchmark. Given a
// workload and a seed it generates the workload's inputs as a pure
// function of the seed, drives the public APIs of history, checkpool,
// core, monitor, stm and controlplane from one process, verifies every
// output, and prints the end-to-end metrics by name with their units.
// With -trace 1 it instead prints the per-layer metrics, from spans it
// records around its own calls into each layer. The last line of
// standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// Usage (from the repository root; see perfbench/METRICS.md):
//
//	python3 perfbench/run.py --workload recorded --seed 1 --seconds 10 --trace 0
//
// The exit code is 0 when every output verified, 1 when any did not, and
// 2 on a usage or set-up error (no result line is printed then).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads maps each workload to its default input size: histories per
// pass for the batch workloads, script transactions for monitor.
var workloads = map[string]int{
	"recorded":    8000,
	"adversarial": 8000,
	"symmetric":   8000,
	"monitor":     1500,
}

// setups is how many times a run sets up; setup_s is taken over them.
const setups = 5

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	n        int
	inject   string
	traceDir string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "recorded, adversarial, symmetric or monitor")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer metrics")
	fs.IntVar(&cfg.n, "n", 0, "inputs per pass: histories, or monitor script transactions (0: the workload's default)")
	fs.StringVar(&cfg.inject, "inject", "", "fault to inject, for the self-tests: verdict or zombie")
	fs.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloads[cfg.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	case cfg.seconds <= 0 || cfg.n < 0:
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive and -n non-negative\n")
		return 2
	case cfg.inject != "" && cfg.inject != "verdict" && cfg.inject != "zombie":
		fmt.Fprintf(stderr, "perfbench: -inject must be verdict or zombie\n")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.n == 0 {
		cfg.n = def
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d n=%d gomaxprocs=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, cfg.n, runtime.GOMAXPROCS(0), runtime.Version())
	var rep *report
	var err error
	if cfg.workload == "monitor" {
		rep, err = runMonitor(cfg, stdout)
	} else {
		rep, err = runBatch(cfg, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	correct := rep.failed == 0
	if err := emit(stdout, names, rep, correct); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if !correct {
		return 1
	}
	return 0
}

// report is what a workload run hands back for printing.
type report struct {
	values    map[string]float64
	notes     map[string]string
	info      []string // report lines printed after the metrics
	attempted int64
	failed    int64
}

func newReport() *report {
	return &report{values: make(map[string]float64), notes: make(map[string]string)}
}

// stopwatch splits one set-up's wall time into consecutive laps.
type stopwatch struct {
	last time.Time
	laps []int64 // ns
}

func (w *stopwatch) lap() {
	now := time.Now()
	w.laps = append(w.laps, int64(now.Sub(w.last)))
	w.last = now
}

// segments runs a run's timed phase as setups segments of equal
// length, each preceded by a fresh set-up, and returns the last set-up's
// product and the set-up time. Each set-up starts from a collected heap
// and ends with runtime.GC(), so every segment starts from the same
// heap; each must reproduce the first one's input digest. A set-up calls
// lap after each of its steps (one history, or one warm-up operation),
// and every set-up takes the same steps, so the set-up time is the sum
// over steps of each step's median time over the set-ups: a stretch in
// which the hypervisor ran another tenant slows some steps of one
// set-up, not the same steps of most.
func segments[T any](cfg config, log io.Writer, setup func(lap func()) (T, string, error), measure func(T, float64) error) (T, float64, error) {
	var product, zero T
	var laps [][]int64
	var walls []float64
	var first string
	for i := 0; i < setups; i++ {
		product = zero
		runtime.GC()
		w := &stopwatch{last: time.Now()}
		start := w.last
		p, dg, err := setup(w.lap)
		if err != nil {
			return zero, 0, err
		}
		runtime.GC()
		w.lap()
		walls = append(walls, time.Since(start).Seconds())
		laps = append(laps, w.laps)
		product = p
		if i == 0 {
			first = dg
		} else if dg != first {
			return zero, 0, fmt.Errorf("set-up %d generated inputs with digest %s, set-up 1 %s", i+1, dg, first)
		}
		if err := measure(product, cfg.seconds/setups); err != nil {
			return zero, 0, err
		}
	}
	var total float64
	steps := make([]float64, len(laps))
	for k := range laps[0] {
		for i, l := range laps {
			if len(l) != len(laps[0]) {
				return zero, 0, fmt.Errorf("set-up %d took %d steps, set-up 1 %d", i+1, len(l), len(laps[0]))
			}
			steps[i] = float64(l[k])
		}
		total += median(steps) / 1e9
	}
	fmt.Fprintf(log, "setup: %d set-ups of %d steps, per-step medians sum to %.4f s; wall-clock times:", len(laps), len(laps[0]), total)
	for _, t := range walls {
		fmt.Fprintf(log, " %.4f", t)
	}
	fmt.Fprintln(log, " s")
	return product, total, nil
}

// endToEndValues fills the end-to-end metrics shared by every workload.
func (r *report) endToEndValues(s passSeries, setup float64, unit string) error {
	rss, err := maxRSSMB()
	if err != nil {
		return err
	}
	lat, err := s.latencies()
	if err != nil {
		return err
	}
	passes := len(s.throughput)
	r.values["cpu_us_per_request"] = median(s.cpu) / 1e3
	r.notes["cpu_us_per_request"] = fmt.Sprintf("(process CPU time of a pass ÷ its %s, collections included; median of %d passes)", unit, passes)
	r.info = append(r.info, fmt.Sprintf("%-36s %14.6g %-6s (median of %d passes, %s per second; not gated, see METRICS.md)",
		"throughput_per_s", median(s.throughput), "1/s", passes, unit))
	r.values["latency_p50_us"] = quantileNs(lat, 0.50) / 1e3
	r.values["latency_p99_us"] = quantileNs(lat, 0.99) / 1e3
	note := fmt.Sprintf("(over %d %s, each its median of %d passes: %d samples; %d %s beyond p99)",
		len(lat), unit, passes, len(lat)*passes, len(lat)/100, unit)
	r.notes["latency_p50_us"], r.notes["latency_p99_us"] = note, note
	r.values["setup_s"] = setup
	r.values["max_rss_mb"] = rss
	r.notes["max_rss_mb"] = "(getrusage peak, set-up and timed phase)"
	return nil
}

// zeroLayers sets every per-layer metric to 0, for the layers a workload
// does not run.
func (r *report) zeroLayers() {
	for _, m := range perLayer {
		r.values[m.name] = 0
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runBatch runs a batch workload.
func runBatch(cfg config, log io.Writer) (*report, error) {
	ph := &batchPhase{}
	b, setup, err := segments(cfg, log, func(lap func()) (*batchWork, string, error) {
		b, err := newBatchWork(cfg.workload, cfg.seed, cfg.n, lap)
		if err != nil {
			return nil, "", err
		}
		return b, digest(b.lines...), nil
	}, func(b *batchWork, seconds float64) error {
		if cfg.trace {
			seconds /= 3
		}
		b.timed(ph, batchWorkers, seconds, nil)
		return nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "inputs: %d histories, digest %s\n", len(b.lines), digest(b.lines...))
	fmt.Fprintf(log, "timed: %d passes of %d histories on %d workers, %.3f s busy, %s histories/s per pass; nodes per pass %d..%d\n",
		ph.passes, len(b.lines), batchWorkers, ph.wall.Seconds(), spread(ph.throughput), ph.nodesMin, ph.nodesMax)
	rep := newReport()
	rep.attempted, rep.failed = ph.requests, ph.failed
	if cfg.trace {
		tr := newTracer()
		traced, single := &batchPhase{}, &batchPhase{}
		b.timed(traced, batchWorkers, cfg.seconds/3, tr)
		b.timed(single, 1, cfg.seconds/3, nil)
		rep.attempted += traced.requests + single.requests
		rep.failed += traced.failed + single.failed
		if err := batchLayers(rep, cfg, ph, traced, single, tr, log); err != nil {
			return nil, err
		}
	} else if err := rep.endToEndValues(ph.passSeries, setup, "histories"); err != nil {
		return nil, err
	}
	counts, failed := b.verify(cfg.seed, ph.first, cfg.inject == "verdict", log)
	rep.failed += failed
	fmt.Fprintf(log, "counts: %s (one worker, input order)\n", counts)
	if cfg.trace {
		n := len(b.lines)
		rep.values["core.nodes_per_history"] = ratio(counts.nodes, n)
		rep.values["core.opaque_share"] = ratio(counts.opaque, n)
		rep.values["core.sym_prunes_per_history"] = ratio(counts.stats.SymPrunes, n)
		rep.values["core.sym_classes"] = float64(counts.stats.SymClasses)
		rep.values["core.legal_skips_per_history"] = ratio(counts.stats.LegalSkips, n)
		rep.values["core.budget_exhausted"] = float64(counts.budget)
	}
	return rep, nil
}

// batchLayers fills the per-layer metrics of a batch workload from its
// untraced two-worker phase (ph), traced phase and one-worker phase.
func batchLayers(rep *report, cfg config, ph, traced, single *batchPhase, tr *tracer, log io.Writer) error {
	rep.zeroLayers()
	lt, err := analyzeAndWrite(tr, cfg, log)
	if err != nil {
		return err
	}
	v := rep.values
	v["history.parse_us"] = lt.mean(spanParse)
	v["history.parse_share"] = lt.share(spanParse)
	v["checkpool.wait_us"] = lt.quantile(spanRequest, 0.5)
	v["checkpool.wait_share"] = lt.share(spanRequest)
	v["checkpool.line_us"] = lt.mean(spanLine)
	v["checkpool.line_share"] = lt.share(spanLine)
	v["core.check_us"] = lt.mean(spanCheck)
	v["core.check_share"] = lt.share(spanCheck)
	v["checkpool.busy_share"] = float64(ph.checkNs) / (batchWorkers * float64(ph.wall.Nanoseconds()))
	v["checkpool.speedup_2v1"] = median(ph.throughput) / median(single.throughput)
	s := ph.stats
	v["core.memo_hit_ratio"] = ratio(s.MemoHits, s.MemoHits+s.MemoMisses)
	v["core.trans_hit_ratio"] = ratio(s.TransHits, s.TransHits+s.TransMisses)
	v["core.states_interned"] = ratio(s.States, ph.passes)
	v["core.memo_entries"] = ratio(s.MemoEntries, ph.passes)
	ph.rt.values(ph.requests, v)
	v["trace.overhead"] = median(ph.throughput) / median(traced.throughput)
	return nil
}

// analyzeAndWrite computes the traced phase's self times, writes its
// spans, and reports a trace whose spans do not nest as an error.
func analyzeAndWrite(tr *tracer, cfg config, log io.Writer) (*layerTimes, error) {
	lt := tr.analyze()
	path, err := tr.write(cfg.traceDir, fmt.Sprintf("%s.spans", cfg.workload))
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(log, "trace: %d spans written to %s; self time by layer:", len(tr.spans), path)
	for k := spanKind(0); k < numSpanKinds; k++ {
		if len(lt.self[k]) > 0 {
			fmt.Fprintf(log, " %s %.1f%%", k, 100*lt.share(k))
		}
	}
	fmt.Fprintln(log)
	if lt.bad > 0 {
		return nil, fmt.Errorf("trace: %d spans do not nest inside their request", lt.bad)
	}
	return lt, nil
}

// runMonitor runs the monitor workload.
func runMonitor(cfg config, log io.Writer) (*report, error) {
	ph := &monitorPhase{}
	warm := max(1, cfg.n/4)
	m, setup, err := segments(cfg, log, func(lap func()) (*monitorWork, string, error) {
		m := &monitorWork{script: monitorScript(cfg.seed, cfg.n), zombie: cfg.inject == "zombie"}
		dg := digest(m.script.render())
		// Warm-up: the script's first quarter on a session of its own.
		_, err := m.pass(warm, nil, 0, lap)
		return m, dg, err
	}, func(m *monitorWork, seconds float64) error {
		if cfg.trace {
			seconds /= 2
		}
		return m.timed(ph, seconds, nil)
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "inputs: %d script transactions (%d in the warm-up), digest %s\n", cfg.n, warm, digest(m.script.render()))
	fmt.Fprintf(log, "timed: %d passes of %d operations, %s operations/s per pass\n", ph.passes, ph.first.counts.ops, spread(ph.throughput))
	fmt.Fprintf(log, "counts: %s\n", ph.first.counts)
	fmt.Fprintf(log, "verify: %d passes; first session closed %s; %d of %d operations not certified opaque\n",
		ph.passes, ph.first.status, ph.failed, ph.requests)
	rep := newReport()
	rep.attempted, rep.failed = ph.requests, ph.failed
	if !cfg.trace {
		return rep, rep.endToEndValues(ph.passSeries, setup, "operations")
	}
	tr := newTracer()
	traced := &monitorPhase{}
	if err := m.timed(traced, cfg.seconds/2, tr); err != nil {
		return nil, err
	}
	rep.attempted += traced.requests
	rep.failed += traced.failed
	return rep, monitorLayers(rep, cfg, ph, traced, tr, log)
}

// monitorLayers fills the per-layer metrics of the monitor workload from
// its untraced phase (ph) and traced phase.
func monitorLayers(rep *report, cfg config, ph, traced *monitorPhase, tr *tracer, log io.Writer) error {
	rep.zeroLayers()
	lt, err := analyzeAndWrite(tr, cfg, log)
	if err != nil {
		return err
	}
	v := rep.values
	c := ph.first.counts
	v["monitor.append_p50_us"] = lt.quantile(spanAppend, 0.5)
	v["monitor.append_p99_us"] = lt.quantile(spanAppend, 0.99)
	v["monitor.append_share"] = lt.share(spanAppend)
	v["monitor.fastpath_ratio"] = ratio(c.fastPath, c.fastPath+c.searches)
	v["monitor.skipped_share"] = ratio(c.skipped, c.events)
	v["monitor.nodes_per_event"] = ratio(c.nodes, c.events)
	v["monitor.checkpoints"] = float64(c.checkpoints)
	v["monitor.trunc_nodes_per_checkpoint"] = ratio(c.truncNodes, c.checkpoints)
	v["monitor.live_events_max"] = float64(c.liveMax)
	v["monitor.table_states"] = float64(c.tableStates)
	v["monitor.table_memo_entries"] = float64(c.tableMemoEntries)
	v["stm.op_self_us"] = lt.mean(spanOp)
	v["stm.op_share"] = lt.share(spanOp)
	v["stm.abort_ratio"] = ratio(c.aborts, c.commits+c.aborts)
	v["controlplane.scrape_us"] = lt.mean(spanScrape)
	v["telemetry.scrape_bytes"] = float64(ph.first.scrapeBytes)
	ph.rt.values(ph.requests, v)
	v["trace.overhead"] = median(ph.throughput) / median(traced.throughput)
	fmt.Fprint(log, "session age (events: table states/memo entries):")
	for _, p := range ph.first.curve {
		fmt.Fprintf(log, " %d:%d/%d", p.events, p.states, p.memo)
	}
	fmt.Fprintln(log)
	return nil
}
