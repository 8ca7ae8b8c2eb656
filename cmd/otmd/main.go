// Command otmd is the distributed batch checker: a coordinator that
// shards a history corpus and leases the shards out, workers that check
// leased shards on the internal/checkpool engine, and a single-process
// convenience mode that wires both together.
//
// Usage:
//
//	otmd coordinate -store URI (-corpus FILE | -gen N [...]) [-listen ADDR] [-o FILE]
//	otmd work -coordinator URL [-name ID] [-parallel W]
//	otmd run -workers N (-corpus FILE | -gen N [...]) [-o FILE]
//	otmd monitor [-sessions N] [-engine E] [-listen ADDR] [-artifacts URI] [-inject]
//
// `otmd monitor` is the online half: a fleet of monitored STM shards
// with live telemetry and replayable violation capture — see monitor.go.
//
// # Coordinate
//
// `otmd coordinate` plans the corpus into the store (a storage URI such
// as file:///tmp/run1 or mem://scratch; plain paths mean file://), or
// resumes if the store already holds a manifest: shards with a committed
// done marker are final and are never re-checked — after a crash the run
// continues exactly where the checkpoint says it stopped. It serves the
// lease API on -listen and streams the merged verdict log — shard order,
// byte-identical to a single-process `opacheck -parallel` run over the
// same corpus — to stdout (or -o). Planning flags mirror cmd/histgen
// (-gen/-seed/-txs/-objs/-ops/-stale/-init) and cmd/opacheck
// (-counter/-maxnodes). -maxnodes bounds each history's search (default
// 4,000,000 nodes; a negative budget fails the plan). Every id the
// search tables intern (object states, atoms, objects, replay
// signatures) is int32, so a history that makes one table mint 2^31−1
// ids panics its worker with "core: interner overflow" instead of
// wrapping. The search tables swap generations at 2^20 entries only
// between histories, so the limit is per history.
//
// # Work
//
// `otmd work` attaches one worker to a coordinator and checks leased
// shards until the run completes; add workers (across machines, if the
// store URI is reachable from all of them) to scale out. -parallel
// widens the worker's own checkpool; all of a worker's shards run on one
// set of search tables. The per-worker summary and table counters go to
// stderr, in opacheck's format.
//
// # Run
//
// `otmd run -workers N` is the whole service in one process: plan into
// an in-memory store, run N workers against a loopback coordinator,
// merge to stdout. It is the smoke-test and benchmarking mode; a
// two-terminal run uses coordinate + work with a file:// store.
//
// Exit status: 0 on a completed run with no errored histories, 1 on
// errored histories, a failed run, or interruption (the checkpoint
// survives; re-run `otmd coordinate` with the same store to resume), 2
// on usage errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"otm/internal/checkpool"
	"otm/internal/dist"
	"otm/internal/storage"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	switch args[0] {
	case "coordinate":
		return coordinate(args[1:])
	case "work":
		return work(args[1:])
	case "run":
		return runLocal(args[1:])
	case "monitor":
		return monitorCmd(args[1:])
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "otmd: unknown command %q\n", args[0])
		usage()
		return 2
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  otmd coordinate -store URI (-corpus FILE | -gen N [...]) [-listen ADDR] [-o FILE]
  otmd work -coordinator URL [-name ID] [-parallel W]
  otmd run -workers N (-corpus FILE | -gen N [...]) [-o FILE]
  otmd monitor [-sessions N] [-engine E] [-listen ADDR] [-artifacts URI] [-inject] [...]
`)
}

// planFlags are the corpus/checker flags shared by coordinate and run;
// they mirror cmd/histgen and cmd/opacheck.
type planFlags struct {
	corpus    string
	genN      int
	seed      int64
	txs       int
	objs      int
	maxOps    int
	stale     float64
	withInit  bool
	shardSize int
	label     string
	runID     string
	counter   string
	maxNodes  int
}

func (p *planFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&p.corpus, "corpus", "", "corpus file to shard (a path or storage URI)")
	fs.IntVar(&p.genN, "gen", 0, "generate a corpus of N histories instead of reading -corpus")
	fs.Int64Var(&p.seed, "seed", 1, "generator base seed (history i uses seed+i)")
	fs.IntVar(&p.txs, "txs", 4, "generator: transactions per history")
	fs.IntVar(&p.objs, "objs", 2, "generator: registers per history")
	fs.IntVar(&p.maxOps, "ops", 3, "generator: max operations per transaction")
	fs.Float64Var(&p.stale, "stale", 0.25, "generator: probability of adversarial read values")
	fs.BoolVar(&p.withInit, "init", false, "generator: prepend the initializing transaction T0")
	fs.IntVar(&p.shardSize, "shard-size", 256, "corpus lines (or generated histories) per shard")
	fs.StringVar(&p.label, "label", "", "verdict source label (default: the corpus path, or \"gen\")")
	fs.StringVar(&p.runID, "run-id", "", "run identifier recorded in the manifest")
	fs.StringVar(&p.counter, "counter", "", "comma-separated object names to treat as counters")
	fs.IntVar(&p.maxNodes, "maxnodes", 0, "per-history search-node budget (0 = checker default, 4,000,000; a history interning ~2^31 states panics)")
}

func (p *planFlags) options() dist.PlanOptions {
	opts := dist.PlanOptions{
		CorpusURI:   p.corpus,
		Label:       p.label,
		ShardSize:   p.shardSize,
		CounterObjs: p.counter,
		MaxNodes:    p.maxNodes,
		RunID:       p.runID,
	}
	if p.genN > 0 {
		opts.Gen = &dist.GenSpec{
			N: p.genN, Seed: p.seed, Txs: p.txs, Objs: p.objs,
			MaxOps: p.maxOps, PStaleRead: p.stale, WithInit: p.withInit,
		}
	}
	return opts
}

func coordinate(args []string) int {
	fs := flag.NewFlagSet("otmd coordinate", flag.ExitOnError)
	var p planFlags
	p.register(fs)
	storeURI := fs.String("store", "", "shared run store URI (file:///path or mem://name); required")
	listen := fs.String("listen", "127.0.0.1:8077", "lease API listen address")
	out := fs.String("o", "", "write the merged verdict log here instead of stdout")
	leaseFor := fs.Duration("lease", 30*time.Second, "shard lease duration (heartbeats extend it)")
	retries := fs.Int("retries", 3, "max requeues per shard before the run fails")
	linger := fs.Duration("linger", 2*time.Second, "keep serving after the merge completes so workers observe the run's end")
	verbose := fs.Bool("v", false, "log shard-level progress to stderr")
	fs.Parse(args)
	if *storeURI == "" {
		fmt.Fprintln(os.Stderr, "otmd coordinate: -store is required")
		return 2
	}
	return serveRun(&p, *listen, *out, dist.CoordinatorOptions{
		StoreURI:   *storeURI,
		LeaseFor:   *leaseFor,
		MaxRetries: *retries,
		Logf:       logger(*verbose),
	}, *linger, 0, 0)
}

func work(args []string) int {
	fs := flag.NewFlagSet("otmd work", flag.ExitOnError)
	coordinator := fs.String("coordinator", "", "coordinator base URL (e.g. http://127.0.0.1:8077); required")
	name := fs.String("name", "", "worker name in coordinator logs (default: host:pid)")
	parallel := fs.Int("parallel", 1, "checkpool workers per shard")
	verbose := fs.Bool("v", false, "log shard-level progress to stderr")
	fs.Parse(args)
	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "otmd work: -coordinator is required")
		return 2
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := &dist.Worker{
		Coordinator: *coordinator,
		Name:        *name,
		Parallel:    *parallel,
		Logf:        logger(*verbose),
	}
	stats, err := w.Run(ctx)
	workerSummary(os.Stderr, *name, stats)
	if err != nil {
		return fail(err)
	}
	return 0
}

func runLocal(args []string) int {
	fs := flag.NewFlagSet("otmd run", flag.ExitOnError)
	var p planFlags
	p.register(fs)
	workers := fs.Int("workers", 2, "number of in-process workers")
	parallel := fs.Int("parallel", 1, "checkpool workers per shard, per worker")
	storeURI := fs.String("store", "", "run store URI (default: a fresh in-memory store)")
	out := fs.String("o", "", "write the merged verdict log here instead of stdout")
	verbose := fs.Bool("v", false, "log shard-level progress to stderr")
	fs.Parse(args)
	if *workers < 1 {
		fmt.Fprintln(os.Stderr, "otmd run: -workers must be ≥ 1")
		return 2
	}
	if *storeURI == "" {
		*storeURI = fmt.Sprintf("mem://otmd-run-%d", os.Getpid())
	}
	return serveRun(&p, "127.0.0.1:0", *out, dist.CoordinatorOptions{StoreURI: *storeURI, Logf: logger(*verbose)}, 0, *workers, *parallel)
}

// serveRun is the coordinator path coordinate and run share: resolve
// the store copts names, plan or resume, serve the lease API on listen,
// merge the verdict log to out (stdout if empty) under the signal
// context, and print the run's totals. The exit code is 1 if the run
// failed, was interrupted or has errored histories.
//
// With no in-process workers this is a standalone coordinator: it
// announces its address, stops at the first merge failure or
// interruption (the checkpoint is durable), and lingers after a
// complete merge so polling workers see the run end. Otherwise it runs
// that many workers of the given width against its own API and reports
// them once the merge has ended, however it ended.
func serveRun(p *planFlags, listen, out string, copts dist.CoordinatorOptions, linger time.Duration, workers, parallel int) int {
	store, err := storage.Resolve(copts.StoreURI)
	if err != nil {
		return fail(err)
	}
	// Resume the run the store's manifest describes, or plan a new one.
	man, err := dist.LoadManifest(store)
	switch {
	case err == nil:
		copts.Logf("otmd: resuming run %s from the store's manifest", man.Run)
	case errors.Is(err, dist.ErrNoManifest):
		if man, err = dist.Plan(store, p.options()); err != nil {
			return fail(err)
		}
		copts.Logf("otmd: planned run %s: %d shards", man.Run, len(man.Shards))
	default:
		return fail(err)
	}
	cp, err := dist.LoadCheckpoint(store, man)
	if err != nil {
		return fail(err)
	}
	c := dist.NewCoordinator(store, man, cp, copts)

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return fail(err)
	}
	srv := &http.Server{Handler: c.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	standalone := workers == 0
	if standalone {
		fmt.Fprintf(os.Stderr, "otmd: coordinating run %s on http://%s (%d/%d shards done)\n",
			man.Run, ln.Addr(), cp.NumDone(), len(man.Shards))
	}

	w := io.Writer(os.Stdout)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		w = f
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	stats := make([]dist.RunStats, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := &dist.Worker{Coordinator: "http://" + ln.Addr().String(), Name: fmt.Sprintf("w%d", i+1), Parallel: parallel, Logf: copts.Logf}
			stats[i], errs[i] = wk.Run(ctx)
		}()
	}
	merged := make(chan error, 1)
	go func() { merged <- c.MergeTo(w) }()
	code := 0
	select {
	case err := <-merged:
		if err != nil {
			code = fail(err)
		}
	case <-ctx.Done():
		if standalone {
			fmt.Fprintln(os.Stderr, "otmd: interrupted; checkpoint is durable — re-run coordinate with the same store to resume")
		} else {
			fmt.Fprintln(os.Stderr, "otmd: interrupted")
		}
		code = 1
	}
	if standalone && code != 0 {
		return code
	}
	wg.Wait()
	for i := range stats {
		workerSummary(os.Stderr, fmt.Sprintf("w%d", i+1), stats[i])
		if errs[i] != nil && code == 0 {
			code = fail(errs[i])
		}
	}

	st := c.Status()
	fmt.Fprintf(os.Stderr, "otmd: run %s complete: %d shards, %s, %d requeues, %.1fs\n",
		st.Run, st.Shards, st.Tally, st.Retries, st.ElapsedSecs)
	// Give polling workers a beat to see Done before the API goes away.
	select {
	case <-time.After(linger):
	case <-ctx.Done():
	}
	if code == 0 && st.Errored > 0 {
		code = 1
	}
	return code
}

// workerSummary prints one worker's totals and table counters in
// opacheck's summary format.
func workerSummary(errW io.Writer, name string, s dist.RunStats) {
	fmt.Fprintf(errW, "otmd: worker %s: %d shards, %s\n", name, s.Shards, s.Tally)
	fmt.Fprintf(errW, "otmd: worker %s %s\n", name, checkpool.Summary(s.Search))
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "otmd: %v\n", err)
	return 1
}

func logger(verbose bool) func(string, ...any) {
	if !verbose {
		return func(string, ...any) {}
	}
	return func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}
