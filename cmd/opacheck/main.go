// Command opacheck checks transactional histories against opacity and
// the weaker correctness criteria of the paper's §3, and prints the
// opacity graph of the Theorem 2 characterization.
//
// Usage:
//
//	opacheck [-counter obj] [-graph] [-demo name] [history...]
//	opacheck -parallel N [-counter obj] [-maxnodes B] [file...]
//	opacheck -replay URI
//
// -replay re-checks a violation artifact captured by the monitoring
// control plane (`otmd monitor -artifacts ...`): it decodes the
// artifact, re-derives the verdict with a fresh offline diagnosis and
// exits 0 only if verdict, violation position and culprit set all match
// the capture.
//
// Histories are given as arguments or read from stdin (one per line; see
// internal/history.Parse for the grammar), e.g.:
//
//	opacheck "w1(x,1) tryC1 C1 r2(x)->1 w3(x,2) w3(y,2) tryC3 C3 r2(y)->2 tryC2 A2"
//
// Each history is printed as a per-transaction timeline, then its
// criteria table. A history of more than 64 transactions is printed on
// one line instead, with a note saying so: every row of a timeline is as
// wide as the whole history.
//
// -demo prints one of the paper's built-in examples: fig1, fig2, h3, h4,
// counter, writers.
//
// -parallel N switches to streaming batch mode: arguments are files of
// histories (one per line; "-" or no arguments reads stdin), checked
// concurrently by N workers from internal/checkpool, and each input line
// yields exactly one verdict line on stdout, in input order. Inputs may
// be plain paths or storage URIs (file:///abs/path, mem://store/name),
// and -verdicts redirects the verdict stream to a storage URI written
// atomically — the object appears fully written or not at all, so a
// crashed or interrupted batch never leaves a partial verdict file:
//
//	opacheck -parallel 8 -verdicts file:///tmp/run/verdicts.log corpus.txt
//
//	histories.txt:3 opaque nodes=42 order="T1 T2"
//	histories.txt:4 non-opaque nodes=97
//	histories.txt:5 error parse: bad token "zzz"
//
// nodes= is the number of search nodes the completion-aware engine
// explored for that history; the per-history -maxnodes budget meters one
// unified search covering every completion (default 4,000,000 nodes).
// A negative -maxnodes is a usage error. Every id the search tables
// intern (object states, atoms, objects, replay signatures) is int32: a
// history that makes one table mint 2^31−1 ids panics with "core:
// interner overflow" instead of wrapping. The search tables swap
// generations at 2^20 entries only between histories, so the limit is
// per history, far beyond what the default budget reaches.
//
// -reference switches the batch to the retained per-completion engine
// (an un-memoized search per completion, no symmetry reduction), so the
// node-count reduction of the unified engine is directly measurable on
// any corpus:
//
//	opacheck -parallel 8 corpus.txt            # nodes= from the unified engine
//	opacheck -parallel 8 -reference corpus.txt # nodes= from the reference
//
// All workers of a batch share one set of search tables: each distinct
// state is interned once for the whole batch and transition entries are
// reused across workers.
//
// A summary goes to stderr: the totals and node count, then the search
// tables' counters and the reductions — the symmetry classes the
// searches detected and the candidate placements the symmetry reduction
// skipped — or, under -reference, which runs without search tables, an
// explicit "no context counters" note. The exit status is 1 if any line
// errored (parse failure, malformed history, search-budget exhaustion),
// else 0; non-opaque is a verdict, not an error. SIGINT/SIGTERM cancel
// the batch gracefully: already-admitted histories still get their
// verdict lines, then the summary reports the interruption and the exit
// status is 1.
//
// -cpuprofile and -memprofile write pprof profiles of the run (any
// mode), for digging into checker hot paths:
//
//	opacheck -parallel 8 -cpuprofile cpu.out corpus.txt
//	go tool pprof cpu.out
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"iter"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"otm/internal/checkpool"
	"otm/internal/controlplane"
	"otm/internal/core"
	"otm/internal/criteria"
	"otm/internal/history"
	"otm/internal/opg"
	"otm/internal/spec"
	"otm/internal/storage"
)

var demos = map[string]string{
	"fig1":    "w1(x,1) tryC1 C1 r2(x)->1 w3(x,2) w3(y,2) tryC3 C3 r2(y)->2 tryC2 A2",
	"fig2":    "w2(x,1) w2(y,2) tryC2 inv1(x.read) C2 inv3(y.write,3) ret1(x.read)->1 w1(x,5) ret3(y.write)->ok r1(y)->2 tryC1 inv3(x.read) ret3(x.read)->1 tryC3 A1 C3",
	"h3":      "w1(x,1) tryC1 r2(x)->1",
	"h4":      "r1(x)->0 w2(x,5) w2(y,5) tryC2 r3(y)->5 r1(y)->0",
	"counter": "inc1(c)->ok inc2(c)->ok inc3(c)->ok tryC1 C1 tryC2 C2 tryC3 C3 get4(c)->3 tryC4 C4",
	"writers": "w1(x,1) w2(x,2) w1(y,1) w2(y,2) tryC1 C1 tryC2 C2 r3(x)->2 r3(y)->2 tryC3 C3",
}

func main() { os.Exit(run()) }

// run is main behind an exit code, so the pprof teardown deferred below
// executes before the process exits.
func run() int {
	counterObjs := flag.String("counter", "", "comma-separated object names to treat as counters (default: all registers)")
	graph := flag.Bool("graph", false, "also run the Theorem 2 graph characterization (register histories, adds T0)")
	explain := flag.Bool("explain", false, "for non-opaque histories, locate the violation and implicated transactions")
	demo := flag.String("demo", "", "check a built-in paper example: fig1|fig2|h3|h4|counter|writers")
	parallel := flag.Int("parallel", 0, "batch mode: check histories from files/stdin with N concurrent workers")
	maxNodes := flag.Int("maxnodes", 0, "batch mode: per-history search-node budget (0 = checker default, 4,000,000; a history interning ~2^31 states panics)")
	reference := flag.Bool("reference", false, "batch mode: use the per-completion reference engine instead of the unified search (for node-count comparisons)")
	verdicts := flag.String("verdicts", "", "batch mode: write the verdict stream to this storage URI (file:// or mem://) instead of stdout, committed atomically")
	replay := flag.String("replay", "", "re-check a violation artifact captured by the monitoring control plane (a path or storage URI) and confirm its verdict offline")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile taken at exit to this file")
	flag.Parse()
	if *maxNodes < 0 {
		fmt.Fprintf(os.Stderr, "opacheck: -maxnodes %d: the budget must be 0 (the checker default) or positive\n", *maxNodes)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "opacheck: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "opacheck: -cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "opacheck: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "opacheck: -memprofile: %v\n", err)
			}
		}()
	}

	if *replay != "" {
		if *parallel > 0 || *graph || *explain || *demo != "" {
			fmt.Fprintln(os.Stderr, "opacheck: -replay is incompatible with -parallel, -graph, -explain and -demo")
			return 2
		}
		return runReplay(*replay, *counterObjs, *maxNodes)
	}
	if *parallel > 0 {
		if *graph || *explain || *demo != "" {
			fmt.Fprintln(os.Stderr, "opacheck: -parallel is incompatible with -graph, -explain and -demo")
			return 2
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		code := runBatch(ctx, os.Stdin, os.Stdout, os.Stderr, *parallel, *maxNodes, *reference, *counterObjs, *verdicts, flag.Args())
		stop()
		return code
	}

	exit := 0
	report := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "opacheck: %v\n", err)
			exit = 1
		}
		fmt.Println()
	}
	switch {
	case *demo != "":
		src, ok := demos[*demo]
		if !ok {
			fmt.Fprintf(os.Stderr, "opacheck: unknown demo %q\n", *demo)
			return 2
		}
		fmt.Printf("# demo %s\n", *demo)
		report(checkOne(src, *counterObjs, *graph, *explain))
	case flag.NArg() > 0:
		for _, src := range flag.Args() {
			report(checkOne(src, *counterObjs, *graph, *explain))
		}
	default:
		// A read error arrives as an errored item, so it is reported
		// and fails the run like a parse error.
		for item := range checkpool.Lines(os.Stdin, "stdin", 1, nil) {
			err := item.Err
			if err == nil {
				err = checkHistory(item.History, *counterObjs, *graph, *explain)
			}
			report(err)
		}
	}
	return exit
}

// runReplay is the -replay mode: decode a violation artifact captured
// by the monitoring control plane and re-derive its verdict with a
// fresh offline diagnosis — no state shared with the monitor that wrote
// it. Exit status: 0 when the replay confirms both the non-opaque
// verdict (at the recorded prefix length) and the culprit set, 1 on any
// mismatch, a non-replayable artifact (the capturing session truncated
// before the violation) or an error.
func runReplay(uri, counterObjs string, maxNodes int) int {
	rc, err := storage.OpenURI(uri)
	if err != nil {
		fmt.Fprintf(os.Stderr, "opacheck: -replay: %v\n", err)
		return 1
	}
	defer rc.Close()
	a, err := controlplane.ParseArtifact(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "opacheck: -replay: %v\n", err)
		return 1
	}
	fmt.Printf("artifact: session %s, prefix %d, event %s", a.Session, a.PrefixLen, a.Event)
	if a.Diagnosed {
		fmt.Printf(", culprits %s", txids(a.Culprits))
	}
	fmt.Println()
	out, err := a.Replay(core.Config{
		Objects:  spec.ParseCounters(counterObjs),
		MaxNodes: maxNodes,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "opacheck: -replay: %v\n", err)
		return 1
	}
	d := out.Diagnosis
	switch {
	case d.Opaque:
		fmt.Println("replay: opaque — MISMATCH (the monitor saw a violation, the offline checker does not)")
	case !out.VerdictMatches:
		fmt.Printf("replay: non-opaque at prefix %d — MISMATCH (artifact recorded prefix %d)\n", d.PrefixLen, a.PrefixLen)
	default:
		fmt.Printf("replay: non-opaque at prefix %d, culprits %s\n", d.PrefixLen, txids(d.Implicated))
	}
	if out.Confirmed() {
		fmt.Println("CONFIRMED: the offline replay re-derives the captured verdict")
		return 0
	}
	if out.VerdictMatches && !out.CulpritsMatch {
		fmt.Printf("MISMATCH: culprit sets differ (capture %s, replay %s)\n", txids(a.Culprits), txids(d.Implicated))
	}
	return 1
}

// txids renders a transaction set in the T<n> form of verdict lines.
func txids(txs []history.TxID) string {
	parts := make([]string, len(txs))
	for i, tx := range txs {
		parts[i] = fmt.Sprintf("T%d", int(tx))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// runBatch is the -parallel mode: stream histories from the given files
// (paths or storage URIs; "-" or no arguments reads stdin), check them
// on a checkpool of the given width, and print one verdict line per
// input line, in input order; the summary lines go to errW. With a
// -verdicts URI the verdict stream goes to that storage object instead
// of out, committed atomically on success — a failed or interrupted run
// leaves no partial verdict object behind. A sink write failure stops
// the pool's admission and input reading, the object is aborted, and
// the error is reported. Cancelling ctx (SIGINT / SIGTERM) stops them
// the same way; verdicts for already-admitted histories are still
// written. It returns the process exit code.
func runBatch(ctx context.Context, stdin io.Reader, out, errW io.Writer, workers, maxNodes int, reference bool, counterObjs, verdicts string, paths []string) int {
	var stats core.Stats
	pool := checkpool.New(checkpool.Options{
		Workers: workers,
		Config: core.Config{
			Objects:     spec.ParseCounters(counterObjs),
			MaxNodes:    maxNodes,
			DisableMemo: reference,
		},
		Stats: &stats,
	})

	var sinkObj storage.Writer
	w := bufio.NewWriter(out)
	if verdicts != "" {
		var err error
		if sinkObj, err = storage.CreateURI(verdicts); err != nil {
			fmt.Fprintf(errW, "opacheck: -verdicts: %v\n", err)
			return 2
		}
		w = bufio.NewWriter(sinkObj)
	}

	var tally checkpool.Tally
	runErr := pool.RunTo(ctx, batchInputs(stdin, paths), func(v checkpool.Verdict) error {
		tally.Add(v)
		_, err := w.WriteString(v.Line() + "\n")
		return err
	})
	flushErr := w.Flush()
	if sinkObj != nil {
		// An incomplete verdict stream — sink failure, interruption —
		// must not commit a partial verdict object.
		if runErr != nil || flushErr != nil {
			sinkObj.Abort()
		} else if err := sinkObj.Close(); err != nil {
			fmt.Fprintf(errW, "opacheck: -verdicts: %v\n", err)
			return 1
		}
	}
	if runErr != nil && ctx.Err() == nil {
		fmt.Fprintf(errW, "opacheck: verdict sink: %v\n", runErr)
	}
	fmt.Fprintf(errW, "opacheck: %s\n", tally)
	// The reference engine runs without search tables, so it gets an
	// explicit note instead of a zeroed counter line.
	if reference {
		fmt.Fprintln(errW, "opacheck: reference engine: no search contexts (context counters not collected)")
	} else {
		fmt.Fprintf(errW, "opacheck: %s\n", checkpool.Summary(stats))
	}
	if ctx.Err() != nil {
		fmt.Fprintln(errW, "opacheck: interrupted; remaining input skipped")
		return 1
	}
	if runErr != nil || flushErr != nil || tally.Errored > 0 {
		return 1
	}
	return 0
}

// batchInputs yields the batch items of each input in turn: the lines
// of a file (a path or storage URI; "-" is stdin), or one errored item
// labeled with the path for a file that cannot be opened.
func batchInputs(stdin io.Reader, paths []string) iter.Seq[checkpool.Item] {
	if len(paths) == 0 {
		paths = []string{"-"}
	}
	return func(yield func(checkpool.Item) bool) {
		for _, path := range paths {
			r, label := io.NopCloser(stdin), "stdin"
			if path != "-" {
				var err error
				if r, err = storage.OpenURI(path); err != nil {
					if !yield(checkpool.Item{Source: path, Err: err}) {
						return
					}
					continue
				}
				label = path
			}
			more := true
			for item := range checkpool.Lines(r, label, 1, nil) {
				if more = yield(item); !more {
					break
				}
			}
			r.Close()
			if !more {
				return
			}
		}
	}
}

// checkOne parses one history and checks it in single-history mode.
func checkOne(src, counterObjs string, graph, explain bool) error {
	h, err := history.Parse(src)
	if err != nil {
		return err
	}
	return checkHistory(h, counterObjs, graph, explain)
}

// maxTimelineTxs is the most transactions single-history mode draws as
// a per-transaction timeline. Every row of the timeline is as wide as the
// whole history, so its size grows with transactions × events; a longer
// history is printed on one line.
const maxTimelineTxs = 64

// checkHistory prints h, its criteria table and, on request, the
// violation diagnosis and the Theorem 2 graph search.
func checkHistory(h history.History, counterObjs string, graph, explain bool) error {
	if err := h.WellFormed(); err != nil {
		return err
	}
	if n := len(h.Transactions()); n > maxTimelineTxs {
		fmt.Printf("%s\n(timeline left out: %d transactions, over the %d it is drawn for; each of its rows is as wide as the whole history)\n\n",
			h, n, maxTimelineTxs)
	} else {
		fmt.Println(h.Format())
	}

	objs := spec.ParseCounters(counterObjs)
	for _, ob := range h.Objects() {
		if _, ok := objs[ob]; !ok {
			objs[ob] = spec.NewRegister(0)
		}
	}

	rep, err := criteria.Evaluate(h, objs)
	if err != nil {
		return err
	}
	fmt.Print(rep)

	if explain && !rep.Opaque {
		d, err := core.Diagnose(h, core.Config{Objects: objs})
		if err != nil {
			return fmt.Errorf("diagnose: %w", err)
		}
		fmt.Println(d)
	}

	if graph {
		gh := h
		if !h.Contains(opg.InitTx) {
			gh = opg.WithInit(h, 0)
		}
		res, err := opg.CheckTheorem2(gh)
		if err != nil {
			return fmt.Errorf("theorem 2: %w", err)
		}
		switch {
		case !res.Consistent:
			fmt.Printf("theorem2: inconsistent (%v)\n", res.Reason)
		case res.Opaque:
			fmt.Printf("theorem2: opaque; witness order %v, V=%v\ngraph:\n%s",
				res.Order, res.V, res.Graph)
		default:
			fmt.Println("theorem2: no acyclic well-formed opacity graph exists")
		}
	}
	return nil
}
