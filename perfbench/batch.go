package main

// The batch workloads: the `opacheck -parallel 2` path — history.Parse
// on each line, a checkpool of two checkers, Verdict.Line — run over a
// seeded corpus, one fresh pool per pass.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"

	"otm/internal/checkpool"
	"otm/internal/core"
	"otm/internal/history"
)

// batchWorkers is the checker count of the measured configuration: the
// core count of the machine the bounds were set on.
const batchWorkers = 2

// referenceSample is how many non-opaque verdicts verification re-decides
// with the DisableMemo reference engine.
const referenceSample = 32

// batchWork is one batch workload's prepared input.
type batchWork struct {
	name    string
	lines   []string
	sources []string
	// shared backs each pass's pool by one core.SharedTables, as
	// `opacheck -parallel 2 -shared` does.
	shared bool
}

func newBatchWork(workload string, seed int64, n int, lap func()) (*batchWork, error) {
	lines, err := batchInputs(workload, seed, n, lap)
	if err != nil {
		return nil, err
	}
	b := &batchWork{name: workload, lines: lines, sources: make([]string, n), shared: workload == "adversarial"}
	for i := range b.sources {
		b.sources[i] = fmt.Sprintf("%s:%d", workload, i+1)
	}
	return b, nil
}

// passResult is the outcome of one pass over the corpus.
type passResult struct {
	wall    time.Duration
	cpu     time.Duration // process CPU time over the same interval
	lines   []string      // verdict lines, in input order
	latency []int64       // checker-call wall times (ns), by history index
	stats   core.Stats
	nodes   int
	opaque  int
	errors  int // verdicts with an error, budget exhaustion included
	budget  int // verdicts that exhausted the node budget
}

// pass checks the whole corpus once on a fresh pool of the given width.
// With tr set it records, for request reqBase+i (history i), the
// request span from admission to verdict line emitted and its parse,
// check and line children. visit, if set, sees every verdict as it is
// emitted (verification only; it runs inside the pass).
func (b *batchWork) pass(workers int, tr *tracer, reqBase int32, visit func(checkpool.Verdict)) passResult {
	n := len(b.lines)
	res := passResult{lines: make([]string, n), latency: make([]int64, n)}
	// The checker call learns its history's index from the parsed
	// history's first event, the only handle the pool passes through.
	var indexOf sync.Map
	index := func(h history.History) int {
		if len(h) > 0 {
			if i, ok := indexOf.LoadAndDelete(&h[0]); ok {
				return i.(int)
			}
		}
		return -1
	}
	var reqStart []int64
	if tr != nil {
		reqStart = make([]int64, n)
	}
	opts := checkpool.Options{Workers: workers, Stats: &res.stats}
	if b.shared {
		opts.SharedContext = core.NewSharedTables()
	}
	opts.Check = func(h history.History, cfg core.Config) (core.Result, error) {
		start := time.Now()
		r, err := core.Check(h, cfg)
		end := time.Now()
		i := index(h)
		if i >= 0 {
			res.latency[i] = int64(end.Sub(start))
		}
		if tr != nil {
			tr.add(span{kind: spanCheck, parent: spanRequest, req: reqBase + int32(i), start: tr.at(start), end: tr.at(end)})
		}
		return r, err
	}

	start, cpu0 := time.Now(), cpuTime()
	in := make(chan checkpool.Item)
	go func() {
		defer close(in)
		for i, line := range b.lines {
			t0 := time.Now()
			h, err := history.Parse(line)
			if tr != nil {
				reqStart[i] = tr.at(t0)
				tr.add(span{kind: spanParse, parent: spanRequest, req: reqBase + int32(i), start: reqStart[i], end: tr.now()})
			}
			if len(h) > 0 {
				indexOf.Store(&h[0], i)
			}
			in <- checkpool.Item{Source: b.sources[i], History: h, Err: err}
		}
	}()
	for v := range checkpool.New(opts).Run(in) {
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		res.lines[v.Index] = v.Line()
		if tr != nil {
			t1 := tr.now()
			req := reqBase + int32(v.Index)
			tr.add(span{kind: spanLine, parent: spanRequest, req: req, start: t0, end: t1})
			tr.add(span{kind: spanRequest, parent: spanNone, req: req, start: reqStart[v.Index], end: t1})
		}
		res.nodes += v.Result.Nodes
		switch {
		case v.Err != nil:
			res.errors++
			if errors.Is(v.Err, core.ErrSearchLimit) {
				res.budget++
			}
		case v.Result.Opaque:
			res.opaque++
		}
		if visit != nil {
			visit(v)
		}
	}
	res.wall, res.cpu = time.Since(start), cpuTime()-cpu0
	return res
}

// batchPhase aggregates the passes of one timed phase.
type batchPhase struct {
	passes   int
	requests int64
	failed   int64 // errored verdicts, plus verdicts that differ from the first pass
	passSeries
	checkNs  int64
	wall     time.Duration
	stats    core.Stats
	nodesMin int
	nodesMax int
	first    []string // the first pass's verdict lines
	rt       runtimeUse
}

// timed adds passes to ph until seconds have elapsed (at least one
// pass). It compares every pass's verdicts with the phase's first pass,
// outside the measured intervals.
func (b *batchWork) timed(ph *batchPhase, workers int, seconds float64, tr *tracer) {
	before := sampleRuntime()
	begin := time.Now()
	for n := 0; n == 0 || time.Since(begin).Seconds() < seconds; n++ {
		r := b.pass(workers, tr, int32(ph.passes*len(b.lines)), nil)
		ph.passes++
		ph.requests += int64(len(b.lines))
		ph.failed += int64(r.errors)
		ph.add(r.wall, r.cpu, r.latency)
		for _, d := range r.latency {
			ph.checkNs += d
		}
		ph.wall += r.wall
		ph.stats.Add(r.stats)
		if ph.first == nil {
			ph.first, ph.nodesMin, ph.nodesMax = r.lines, r.nodes, r.nodes
		} else {
			ph.failed += int64(countMismatches(ph.first, r.lines))
			ph.nodesMin, ph.nodesMax = min(ph.nodesMin, r.nodes), max(ph.nodesMax, r.nodes)
		}
		ph.rt.noteHeap()
	}
	ph.rt.add(before, sampleRuntime())
}

// verdictKey drops the node count from a verdict line: which worker's
// memo a structurally repeated search problem hits first varies between
// runs, and with it the nodes a search explores, but never the verdict
// or the witness order.
func verdictKey(line string) string {
	i := strings.Index(line, " nodes=")
	if i < 0 {
		return line
	}
	j := strings.IndexByte(line[i+1:], ' ')
	if j < 0 {
		return line[:i]
	}
	return line[:i] + line[i+1+j:]
}

// countMismatches counts the lines whose verdicts differ.
func countMismatches(want, got []string) int {
	bad := 0
	for i := range want {
		if i >= len(got) || verdictKey(want[i]) != verdictKey(got[i]) {
			bad++
		}
	}
	return bad + max(0, len(got)-len(want))
}

// batchCounts are the exact work counts of a one-worker pass in input
// order, which depend on nothing but the inputs.
type batchCounts struct {
	histories, opaque, nonOpaque, errors, budget int
	nodes                                        int
	stats                                        core.Stats
}

func (c batchCounts) String() string {
	s := c.stats
	return fmt.Sprintf("histories=%d opaque=%d non_opaque=%d errors=%d budget_exhausted=%d nodes=%d sym_classes=%d sym_prunes=%d legal_skips=%d memo_hits=%d memo_entries=%d trans_hits=%d states=%d",
		c.histories, c.opaque, c.nonOpaque, c.errors, c.budget, c.nodes, s.SymClasses, s.SymPrunes, s.LegalSkips, s.MemoHits, s.MemoEntries, s.TransHits, s.States)
}

// verify runs one untimed one-worker pass in input order and checks
// every verdict: the certificate of each opaque one, opacity of every
// recorded history, agreement with the timed passes' verdicts (first),
// and the DisableMemo reference verdict on a seeded sample of the
// non-opaque ones. injectWrong flips one expected verdict. It returns
// the exact work counts and the number of failed checks, printing each
// failure to log.
func (b *batchWork) verify(seed int64, first []string, injectWrong bool, log io.Writer) (batchCounts, int64) {
	var failed int64
	fail := func(n int64, format string, args ...any) {
		if failed < 10 {
			fmt.Fprintf(log, "verify: FAIL "+format+"\n", args...)
		}
		failed += n
	}
	var nonOpaque []int
	var certified int
	r := b.pass(1, nil, 0, func(v checkpool.Verdict) {
		i := v.Index
		if v.Err != nil {
			fail(1, "%s: %v", v.Source, v.Err)
			return
		}
		h, err := history.Parse(b.lines[i])
		if err != nil {
			fail(1, "%s: reparse: %v", v.Source, err)
			return
		}
		wantOpaque := v.Result.Opaque
		if b.name == "recorded" {
			wantOpaque = true
		}
		if injectWrong && i == 0 {
			wantOpaque = !wantOpaque
		}
		if v.Result.Opaque != wantOpaque {
			fail(1, "%s: verdict opaque=%v, expected opaque=%v", v.Source, v.Result.Opaque, wantOpaque)
			return
		}
		if !v.Result.Opaque {
			nonOpaque = append(nonOpaque, i)
			return
		}
		if err := checkCertificate(h, v.Result.Witness); err != nil {
			fail(1, "%s: certificate: %v", v.Source, err)
			return
		}
		certified++
	})
	if first != nil {
		if bad := countMismatches(r.lines, first); bad > 0 {
			fail(int64(bad), "%d timed verdicts differ from the verification pass", bad)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(nonOpaque), func(i, j int) { nonOpaque[i], nonOpaque[j] = nonOpaque[j], nonOpaque[i] })
	sample := nonOpaque[:min(referenceSample, len(nonOpaque))]
	for _, i := range sample {
		h, err := history.Parse(b.lines[i])
		if err != nil {
			fail(1, "%s: reparse: %v", b.sources[i], err)
			continue
		}
		ref, err := core.Check(h, core.Config{DisableMemo: true})
		if err != nil {
			fail(1, "%s: reference: %v", b.sources[i], err)
			continue
		}
		if ref.Opaque {
			fail(1, "%s: non-opaque, but the reference engine finds it opaque", b.sources[i])
		}
	}
	fmt.Fprintf(log, "verify: %d verdicts, %d certificates valid, %d reference re-decisions, %d failures\n",
		len(b.lines), certified, len(sample), failed)
	counts := batchCounts{
		histories: len(b.lines), opaque: r.opaque, nonOpaque: len(b.lines) - r.opaque - r.errors,
		errors: r.errors, budget: r.budget, nodes: r.nodes, stats: r.stats,
	}
	return counts, failed
}

// checkCertificate checks Definition 1's certificate for h: the
// sequential witness is equivalent to the chosen completion, preserves
// h's real-time order, and every transaction in it is legal.
func checkCertificate(h history.History, w *core.Witness) error {
	switch {
	case w == nil:
		return errors.New("opaque verdict without a witness")
	case !w.Sequential.Sequential():
		return errors.New("witness is not sequential")
	case !history.Equivalent(w.Completion, w.Sequential):
		return errors.New("witness is not equivalent to the completion")
	case !history.PreservesRealTimeOrder(h, w.Sequential):
		return errors.New("witness does not preserve the real-time order")
	}
	if tx, ok := core.AllLegal(w.Sequential, nil); !ok {
		return fmt.Errorf("T%d is not legal in the witness", tx)
	}
	return nil
}
