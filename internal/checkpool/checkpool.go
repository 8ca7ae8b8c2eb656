// Package checkpool is the one batch-checking path. Definition 1 is
// decided one history at a time, so a batch needs three steps around the
// checker of internal/core: Lines reads an input, one history per line;
// Pool.RunTo checks the items of a sequence on a worker pool and hands
// the verdicts to a sink in input order; Tally counts them for the
// batch's totals line. `opacheck -parallel` and every `otmd` worker are
// these three calls.
//
// At most 4×Workers items are admitted but not yet delivered, so memory
// stays bounded whatever the batch size, and each history gets its own
// search-node budget, so one pathological input reports ErrSearchLimit
// instead of stalling the batch. A cancelled run, or one whose sink
// fails, stops pulling input, and every pool goroutine has exited when
// RunTo returns.
//
// All workers of a run share one set of search tables (core.SharedTables):
// Options.SharedContext when given, otherwise a fresh set per run, so
// each distinct state, signature and transition is interned once rather
// than once per worker, and every worker reuses every other worker's
// cached transitions.
package checkpool

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"iter"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"otm/internal/core"
	"otm/internal/history"
)

// Item is one unit of batch-checking work. Source carries an optional
// label (input line, file position) that travels to the Verdict
// untouched. A non-nil Err marks an item that already failed upstream —
// typically a parse error — which the pool passes through as an errored
// Verdict so the output stream stays aligned with the input stream.
type Item struct {
	Source  string
	History history.History
	Err     error
}

// Verdict is the outcome of checking one Item. Index is the item's
// 0-based position in the input stream; verdicts are always emitted in
// increasing Index order.
type Verdict struct {
	Index  int
	Source string
	Result core.Result
	Err    error
}

// Opaque reports whether the item was checked successfully and found
// opaque.
func (v Verdict) Opaque() bool { return v.Err == nil && v.Result.Opaque }

// Line renders the verdict in the canonical one-line batch format, the
// one `opacheck -parallel` prints and distributed verdict logs store:
//
//	corpus.txt:3 opaque nodes=42 order="T1 T2"
//	corpus.txt:4 non-opaque nodes=97
//	corpus.txt:5 error parse: bad token "zzz"
//
// Keeping the rendering here — next to the Verdict — is what makes a
// merged distributed log byte-comparable with a single-process run: both
// paths print exactly this. It is built by strconv appends into one
// buffer, byte for byte what fmt's %s, %d and %q verbs render.
func (v Verdict) Line() string {
	b := make([]byte, 0, len(v.Source)+48)
	b = append(b, v.Source...)
	switch {
	case v.Err != nil:
		b = append(b, " error "...)
		b = append(b, v.Err.Error()...)
	case v.Result.Opaque:
		b = append(b, " opaque nodes="...)
		b = strconv.AppendInt(b, int64(v.Result.Nodes), 10)
		b = append(b, " order="...)
		if w := v.Result.Witness; w != nil {
			b = strconv.AppendQuote(b, w.String())
		} else {
			b = append(b, "<nil>"...) // what %q prints for a nil *Witness
		}
	default:
		b = append(b, " non-opaque nodes="...)
		b = strconv.AppendInt(b, int64(v.Result.Nodes), 10)
	}
	return string(b)
}

// Options tunes a Pool.
type Options struct {
	// Workers is the number of concurrent checkers (default GOMAXPROCS;
	// values < 1 mean the default). The window — items admitted but not
	// yet delivered — is 4×Workers: a million-history batch holds at
	// most that many histories and verdicts at a time.
	Workers int
	// Config is the per-history checker configuration: object semantics
	// and the search-node budget applied to each history independently.
	// Config.Context is ignored: SearchContexts are single-goroutine, so
	// the pool provisions one context per worker over the run's table set
	// instead, and the interned states and cached transitions are
	// amortized across every history of the run. Each search keeps its
	// own failure memo, so a verdict, node count included, does not
	// depend on the worker count or the check order.
	Config core.Config
	// Check overrides the checker (default core.Check with Config).
	// Useful to batch-check other criteria, e.g. core.CheckStrong.
	Check func(history.History, core.Config) (core.Result, error)
	// Stats, when non-nil, accumulates the search-context statistics of
	// every worker. It is written under the pool's lock as each worker
	// retires and is safe to read once RunTo or CheckAll has returned,
	// or Run's verdict channel has closed. Each table insert is counted
	// by the one context that made it, so the sum counts the run's
	// inserts exactly once, whatever the worker count.
	Stats *core.Stats
	// SharedContext, when non-nil, is the table set every worker's
	// SearchContext runs on; nil gives each run a fresh set. Passing one
	// set to several runs — sequentially or concurrently — carries
	// interned states and cached transitions from one run to the next.
	// Ignored under Config.DisableMemo (the reference path uses no
	// context at all).
	SharedContext *core.SharedTables
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Check == nil {
		o.Check = core.Check
	}
	return o
}

// Pool is a reusable batch-checking configuration. The zero value is
// valid and uses the defaults of Options.
type Pool struct {
	opts Options
}

// New returns a Pool with the given options. Options are stored as
// given; defaults are resolved once per run (in RunTo), so
// New(Options{}), new(Pool) and &Pool{} are interchangeable — the
// equivalence is pinned by TestZeroValuePool.
func New(opts Options) *Pool { return &Pool{opts: opts} }

// RunTo checks every item of items and delivers each verdict, in input
// order, to sink. It pulls items on a goroutine of its own, as window
// slots free up, and calls sink from the caller's goroutine only, never
// concurrently.
//
// A nil return means the input was exhausted and every verdict was
// delivered. Cancelling ctx stops admission: items already admitted are
// still checked and delivered in order and without gaps, the input is
// not advanced further, and RunTo returns ctx's error. The first sink
// error stops admission the same way, is returned, and the remaining
// admitted verdicts are dropped undelivered — so a failed writer
// surfaces loudly instead of silently losing the tail of the verdict
// stream, and a distributed worker can fail its shard lease cleanly
// rather than report a partial log as complete. Every pool goroutine
// has exited, and items is no longer running, when RunTo returns.
func (p *Pool) RunTo(ctx context.Context, items iter.Seq[Item], sink func(Verdict) error) error {
	opts := p.opts.withDefaults()
	admit, stop := context.WithCancel(ctx)
	defer stop()

	type job struct {
		idx  int
		item Item
		res  chan<- Verdict
	}
	work := make(chan job)
	// order queues one single-slot result channel per admitted item, in
	// input order. With the one the reorder loop is waiting on, at most
	// 4×Workers items are admitted but not yet delivered: the window.
	order := make(chan chan Verdict, 4*opts.Workers-1)

	// Workers: check admitted items. Each worker owns a SearchContext
	// over the run's one table set, so interning and caching amortize
	// across the whole batch.
	tables := opts.SharedContext
	if tables == nil && !opts.Config.DisableMemo {
		tables = core.NewSharedTables()
	}
	var wg sync.WaitGroup
	var statsMu sync.Mutex
	wg.Add(opts.Workers)
	for range opts.Workers {
		go func() {
			defer wg.Done()
			cfg := opts.Config
			cfg.Context = nil
			if !cfg.DisableMemo {
				cfg.Context = tables.NewContext()
			}
			for j := range work {
				v := Verdict{Index: j.idx, Source: j.item.Source, Err: j.item.Err}
				if v.Err == nil {
					v.Result, v.Err = opts.Check(j.item.History, cfg)
				}
				j.res <- v
			}
			if opts.Stats != nil && cfg.Context != nil {
				statsMu.Lock()
				opts.Stats.Add(cfg.Context.Stats())
				statsMu.Unlock()
			}
		}()
	}

	// Admission: take a window slot for each item, then hand it to a
	// worker. ctx is checked before each pull, not left to the select,
	// which picks at random when a slot and the cancellation are both
	// ready: a cancelled run pulls no further item.
	go func() {
		defer close(work)
		defer close(order)
		if admit.Err() != nil {
			return
		}
		idx := 0
		for item := range items {
			res := make(chan Verdict, 1)
			select {
			case order <- res:
			case <-admit.Done():
				return
			}
			work <- job{idx: idx, item: item, res: res}
			idx++
			if admit.Err() != nil {
				return
			}
		}
	}()

	// Reorder: wait for the verdicts in admission order.
	var sinkErr error
	for res := range order {
		v := <-res
		if sinkErr == nil {
			if sinkErr = sink(v); sinkErr != nil {
				stop()
			}
		}
	}
	wg.Wait()
	if sinkErr != nil {
		return sinkErr
	}
	return ctx.Err()
}

// Run checks every item arriving on in and returns a channel of verdicts
// in input order, closed once all input has been checked and emitted.
// It is RunTo over a channel, for callers that range over verdicts: the
// caller must drain the returned channel for the pool to make progress,
// since emission back-pressures admission, and in must be closed.
func (p *Pool) Run(in <-chan Item) <-chan Verdict {
	out := make(chan Verdict)
	go func() {
		defer close(out)
		items := func(yield func(Item) bool) {
			for item := range in {
				if !yield(item) {
					return
				}
			}
		}
		p.RunTo(context.Background(), items, func(v Verdict) error {
			out <- v
			return nil
		})
	}()
	return out
}

// CheckAll runs the pool over a fixed slice and collects every verdict.
// The result is indexed like hs.
func (p *Pool) CheckAll(hs []history.History) []Verdict {
	verdicts := make([]Verdict, 0, len(hs))
	items := func(yield func(Item) bool) {
		for _, h := range hs {
			if !yield(Item{History: h}) {
				return
			}
		}
	}
	p.RunTo(context.Background(), items, func(v Verdict) error {
		verdicts = append(verdicts, v)
		return nil
	})
	return verdicts
}

// Lines reads r as a batch input, one history per line, and yields one
// item per history line: each line is trimmed, blank lines and lines
// starting with '#' yield nothing, and every other line yields an item
// labeled "label:N", the first line of r being line first, that holds
// the parsed history or its parse error. Lines are read without a
// length cap, so one oversized line cannot silently end the input.
//
// A read error ends the sequence with one errored item labeled with the
// line it cut (the cut line itself is not checked), so a batch printer
// reports it in-line. When readErr is non-nil the error is also stored
// there, for a caller that must fail the whole input instead.
func Lines(r io.Reader, label string, first int, readErr *error) iter.Seq[Item] {
	return func(yield func(Item) bool) {
		br := bufio.NewReader(r)
		for n := first; ; n++ {
			line, err := br.ReadString('\n')
			if err != nil && err != io.EOF {
				if readErr != nil {
					*readErr = err
				}
				yield(Item{Source: label + ":" + strconv.Itoa(n), Err: err})
				return
			}
			if line = strings.TrimSpace(line); line != "" && line[0] != '#' {
				item := Item{Source: label + ":" + strconv.Itoa(n)}
				item.History, item.Err = history.Parse(line)
				if !yield(item) {
					return
				}
			}
			if err == io.EOF {
				return
			}
		}
	}
}

// Tally counts a batch's verdicts. It is the one set of totals opacheck,
// the dist workers' done records and run stats, and the coordinator's
// status share; the JSON tags are the store's and the status API's
// field names.
type Tally struct {
	Histories int `json:"histories"`
	Opaque    int `json:"opaque"`
	NonOpaque int `json:"non_opaque"`
	Errored   int `json:"errored"`
	Nodes     int `json:"nodes"`
}

// Add counts one verdict.
func (t *Tally) Add(v Verdict) {
	t.Histories++
	t.Nodes += v.Result.Nodes
	switch {
	case v.Err != nil:
		t.Errored++
	case v.Result.Opaque:
		t.Opaque++
	default:
		t.NonOpaque++
	}
}

// Merge adds another tally's counts.
func (t *Tally) Merge(o Tally) {
	t.Histories += o.Histories
	t.Opaque += o.Opaque
	t.NonOpaque += o.NonOpaque
	t.Errored += o.Errored
	t.Nodes += o.Nodes
}

// String renders the totals line every batch summary prints:
//
//	5 histories: 3 opaque, 1 non-opaque, 1 errors; 139 search nodes
//
// A type that embeds Tally prints through it under %v; use %#v to see
// the whole value.
func (t Tally) String() string {
	return fmt.Sprintf("%d histories: %d opaque, %d non-opaque, %d errors; %d search nodes",
		t.Histories, t.Opaque, t.NonOpaque, t.Errored, t.Nodes)
}

// Summary renders the search-table and reduction counters of a batch
// run as the one summary line `opacheck -parallel` and every otmd
// worker print after their totals.
func Summary(s core.Stats) string {
	return fmt.Sprintf("search tables: %d states interned (%d object atoms), %d memo entries (%d hits, %d misses), %d transitions cached (%d hits), %d rebuilds; reductions: %d symmetry classes, %d sym prunes",
		s.States, s.Atoms, s.MemoEntries, s.MemoHits, s.MemoMisses, s.TransMisses, s.TransHits, s.Flushes,
		s.SymClasses, s.SymPrunes)
}
