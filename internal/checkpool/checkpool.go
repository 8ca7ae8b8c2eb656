// Package checkpool verifies batches of transactional histories
// concurrently. It wraps the Definition 1 checker of internal/core in a
// worker pool with bounded memory: histories stream in, verdicts stream
// out in input order, and at most a fixed window of them is in flight at
// any moment regardless of the batch size. Each history gets its own
// search-node budget, so one pathological input exhausts its budget and
// reports ErrSearchLimit instead of stalling the whole batch.
//
// The pool is the engine behind `opacheck -parallel` and the
// "check a million histories" workload: feed it a channel of items
// (e.g. parsed from files or stdin) and range over the verdicts.
// RunContext supports cooperative cancellation: admitted histories are
// finished and emitted in order, the rest of the input is discarded, and
// every pool goroutine exits.
//
// All workers of a run share one set of search tables (core.SharedTables):
// Options.SharedContext when given, otherwise a fresh set per run. The
// pool therefore interns each distinct state, signature and transition
// once rather than once per worker, and every worker reuses every other
// worker's cached transitions.
package checkpool

import (
	"context"
	"fmt"
	"runtime"
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
// paths print exactly this.
func (v Verdict) Line() string {
	switch {
	case v.Err != nil:
		return fmt.Sprintf("%s error %v", v.Source, v.Err)
	case v.Result.Opaque:
		return fmt.Sprintf("%s opaque nodes=%d order=%q", v.Source, v.Result.Nodes, v.Result.Witness)
	default:
		return fmt.Sprintf("%s non-opaque nodes=%d", v.Source, v.Result.Nodes)
	}
}

// Options tunes a Pool.
type Options struct {
	// Workers is the number of concurrent checkers (default GOMAXPROCS;
	// values < 1 mean the default).
	Workers int
	// Window bounds the number of items admitted but not yet emitted
	// (default 4×Workers). Together with streaming input this caps the
	// pool's memory: a million-history batch holds at most Window
	// histories and verdicts at a time.
	Window int
	// Config is the per-history checker configuration: object semantics
	// and the search-node budget applied to each history independently.
	// Config.Context is ignored: SearchContexts are single-goroutine, so
	// the pool provisions one context per worker over the run's table set
	// instead, and the interned states, cached transitions and memo
	// entries are amortized across every history of the run.
	Config core.Config
	// Check overrides the checker (default core.Check with Config).
	// Useful to batch-check other criteria, e.g. core.CheckStrong.
	Check func(history.History, core.Config) (core.Result, error)
	// Stats, when non-nil, accumulates the search-context statistics of
	// every worker. It is written under the pool's lock as each worker
	// retires and is safe to read once the verdict channel has closed
	// (CheckAll and `for range Run(in)` both guarantee that). Each table
	// insert is counted by the one context that made it, so the sum
	// counts the run's inserts exactly once, whatever the worker count.
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
	if o.Window < 1 {
		o.Window = 4 * o.Workers
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
// given; defaults are resolved once per run (in RunContext), so
// New(Options{}), new(Pool) and &Pool{} are interchangeable — the
// equivalence is pinned by TestZeroValuePool.
func New(opts Options) *Pool { return &Pool{opts: opts} }

// Run checks every item arriving on in and returns a channel of verdicts
// in input order. The verdict channel closes once all input has been
// checked and emitted. Run returns immediately; the caller must drain
// the returned channel (or consume it fully) for the pool to make
// progress, since emission back-pressures admission. It is shorthand for
// RunContext with a background context.
func (p *Pool) Run(in <-chan Item) <-chan Verdict {
	return p.RunContext(context.Background(), in)
}

// RunContext is Run under a cancellable context. Cancelling ctx stops
// the admission of new items: every item already admitted is still
// checked and its verdict emitted, in input order and without gaps, and
// then the verdict channel closes. Items not yet admitted are read from
// in and discarded — so a producer blocked sending to in always
// unblocks — but in must still be closed eventually for the drain (and
// therefore the pool's goroutines) to finish. The caller must keep
// draining the verdict channel after cancellation.
func (p *Pool) RunContext(ctx context.Context, in <-chan Item) <-chan Verdict {
	opts := p.opts.withDefaults()

	type job struct {
		idx  int
		item Item
	}
	work := make(chan job)
	results := make(chan Verdict, opts.Window)
	out := make(chan Verdict)
	// tickets bounds the admitted-but-not-emitted window, and therefore
	// the size of the reorder buffer below.
	tickets := make(chan struct{}, opts.Window)

	// Dispatcher: admit items as window slots free up; once ctx is
	// cancelled, stop admitting and drain in so producers never block on
	// a cancelled pool.
	go func() {
		defer close(work)
		idx := 0
		done := ctx.Done()
		for {
			// Cancellation wins over a simultaneously ready item: a
			// cancelled pool never admits again.
			select {
			case <-done:
				for range in { // discard
				}
				return
			default:
			}
			select {
			case <-done:
				for range in { // discard
				}
				return
			case item, ok := <-in:
				if !ok {
					return
				}
				select {
				case tickets <- struct{}{}:
				case <-done:
					for range in { // discard, including this item's successors
					}
					return
				}
				work <- job{idx: idx, item: item}
				idx++
			}
		}
	}()

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
	for w := 0; w < opts.Workers; w++ {
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
				results <- v
			}
			if opts.Stats != nil && cfg.Context != nil {
				statsMu.Lock()
				opts.Stats.Add(cfg.Context.Stats())
				statsMu.Unlock()
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorderer: restore input order. The stash never exceeds the window
	// because each stashed verdict holds a ticket.
	go func() {
		defer close(out)
		stash := make(map[int]Verdict, opts.Window)
		next := 0
		for v := range results {
			stash[v.Index] = v
			for {
				pending, ok := stash[next]
				if !ok {
					break
				}
				delete(stash, next)
				out <- pending
				<-tickets
				next++
			}
		}
	}()

	return out
}

// Summary renders the search-table and reduction counters of a batch
// run as the one summary line `opacheck -parallel` and every otmd
// worker print after their totals.
func Summary(s core.Stats) string {
	return fmt.Sprintf("search tables: %d states interned (%d object atoms), %d memo entries (%d hits, %d misses), %d transitions cached (%d hits), %d rebuilds; reductions: %d symmetry classes, %d sym prunes, %d legality skips",
		s.States, s.Atoms, s.MemoEntries, s.MemoHits, s.MemoMisses, s.TransMisses, s.TransHits, s.Flushes,
		s.SymClasses, s.SymPrunes, s.LegalSkips)
}

// RunTo runs the pool over in and delivers every verdict, in input
// order, to sink. It is the error-propagating form of RunContext for
// batch consumers that write verdicts somewhere that can fail (a file, a
// storage backend, a network log): a sink error cancels the run, drains
// the remaining verdicts without delivering them, and is returned — so a
// failed writer surfaces loudly instead of silently dropping the tail of
// the verdict stream, and a distributed worker can fail its shard lease
// cleanly rather than report a partial log as complete.
//
// A nil return means the input was exhausted and every verdict was
// delivered to sink. Otherwise RunTo returns the first sink error if the
// sink failed, else ctx's error if the run was cancelled (admitted
// verdicts were still delivered in order; input not yet admitted was
// discarded). sink is called from RunTo's goroutine only, never
// concurrently.
func (p *Pool) RunTo(ctx context.Context, in <-chan Item, sink func(Verdict) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var sinkErr error
	for v := range p.RunContext(ctx, in) {
		if sinkErr != nil {
			continue // drain: admitted verdicts still flow, undelivered
		}
		if err := sink(v); err != nil {
			sinkErr = err
			cancel()
		}
	}
	if sinkErr != nil {
		return sinkErr
	}
	return ctx.Err()
}

// CheckAll runs the pool over a fixed slice and collects every verdict.
// The result is indexed like hs.
func (p *Pool) CheckAll(hs []history.History) []Verdict {
	in := make(chan Item)
	go func() {
		for _, h := range hs {
			in <- Item{History: h}
		}
		close(in)
	}()
	verdicts := make([]Verdict, 0, len(hs))
	for v := range p.Run(in) {
		verdicts = append(verdicts, v)
	}
	return verdicts
}
