package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"net/http"
	"strings"
	"time"

	"otm/internal/checkpool"
	"otm/internal/core"
	"otm/internal/gen"
	"otm/internal/spec"
	"otm/internal/storage"
)

// Worker pulls shard leases from a coordinator, checks them on a
// checkpool.Pool, writes each shard's verdict log to the shared store
// (atomically — a crashed or failed shard commits nothing), and reports
// back. It is the thin distributed wrapper around the batch checker: one
// worker process is morally one `opacheck -parallel` whose input arrives
// in leased slices, and all of its shards run on one set of search
// tables, so states are interned once per worker process instead of once
// per shard.
type Worker struct {
	// Coordinator is the coordinator's base URL (e.g.
	// "http://127.0.0.1:8077").
	Coordinator string
	// Name identifies the worker in coordinator logs (default "worker").
	Name string
	// Parallel is the checkpool width per shard (default 1: distributed
	// runs usually scale by adding workers, not by widening one).
	Parallel int
	// HTTP overrides the API client (default http.DefaultClient).
	HTTP *http.Client
	// Logf receives progress lines (default: none).
	Logf func(format string, args ...any)
	// ConnectGrace bounds how long transient coordinator errors
	// (connection refused at startup, restarts) are retried before the
	// worker gives up (default 15s).
	ConnectGrace time.Duration

	// store caches the resolved StoreURI.
	store    storage.FS
	storeURI string
	tables   *core.SharedTables
	// search accumulates the shards' search-context counters.
	search core.Stats
}

// RunStats summarizes a worker's run: the same per-worker totals and
// search-table counters `opacheck -parallel` prints in its summary.
type RunStats struct {
	Shards int
	checkpool.Tally
	// Search aggregates the checkpool search-context counters across
	// all shards.
	Search core.Stats
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Run processes leases until the coordinator reports the run done, ctx
// is cancelled, or the coordinator becomes unreachable past
// ConnectGrace. The returned stats cover everything this worker checked,
// including the aggregated search-table counters.
func (w *Worker) Run(ctx context.Context) (stats RunStats, err error) {
	defer func() { stats.Search = w.search }()
	if w.Name == "" {
		w.Name = "worker"
	}
	if w.Parallel < 1 {
		w.Parallel = 1
	}
	if w.HTTP == nil {
		w.HTTP = http.DefaultClient
	}
	if w.ConnectGrace <= 0 {
		w.ConnectGrace = 15 * time.Second
	}
	w.tables = core.NewSharedTables()

	downSince := time.Time{}
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		var resp LeaseResponse
		err := w.post(ctx, "/v1/lease", LeaseRequest{Worker: w.Name}, &resp)
		if err != nil {
			// Transient coordinator outages (startup races, restarts
			// from checkpoint) are retried within the grace window.
			if downSince.IsZero() {
				downSince = time.Now()
			}
			if time.Since(downSince) > w.ConnectGrace {
				return stats, fmt.Errorf("dist: coordinator unreachable for %v: %w", w.ConnectGrace, err)
			}
			if !sleep(ctx, 200*time.Millisecond) {
				return stats, ctx.Err()
			}
			continue
		}
		downSince = time.Time{}
		switch {
		case resp.Done && resp.RunFailed != "":
			w.logf("dist: %s: run failed: %s", w.Name, resp.RunFailed)
			return stats, fmt.Errorf("dist: run failed: %s", resp.RunFailed)
		case resp.Done:
			w.logf("dist: %s: run complete (%d shards, %d histories checked here)", w.Name, stats.Shards, stats.Histories)
			return stats, nil
		case resp.Lease == nil:
			wait := time.Duration(resp.WaitMillis) * time.Millisecond
			if wait <= 0 {
				wait = 100 * time.Millisecond
			}
			if !sleep(ctx, wait) {
				return stats, ctx.Err()
			}
		default:
			w.processShard(ctx, resp.Lease, &stats)
		}
	}
}

// processShard checks one leased shard end to end. Failures — storage,
// sink writes, cancellation — abort the uncommitted log and report
// /v1/fail so the coordinator requeues the shard cleanly instead of
// trusting a partial log.
func (w *Worker) processShard(ctx context.Context, lease *Lease, stats *RunStats) {
	shardCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Heartbeats keep the lease alive for as long as the shard is being
	// checked; a lease the coordinator no longer recognizes cancels the
	// work (it has been reassigned — finishing it would be wasted).
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		period := time.Duration(lease.HeartbeatMillis) * time.Millisecond
		if period <= 0 {
			period = time.Second
		}
		for {
			if !sleep(shardCtx, period) {
				return
			}
			var ack Ack
			if err := w.post(shardCtx, "/v1/heartbeat", HeartbeatRequest{Lease: lease.ID}, &ack); err == nil && ack.Ignored {
				w.logf("dist: %s: lease %s expired under us; dropping shard %d", w.Name, lease.ID, lease.Shard.Index)
				cancel()
				return
			}
		}
	}()
	defer func() { cancel(); <-hbDone }()

	rec, err := w.checkShard(shardCtx, lease)
	if err != nil {
		w.logf("dist: %s: shard %d failed: %v", w.Name, lease.Shard.Index, err)
		var ack Ack
		// Best effort over the parent ctx: shardCtx may be the cause.
		if err2 := w.post(ctx, "/v1/fail", FailRequest{Lease: lease.ID, Error: err.Error()}, &ack); err2 != nil {
			w.logf("dist: %s: reporting failure: %v", w.Name, err2)
		}
		return
	}
	var ack Ack
	if err := w.post(ctx, "/v1/complete", CompleteRequest{Lease: lease.ID, Record: rec}, &ack); err != nil {
		w.logf("dist: %s: reporting completion of shard %d: %v", w.Name, lease.Shard.Index, err)
		return
	}
	if ack.Ignored {
		w.logf("dist: %s: shard %d completion ignored (lease lost)", w.Name, lease.Shard.Index)
		return
	}
	stats.Shards++
	stats.Merge(rec.Tally)
}

// checkShard runs the shard through the pool and commits its verdict
// log. The log commit happens before the done record is built, so a
// record reported complete always names a fully committed log; a shard
// whose input cannot be read in full commits nothing.
func (w *Worker) checkShard(ctx context.Context, lease *Lease) (DoneRecord, error) {
	store, err := w.resolveStore(lease.StoreURI)
	if err != nil {
		return DoneRecord{}, err
	}
	// File shards are the lines of their input object, labeled with
	// the corpus-global line number so merged logs match a
	// single-process run byte for byte.
	var items iter.Seq[checkpool.Item]
	var readErr error
	if lease.Gen != nil {
		items = genItems(lease)
	} else {
		r, err := store.Open(lease.Shard.Input)
		if err != nil {
			return DoneRecord{}, err
		}
		defer r.Close()
		items = checkpool.Lines(r, lease.Label, lease.Shard.StartLine, &readErr)
	}

	var poolStats core.Stats
	pool := checkpool.New(checkpool.Options{
		Workers: w.Parallel,
		Config: core.Config{
			Objects:  spec.ParseCounters(lease.CounterObjs),
			MaxNodes: lease.MaxNodes,
		},
		Stats:         &poolStats,
		SharedContext: w.tables,
	})

	logName := fmt.Sprintf(shardLogFmt, lease.Shard.Index, lease.ID)
	sink, err := store.Create(logName)
	if err != nil {
		return DoneRecord{}, err
	}
	rec := DoneRecord{Shard: lease.Shard.Index, Log: logName, Worker: w.Name}
	bw := bufio.NewWriter(sink)
	err = pool.RunTo(ctx, items, func(v checkpool.Verdict) error {
		rec.Add(v)
		_, err := bw.WriteString(v.Line() + "\n")
		return err
	})
	// Counted even if the shard fails: its inserts stay in the tables.
	w.search.Add(poolStats)
	if err == nil {
		err = readErr
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		sink.Abort()
		return DoneRecord{}, err
	}
	if err := sink.Close(); err != nil {
		return DoneRecord{}, err
	}
	return rec, nil
}

// genItems regenerates a generator shard's histories, labeled
// "label:j" with their corpus index j.
func genItems(lease *Lease) iter.Seq[checkpool.Item] {
	return func(yield func(checkpool.Item) bool) {
		cfg := lease.Gen.Config()
		for j := lease.Shard.Lo; j < lease.Shard.Hi; j++ {
			h := gen.History(cfg, lease.Gen.Seed+int64(j))
			if !yield(checkpool.Item{Source: fmt.Sprintf("%s:%d", lease.Label, j), History: h}) {
				return
			}
		}
	}
}

func (w *Worker) resolveStore(uri string) (storage.FS, error) {
	if w.store != nil && w.storeURI == uri {
		return w.store, nil
	}
	store, err := storage.Resolve(uri)
	if err != nil {
		return nil, err
	}
	w.store, w.storeURI = store, uri
	return store, nil
}

// post sends one API request and decodes the JSON response into out.
func (w *Worker) post(ctx context.Context, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimSuffix(w.Coordinator, "/")+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("dist: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sleep waits d or until ctx is done; it reports whether the full wait
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
