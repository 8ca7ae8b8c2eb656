package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"otm/internal/storage"
)

// CoordinatorOptions tunes a Coordinator.
type CoordinatorOptions struct {
	// StoreURI is handed to workers so they can resolve the shared store
	// themselves (file:// for multi-process runs, mem:// in-process).
	StoreURI string
	// LeaseFor is how long a granted shard stays assigned without a
	// heartbeat (default 30s). Heartbeats extend it by the same amount.
	LeaseFor time.Duration
	// MaxRetries bounds how many times one shard may be requeued —
	// lease expiries and explicit failures both count — before the whole
	// run is declared failed (default 3).
	MaxRetries int
	// Backoff is the base of the exponential backoff applied after an
	// explicit shard failure: the shard becomes leasable again after
	// Backoff << (retries-1) (default 250ms). Expired leases requeue
	// immediately — the worker died; another should take over at once.
	Backoff time.Duration
	// Logf receives progress lines (default: none).
	Logf func(format string, args ...any)
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.LeaseFor <= 0 {
		o.LeaseFor = 30 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = 250 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// shardQueueEntry is one pending shard: leasable once notBefore has
// passed.
type shardQueueEntry struct {
	shard     int
	retries   int
	notBefore time.Time
}

// activeLease is a granted, unexpired shard assignment.
type activeLease struct {
	id      string
	shard   int
	retries int
	worker  string
	expires time.Time
}

// Coordinator owns one run: it leases the manifest's pending shards to
// workers, requeues expired leases, checkpoints completions through the
// store, and streams the merged in-order verdict log. Construct with
// NewCoordinator (after Plan or LoadManifest+LoadCheckpoint), expose
// Handler over HTTP, and call MergeTo to block until the run completes.
type Coordinator struct {
	opts  CoordinatorOptions
	store storage.FS
	man   *Manifest

	mu      sync.Mutex
	cond    *sync.Cond // broadcast on completion, failure, requeue
	pending []shardQueueEntry
	leases  map[string]*activeLease
	cp      *Checkpoint
	nextID  int
	retries int    // total requeues, for Status
	failed  string // non-empty once the run is fatally failed
	started time.Time
}

// NewCoordinator resumes (or starts) the run described by man over
// store: shards with a committed done marker in cp are final, everything
// else is queued for leasing.
func NewCoordinator(store storage.FS, man *Manifest, cp *Checkpoint, opts CoordinatorOptions) *Coordinator {
	c := &Coordinator{
		opts:    opts.withDefaults(),
		store:   store,
		man:     man,
		leases:  map[string]*activeLease{},
		cp:      cp,
		started: time.Now(),
	}
	c.cond = sync.NewCond(&c.mu)
	for _, idx := range cp.Pending(man) {
		c.pending = append(c.pending, shardQueueEntry{shard: idx})
	}
	c.opts.Logf("dist: run %s: %d shards, %d already done, %d pending",
		man.Run, len(man.Shards), cp.NumDone(), len(c.pending))
	return c
}

// finished reports run completion (all shards done, or fatal failure).
// Callers hold c.mu.
func (c *Coordinator) finished() bool {
	return c.failed != "" || c.cp.NumDone() == len(c.man.Shards)
}

// sweep requeues expired leases. Callers hold c.mu.
func (c *Coordinator) sweep(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.expires) {
			continue
		}
		delete(c.leases, id)
		c.requeue(l, now, "lease expired", false)
	}
}

// requeue returns a lost shard to the queue, counting the attempt and
// failing the run once the retry bound is exhausted. Explicit failures
// back off exponentially; expiries requeue immediately. Callers hold
// c.mu.
func (c *Coordinator) requeue(l *activeLease, now time.Time, cause string, backoff bool) {
	retries := l.retries + 1
	c.retries++
	if retries > c.opts.MaxRetries {
		c.failed = fmt.Sprintf("shard %d: %s after %d attempts", l.shard, cause, retries)
		c.opts.Logf("dist: run failed: %s", c.failed)
		c.cond.Broadcast()
		return
	}
	entry := shardQueueEntry{shard: l.shard, retries: retries}
	if backoff {
		entry.notBefore = now.Add(c.opts.Backoff << (retries - 1))
	}
	c.pending = append(c.pending, entry)
	c.opts.Logf("dist: shard %d requeued (%s, attempt %d/%d)", l.shard, cause, retries, c.opts.MaxRetries+1)
	c.cond.Broadcast()
}

// grant leases the first leasable pending shard. Callers hold c.mu.
func (c *Coordinator) grant(worker string, now time.Time) *Lease {
	for i, e := range c.pending {
		if now.Before(e.notBefore) {
			continue
		}
		c.pending = append(c.pending[:i], c.pending[i+1:]...)
		c.nextID++
		l := &activeLease{
			id:      fmt.Sprintf("%s-%d-%d", c.man.Run, e.shard, c.nextID),
			shard:   e.shard,
			retries: e.retries,
			worker:  worker,
			expires: now.Add(c.opts.LeaseFor),
		}
		c.leases[l.id] = l
		c.opts.Logf("dist: shard %d leased to %s (%s)", e.shard, worker, l.id)
		hb := c.opts.LeaseFor / 3
		if hb < 10*time.Millisecond {
			hb = 10 * time.Millisecond
		}
		return &Lease{
			ID:              l.id,
			Shard:           c.man.Shards[e.shard],
			Gen:             c.man.Gen,
			Label:           c.man.Label,
			StoreURI:        c.opts.StoreURI,
			CounterObjs:     c.man.CounterObjs,
			MaxNodes:        c.man.MaxNodes,
			ExpiresMillis:   int(c.opts.LeaseFor / time.Millisecond),
			HeartbeatMillis: int(hb / time.Millisecond),
		}
	}
	return nil
}

// maxLeasePoll bounds how long one Lease call blocks waiting for a
// shard to become leasable (long poll). Kept well under typical HTTP
// client/server timeouts.
const maxLeasePoll = 500 * time.Millisecond

// Lease grants a shard to worker, or explains why not (done / failed /
// wait hint). When nothing is leasable — every pending shard is backing
// off, or all remaining work is leased out — the call long-polls up to
// maxLeasePoll: completions, failures and requeues broadcast on the
// coordinator's cond, so an idle worker reacts to them immediately
// instead of sleeping through the end of the run. It is the API behind
// POST /v1/lease.
func (c *Coordinator) Lease(worker string) LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	deadline := time.Now().Add(maxLeasePoll)
	for {
		now := time.Now()
		c.sweep(now)
		if c.finished() {
			return LeaseResponse{Done: true, RunFailed: c.failed}
		}
		if l := c.grant(worker, now); l != nil {
			return LeaseResponse{Lease: l}
		}
		if !now.Before(deadline) {
			return LeaseResponse{WaitMillis: 10}
		}
		// Sleep until the next scheduled event (a backoff ending, a
		// lease expiring, the poll deadline) or an explicit broadcast,
		// whichever comes first.
		wake := deadline
		for _, e := range c.pending {
			if e.notBefore.After(now) && e.notBefore.Before(wake) {
				wake = e.notBefore
			}
		}
		for _, l := range c.leases {
			if l.expires.Before(wake) {
				wake = l.expires
			}
		}
		t := time.AfterFunc(time.Until(wake)+time.Millisecond, c.cond.Broadcast)
		c.cond.Wait()
		t.Stop()
	}
}

// Heartbeat extends a lease; an unknown (expired, completed) lease is
// reported Ignored so the worker abandons the shard.
func (c *Coordinator) Heartbeat(leaseID string) Ack {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.leases[leaseID]
	if !ok {
		return Ack{OK: true, Ignored: true}
	}
	l.expires = time.Now().Add(c.opts.LeaseFor)
	return Ack{OK: true}
}

// Complete checkpoints a finished shard. Completion quoting a stale
// lease is acknowledged but ignored — the shard either completed under
// another lease already (first record wins) or will be re-checked.
func (c *Coordinator) Complete(leaseID string, rec DoneRecord) (Ack, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.leases[leaseID]
	if !ok {
		return Ack{OK: true, Ignored: true}, nil
	}
	if rec.Shard != l.shard {
		return Ack{}, fmt.Errorf("lease %s is for shard %d, not %d", leaseID, l.shard, rec.Shard)
	}
	// The done marker is committed before the lease is released: if the
	// marker write fails, the lease stands and the shard will be retried.
	if err := c.cp.Mark(c.store, rec); err != nil {
		return Ack{}, err
	}
	delete(c.leases, leaseID)
	c.opts.Logf("dist: shard %d done (%s, %d histories, %d nodes) [%d/%d]",
		rec.Shard, l.worker, rec.Histories, rec.Nodes, c.cp.NumDone(), len(c.man.Shards))
	c.cond.Broadcast()
	return Ack{OK: true}, nil
}

// Fail requeues a shard its worker could not finish.
func (c *Coordinator) Fail(leaseID, cause string) Ack {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.leases[leaseID]
	if !ok {
		return Ack{OK: true, Ignored: true}
	}
	delete(c.leases, leaseID)
	c.requeue(l, time.Now(), cause, true)
	return Ack{OK: true}
}

// Status snapshots run progress, aggregating the done records.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Status{
		Run:         c.man.Run,
		Shards:      len(c.man.Shards),
		ShardsDone:  c.cp.NumDone(),
		Leased:      len(c.leases),
		Retries:     c.retries,
		RunFailed:   c.failed,
		ElapsedSecs: time.Since(c.started).Seconds(),
	}
	for i := range c.man.Shards {
		if rec, ok := c.cp.Done(i); ok {
			s.Merge(rec.Tally)
		}
	}
	return s
}

// waitForShard blocks until shard idx has a done record or the run
// fails. The periodic wakeup keeps lease expiry moving even when no
// worker is polling (e.g. every worker died).
func (c *Coordinator) waitForShard(idx int) (DoneRecord, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if rec, ok := c.cp.Done(idx); ok {
			return rec, nil
		}
		if c.failed != "" {
			return DoneRecord{}, fmt.Errorf("dist: %s", c.failed)
		}
		c.sweep(time.Now())
		// Wake ourselves up for the sweep even if nothing signals.
		t := time.AfterFunc(200*time.Millisecond, c.cond.Broadcast)
		c.cond.Wait()
		t.Stop()
	}
}

// MergeTo streams the run's verdict lines to w in corpus order: shard
// 0's log as soon as shard 0 completes, then shard 1's, and so on —
// the distributed equivalent of `opacheck -parallel`'s in-order stdout
// stream, byte-identical to it for the same corpus. It blocks until
// every shard is merged or the run fails, and is the natural place to
// wait for completion. Already-merged prefixes are simply re-read from
// the logs, so a merge restarted after a coordinator kill redoes no
// checking, only copying.
func (c *Coordinator) MergeTo(w io.Writer) error {
	for idx := range c.man.Shards {
		rec, err := c.waitForShard(idx)
		if err != nil {
			return err
		}
		r, err := c.store.Open(rec.Log)
		if err != nil {
			return fmt.Errorf("dist: shard %d log: %w", idx, err)
		}
		_, err = io.Copy(w, r)
		r.Close()
		if err != nil {
			return fmt.Errorf("dist: merging shard %d: %w", idx, err)
		}
	}
	return nil
}

// Handler exposes the coordinator API over HTTP; see proto.go for the
// wire types.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", func(rw http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decode(rw, r, &req) {
			return
		}
		reply(rw, c.Lease(req.Worker))
	})
	mux.HandleFunc("POST /v1/heartbeat", func(rw http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decode(rw, r, &req) {
			return
		}
		reply(rw, c.Heartbeat(req.Lease))
	})
	mux.HandleFunc("POST /v1/complete", func(rw http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decode(rw, r, &req) {
			return
		}
		ack, err := c.Complete(req.Lease, req.Record)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		reply(rw, ack)
	})
	mux.HandleFunc("POST /v1/fail", func(rw http.ResponseWriter, r *http.Request) {
		var req FailRequest
		if !decode(rw, r, &req) {
			return
		}
		reply(rw, c.Fail(req.Lease, req.Error))
	})
	mux.HandleFunc("GET /v1/status", func(rw http.ResponseWriter, r *http.Request) {
		reply(rw, c.Status())
	})
	return mux
}

func decode(rw http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(rw, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func reply(rw http.ResponseWriter, v any) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(v)
}
