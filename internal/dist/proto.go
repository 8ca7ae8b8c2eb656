// Package dist is the sharded coordinator/worker batch-verification
// service: it partitions a history corpus into shards, leases shards to
// workers over an HTTP/JSON API, collects per-shard verdict logs written
// through storage.FS, and merges them into one in-order verdict stream
// that is byte-identical to a single-process `opacheck -parallel` run
// over the same corpus.
//
// The fault model is standard at-least-once dispatch: a shard lease that
// is not completed or heartbeat-extended before its deadline is requeued
// (a killed worker loses its shards, nothing else), explicit failures
// are retried with exponential backoff up to a bound, and every piece of
// durable state — the shard manifest, the per-shard verdict logs, the
// done-marker checkpoints — is committed atomically through
// storage.FS, so a coordinator restarted over the same store resumes
// exactly where it stopped: shards with a committed done marker are
// never re-checked, everything else is re-leased. Checking is
// deterministic per history, so re-running a shard reproduces the same
// verdict bytes, which is what makes at-least-once dispatch safe.
package dist

import "otm/internal/checkpool"

// Wire types of the coordinator's HTTP/JSON API. Workers POST JSON
// bodies to /v1/lease, /v1/heartbeat, /v1/complete and /v1/fail, and GET
// /v1/status; every response is JSON.

// LeaseRequest asks the coordinator for a shard to check.
type LeaseRequest struct {
	// Worker is a display name for logs and the status page.
	Worker string `json:"worker"`
}

// LeaseResponse is the coordinator's answer to a lease request: exactly
// one of Lease (work to do), WaitMillis (try again later) or Done (the
// run is over — successfully, or fatally if RunFailed is set).
type LeaseResponse struct {
	Done      bool   `json:"done,omitempty"`
	RunFailed string `json:"run_failed,omitempty"`
	// WaitMillis asks the worker to poll again after this long: every
	// pending shard is leased out (or backing off) right now.
	WaitMillis int    `json:"wait_millis,omitempty"`
	Lease      *Lease `json:"lease,omitempty"`
}

// Lease is one granted shard assignment.
type Lease struct {
	// ID names this grant; heartbeat, complete and fail all quote it.
	// A lease that expires is reassigned under a new ID, and messages
	// quoting the old ID are ignored — that is what makes worker-side
	// completion idempotent.
	ID string `json:"id"`
	// Shard is the work itself (see Manifest for the two shard kinds).
	Shard ShardSpec `json:"shard"`
	// Gen is the manifest's generator spec, set for generator-defined
	// corpora: the worker regenerates its slice instead of reading it.
	Gen *GenSpec `json:"gen,omitempty"`
	// Label prefixes verdict sources ("label:lineno"), matching what a
	// single-process opacheck run over the same corpus would print.
	Label string `json:"label"`
	// StoreURI locates the shared store holding shard inputs and
	// receiving verdict logs; the worker resolves it with storage.Resolve.
	StoreURI string `json:"store_uri"`
	// CounterObjs and MaxNodes mirror opacheck's -counter and -maxnodes.
	CounterObjs string `json:"counter_objs,omitempty"`
	MaxNodes    int    `json:"max_nodes,omitempty"`
	// ExpiresMillis is the lease duration; a worker that cannot complete
	// within it must heartbeat or lose the shard. HeartbeatMillis is the
	// suggested heartbeat period (a fraction of the lease).
	ExpiresMillis   int `json:"expires_millis"`
	HeartbeatMillis int `json:"heartbeat_millis"`
}

// HeartbeatRequest extends a lease.
type HeartbeatRequest struct {
	Lease string `json:"lease"`
}

// CompleteRequest reports a finished shard: the worker has committed the
// verdict log named in Record to the store.
type CompleteRequest struct {
	Lease  string     `json:"lease"`
	Record DoneRecord `json:"record"`
}

// FailRequest reports that the worker could not finish the shard (e.g.
// the verdict sink failed); the coordinator requeues it with backoff.
type FailRequest struct {
	Lease string `json:"lease"`
	Error string `json:"error"`
}

// Ack answers heartbeat, complete and fail. Ignored is set when the
// quoted lease is no longer current (expired and reassigned, or the
// shard already completed); the worker should drop the shard silently.
type Ack struct {
	OK      bool `json:"ok"`
	Ignored bool `json:"ignored,omitempty"`
}

// Status is the coordinator's progress snapshot (GET /v1/status).
type Status struct {
	Run        string `json:"run"`
	Shards     int    `json:"shards"`
	ShardsDone int    `json:"shards_done"`
	Leased     int    `json:"leased"`
	checkpool.Tally
	Retries     int     `json:"retries"`
	RunFailed   string  `json:"run_failed,omitempty"`
	ElapsedSecs float64 `json:"elapsed_secs"`
}
