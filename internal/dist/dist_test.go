package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"otm/internal/checkpool"
	"otm/internal/core"
	"otm/internal/gen"
	"otm/internal/storage"
)

// corpusLines renders a generated corpus the way histgen does — one
// history per line with a seed comment — plus a header comment, a blank
// line and one unparseable line, so labels, skipping and error verdicts
// are all exercised.
func corpusLines(n int, seed int64) []string {
	cfg := gen.Config{Txs: 4, Objs: 2, MaxOps: 3, PStaleRead: 0.3}
	lines := []string{"# generated test corpus", ""}
	for i := 0; i < n; i++ {
		lines = append(lines, fmt.Sprintf("%s   # seed=%d", gen.History(cfg, seed+int64(i)), seed+int64(i)))
	}
	lines = append(lines, "this line does not parse")
	return lines
}

// golden computes the single-process verdict log for a corpus file:
// exactly what `opacheck -parallel` prints for it, via the same
// canonical Verdict.Line rendering the distributed workers use.
func golden(t *testing.T, label string, lines []string) string {
	t.Helper()
	items := checkpool.Lines(strings.NewReader(strings.Join(lines, "\n")), label, 1, nil)
	var sb strings.Builder
	err := checkpool.New(checkpool.Options{Workers: 1}).RunTo(context.Background(), items, func(v checkpool.Verdict) error {
		sb.WriteString(v.Line() + "\n")
		return nil
	})
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	return sb.String()
}

// startRun plans a file corpus into a fresh file-backed store and
// returns the running coordinator plus its HTTP server.
func startRun(t *testing.T, lines []string, shardSize int, copts CoordinatorOptions) (*Coordinator, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	corpusPath := dir + "/corpus.txt"
	writeCorpus(t, storage.NewOS(dir), "corpus.txt", lines)

	storeURI := "file://" + dir + "/store"
	store, err := storage.Resolve(storeURI)
	if err != nil {
		t.Fatal(err)
	}
	man, err := Plan(store, PlanOptions{CorpusURI: corpusPath, ShardSize: shardSize})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(store, man)
	if err != nil {
		t.Fatal(err)
	}
	copts.StoreURI = storeURI
	c := NewCoordinator(store, man, cp, copts)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, srv, corpusPath
}

// TestDistributedMatchesSingleProcess is the core determinism claim:
// two workers, each keeping one table set across its shards, over a
// sharded corpus produce a merged in-order verdict log byte-identical to
// a single-process run.
func TestDistributedMatchesSingleProcess(t *testing.T) {
	lines := corpusLines(60, 100)
	c, srv, corpusPath := startRun(t, lines, 7, CoordinatorOptions{LeaseFor: 10 * time.Second})
	want := golden(t, corpusPath, lines)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{
				Coordinator: srv.URL,
				Name:        fmt.Sprintf("w%d", i),
			}
			if stats, err := w.Run(context.Background()); err != nil {
				t.Errorf("worker %d: %v", i, err)
			} else if stats.Shards > 0 && stats.Search.States == 0 {
				t.Errorf("worker %d checked %d shards but reports zero interned states", i, stats.Shards)
			}
		}(i)
	}

	var merged strings.Builder
	if err := c.MergeTo(&merged); err != nil {
		t.Fatalf("MergeTo: %v", err)
	}
	wg.Wait()

	if merged.String() != want {
		t.Errorf("merged log differs from the single-process run:\n--- merged ---\n%s--- single ---\n%s", merged.String(), want)
	}
	st := c.Status()
	if st.ShardsDone != st.Shards || st.Histories != 61 || st.Errored != 1 {
		t.Errorf("status = %#v, want all %d shards done, 61 histories, 1 errored", st, st.Shards)
	}
}

// genDistRuns numbers the runs of TestGenCorpusDistributed. mem://
// stores are process-global and Plan refuses a store that already has a
// manifest, so each run (there are several under -count) plans into a
// store of its own.
var genDistRuns atomic.Int32

// TestGenCorpusDistributed is the gen-mode e2e over a shared named mem
// store, the configuration `otmd run` uses in-process: generator-defined
// corpora ship no bytes — workers regenerate exactly their slice — and
// still merge to the same log as a single process generating the whole
// corpus.
func TestGenCorpusDistributed(t *testing.T) {
	storeURI := fmt.Sprintf("mem://test-gen-dist-%d", genDistRuns.Add(1))
	store, err := storage.Resolve(storeURI)
	if err != nil {
		t.Fatal(err)
	}
	spec := &GenSpec{N: 50, Seed: 400, Txs: 4, Objs: 2, MaxOps: 3, PStaleRead: 0.3}
	man, err := Plan(store, PlanOptions{Gen: spec, ShardSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := LoadCheckpoint(store, man)
	c := NewCoordinator(store, man, cp, CoordinatorOptions{StoreURI: storeURI})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		w := &Worker{Coordinator: srv.URL, Name: "gen-worker", Parallel: 2}
		_, err := w.Run(context.Background())
		done <- err
	}()
	var merged strings.Builder
	if err := c.MergeTo(&merged); err != nil {
		t.Fatalf("MergeTo: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}

	// Golden: generate the full corpus in one process, same labeling.
	items := func(yield func(checkpool.Item) bool) {
		cfg := spec.Config()
		for j := 0; j < spec.N; j++ {
			if !yield(checkpool.Item{Source: fmt.Sprintf("gen:%d", j), History: gen.History(cfg, spec.Seed+int64(j))}) {
				return
			}
		}
	}
	var want strings.Builder
	err = checkpool.New(checkpool.Options{Workers: 1}).RunTo(context.Background(), items, func(v checkpool.Verdict) error {
		want.WriteString(v.Line() + "\n")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if merged.String() != want.String() {
		t.Errorf("gen-mode merged log differs from single-process generation:\n--- merged ---\n%s--- single ---\n%s", merged.String(), want.String())
	}
}

// TestWorkerKilledMidShard: a worker that takes a lease and dies without
// ever completing it loses the lease at expiry; the surviving worker
// picks the shard up and the merged log is still byte-identical.
func TestWorkerKilledMidShard(t *testing.T) {
	lines := corpusLines(30, 200)
	c, srv, corpusPath := startRun(t, lines, 4, CoordinatorOptions{LeaseFor: 250 * time.Millisecond})
	want := golden(t, corpusPath, lines)

	// The "killed" worker: leases one shard over the real API and
	// vanishes — no heartbeat, no complete, exactly like a SIGKILL
	// between lease and completion.
	dead := &Worker{Coordinator: srv.URL, Name: "doomed", HTTP: srv.Client()}
	var resp LeaseResponse
	if err := dead.post(context.Background(), "/v1/lease", LeaseRequest{Worker: "doomed"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Lease == nil {
		t.Fatalf("no lease granted to the doomed worker: %+v", resp)
	}

	survivor := &Worker{Coordinator: srv.URL, Name: "survivor"}
	done := make(chan error, 1)
	go func() {
		_, err := survivor.Run(context.Background())
		done <- err
	}()
	var merged strings.Builder
	if err := c.MergeTo(&merged); err != nil {
		t.Fatalf("MergeTo after a worker death: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if merged.String() != want {
		t.Errorf("merged log differs after worker death:\n--- merged ---\n%s--- single ---\n%s", merged.String(), want)
	}
	if st := c.Status(); st.Retries == 0 {
		t.Errorf("status reports no requeues, but a lease was abandoned: %#v", st)
	}
}

// TestCoordinatorResume: kill the coordinator (drop every in-memory
// structure), restart from the store, and the run finishes from where it
// stopped — already-verdicted shards are never re-checked and the final
// merged log is byte-identical.
func TestCoordinatorResume(t *testing.T) {
	lines := corpusLines(40, 300)
	dir := t.TempDir()
	corpusPath := dir + "/corpus.txt"
	writeCorpus(t, storage.NewOS(dir), "corpus.txt", lines)
	want := golden(t, corpusPath, lines)

	storeURI := "file://" + dir + "/store"
	store, err := storage.Resolve(storeURI)
	if err != nil {
		t.Fatal(err)
	}
	man, err := Plan(store, PlanOptions{CorpusURI: corpusPath, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: run until at least 3 shards are done, then kill
	// everything — coordinator dropped mid-run, worker cancelled
	// mid-shard.
	cp1, _ := LoadCheckpoint(store, man)
	c1 := NewCoordinator(store, man, cp1, CoordinatorOptions{StoreURI: storeURI, LeaseFor: time.Second})
	srv1 := httptest.NewServer(c1.Handler())
	ctx1, cancel1 := context.WithCancel(context.Background())
	w1done := make(chan struct{})
	go func() {
		defer close(w1done)
		w := &Worker{Coordinator: srv1.URL, Name: "phase1"}
		w.Run(ctx1) // error expected: cancelled mid-run
	}()
	deadline := time.Now().Add(30 * time.Second)
	for c1.Status().ShardsDone < 3 {
		if time.Now().After(deadline) {
			t.Fatal("phase 1 never completed 3 shards")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel1()
	<-w1done
	srv1.Close() // the "kill": c1 and its server are gone

	// Phase 2: a fresh coordinator process over the same store.
	man2, err := LoadManifest(store)
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := LoadCheckpoint(store, man2)
	if err != nil {
		t.Fatal(err)
	}
	doneAtRestart := cp2.NumDone()
	if doneAtRestart < 3 {
		t.Fatalf("checkpoint lost completions: %d done, phase 1 saw ≥3", doneAtRestart)
	}
	c2 := NewCoordinator(store, man2, cp2, CoordinatorOptions{StoreURI: storeURI, LeaseFor: time.Second})
	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()

	w2 := &Worker{Coordinator: srv2.URL, Name: "phase2"}
	done := make(chan RunStats, 1)
	go func() {
		stats, err := w2.Run(context.Background())
		if err != nil {
			t.Errorf("phase 2 worker: %v", err)
		}
		done <- stats
	}()
	var merged strings.Builder
	if err := c2.MergeTo(&merged); err != nil {
		t.Fatalf("MergeTo after resume: %v", err)
	}
	stats := <-done

	if merged.String() != want {
		t.Errorf("merged log differs after coordinator restart:\n--- merged ---\n%s--- single ---\n%s", merged.String(), want)
	}
	// Resume must not redo finished work: phase 2 checked exactly the
	// shards with no committed done marker at restart.
	if got, max := stats.Shards, len(man.Shards)-doneAtRestart; got > max {
		t.Errorf("phase 2 re-checked done shards: %d checked, only %d were pending at restart", got, max)
	}
	if st := c2.Status(); st.ShardsDone != len(man.Shards) {
		t.Errorf("resumed run finished with %d/%d shards", st.ShardsDone, len(man.Shards))
	}
}

// TestShardFailureRetriesThenRunFails: explicit shard failures requeue
// with backoff up to MaxRetries, then fail the whole run — visible to
// workers (Done+RunFailed), MergeTo and Status.
func TestShardFailureRetriesThenRunFails(t *testing.T) {
	store := storage.NewMem()
	man, err := Plan(store, PlanOptions{Gen: &GenSpec{N: 4, Seed: 1}, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := LoadCheckpoint(store, man)
	c := NewCoordinator(store, man, cp, CoordinatorOptions{
		MaxRetries: 2,
		Backoff:    time.Millisecond,
		LeaseFor:   time.Second,
	})

	attempts := 0
	for {
		resp := c.Lease("flaky")
		if resp.Done {
			break
		}
		if resp.Lease == nil {
			time.Sleep(time.Duration(resp.WaitMillis) * time.Millisecond)
			continue
		}
		attempts++
		if ack := c.Fail(resp.Lease.ID, "verdict sink write failed"); !ack.OK {
			t.Fatalf("Fail: %+v", ack)
		}
	}
	if attempts != 3 { // initial + MaxRetries
		t.Errorf("%d attempts before the run failed, want 3", attempts)
	}
	resp := c.Lease("flaky")
	if !resp.Done || resp.RunFailed == "" {
		t.Errorf("post-failure lease response = %+v, want Done with RunFailed", resp)
	}
	if err := c.MergeTo(&strings.Builder{}); err == nil {
		t.Error("MergeTo succeeded on a failed run")
	}
	if st := c.Status(); st.RunFailed == "" {
		t.Errorf("Status does not report the failure: %#v", st)
	}
}

// TestStaleLeaseIgnored: completions and heartbeats quoting an expired
// lease are acknowledged as Ignored, and the shard's eventual completion
// under the new lease is the one that counts.
func TestStaleLeaseIgnored(t *testing.T) {
	store := storage.NewMem()
	man, err := Plan(store, PlanOptions{Gen: &GenSpec{N: 2, Seed: 1}, ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := LoadCheckpoint(store, man)
	c := NewCoordinator(store, man, cp, CoordinatorOptions{LeaseFor: 30 * time.Millisecond})

	resp := c.Lease("slow")
	if resp.Lease == nil {
		t.Fatalf("no lease: %+v", resp)
	}
	stale := resp.Lease.ID
	time.Sleep(60 * time.Millisecond) // let it expire

	resp2 := c.Lease("fast")
	if resp2.Lease == nil {
		t.Fatalf("expired shard not re-leased: %+v", resp2)
	}
	if resp2.Lease.ID == stale {
		t.Fatal("re-lease reused the stale lease ID")
	}

	if ack := c.Heartbeat(stale); !ack.Ignored {
		t.Errorf("heartbeat on a stale lease = %+v, want Ignored", ack)
	}
	ack, err := c.Complete(stale, DoneRecord{Shard: 0, Log: "logs/stale.log"})
	if err != nil || !ack.Ignored {
		t.Errorf("complete on a stale lease = %+v, %v, want Ignored", ack, err)
	}
	if _, done := cp.Done(0); done {
		t.Error("stale completion checkpointed the shard")
	}

	// The current holder's completion is the real one.
	if err := writeJSON(store, "logs/real.log", "x"); err != nil {
		t.Fatal(err)
	}
	ack, err = c.Complete(resp2.Lease.ID, DoneRecord{Shard: 0, Log: "logs/real.log", Tally: checkpool.Tally{Histories: 1}})
	if err != nil || ack.Ignored {
		t.Fatalf("current completion rejected: %+v, %v", ack, err)
	}
	if rec, done := cp.Done(0); !done || rec.Log != "logs/real.log" {
		t.Errorf("checkpoint after current completion = %#v, %v", rec, done)
	}
}

// TestHeartbeatExtendsLease: a heartbeat pushes the deadline out, so a
// slow-but-alive worker keeps its shard across the original expiry.
func TestHeartbeatExtendsLease(t *testing.T) {
	store := storage.NewMem()
	man, err := Plan(store, PlanOptions{Gen: &GenSpec{N: 2, Seed: 1}, ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := LoadCheckpoint(store, man)
	c := NewCoordinator(store, man, cp, CoordinatorOptions{LeaseFor: 300 * time.Millisecond})

	resp := c.Lease("slow")
	if resp.Lease == nil {
		t.Fatal("no lease")
	}
	time.Sleep(150 * time.Millisecond)
	if ack := c.Heartbeat(resp.Lease.ID); ack.Ignored {
		t.Fatal("heartbeat before expiry was ignored")
	}
	time.Sleep(250 * time.Millisecond) // past the original 300ms deadline, within the extension
	if ack := c.Heartbeat(resp.Lease.ID); ack.Ignored {
		t.Error("lease expired despite a timely heartbeat")
	}
}

// failingLogs is a store whose verdict logs fail on their first write,
// as on a full disk.
type failingLogs struct{ storage.FS }

func (failingLogs) Create(string) (storage.Writer, error) { return failingLog{}, nil }

type failingLog struct{}

func (failingLog) Write([]byte) (int, error) { return 0, errors.New("disk full") }
func (failingLog) Close() error              { return nil }
func (failingLog) Abort() error              { return nil }

// TestCheckShardStopsFeedOnSinkError: once a shard's verdict log fails,
// the worker stops producing the shard's histories instead of checking
// the rest of the shard into a log that can no longer commit. The shard
// here is practically endless, so only a stopped feed lets it return.
func TestCheckShardStopsFeedOnSinkError(t *testing.T) {
	const uri = "mem://dist-test-sink-error"
	w := &Worker{Parallel: 2, tables: core.NewSharedTables(), store: failingLogs{storage.Mem("dist-test-sink-error")}, storeURI: uri}
	lease := &Lease{
		ID:       "l1",
		Shard:    ShardSpec{Hi: math.MaxInt32},
		Gen:      &GenSpec{N: math.MaxInt32, Seed: 1, Txs: 4, Objs: 2, MaxOps: 3},
		Label:    "gen",
		StoreURI: uri,
	}
	done := make(chan error, 1)
	go func() {
		_, err := w.checkShard(context.Background(), lease)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "disk full") {
			t.Errorf("checkShard = %v, want the sink's error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("checkShard still feeding its shard 30s after the verdict log failed")
	}
}

// failingInput is a store whose shard input bad fails partway through
// its first line, as a flaky disk or network store would.
type failingInput struct {
	storage.FS
	bad string
}

func (f failingInput) Open(name string) (io.ReadCloser, error) {
	r, err := f.FS.Open(name)
	if err != nil || name != f.bad {
		return r, err
	}
	cut := io.MultiReader(io.LimitReader(r, 20), iotest.ErrReader(errors.New("input read failed")))
	return struct {
		io.Reader
		io.Closer
	}{cut, r}, nil
}

// TestShardInputReadErrorFailsShard: a shard whose input cannot be read
// in full is reported through /v1/fail — the coordinator retries it and,
// as every attempt fails the same way, fails the run with the read
// error — and it never gets a done marker or a committed log, while the
// run's other shards complete.
func TestShardInputReadErrorFailsShard(t *testing.T) {
	dir := t.TempDir()
	writeCorpus(t, storage.NewOS(dir), "corpus.txt", corpusLines(6, 500)) // 9 lines: 3 shards of 4
	store := storage.NewMem()
	man, err := Plan(store, PlanOptions{CorpusURI: dir + "/corpus.txt", ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Shards) != 3 {
		t.Fatalf("planned %d shards, want 3", len(man.Shards))
	}
	cp, _ := LoadCheckpoint(store, man)
	const uri = "mem://dist-test-read-error" // never resolved: the worker holds the store
	c := NewCoordinator(store, man, cp, CoordinatorOptions{StoreURI: uri, MaxRetries: 1, Backoff: time.Millisecond})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	w := &Worker{Coordinator: srv.URL, Name: "w", store: failingInput{store, man.Shards[1].Input}, storeURI: uri}
	if _, err := w.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "input read failed") {
		t.Errorf("worker = %v, want the run failed by the read error", err)
	}
	if err := c.MergeTo(io.Discard); err == nil {
		t.Error("MergeTo succeeded on a run with an unreadable shard")
	}
	st := c.Status()
	if want := "shard 1: input read failed after 2 attempts"; st.RunFailed != want {
		t.Errorf("RunFailed = %q, want %q", st.RunFailed, want)
	}
	if st.ShardsDone != 2 {
		t.Errorf("%d shards done, want the 2 readable ones", st.ShardsDone)
	}
	if _, err := store.Stat(fmt.Sprintf(doneFmt, 1)); !errors.Is(err, storage.ErrNotExist) {
		t.Errorf("unreadable shard has a done marker (Stat: %v)", err)
	}
	logs, err := store.List("logs/00001-")
	if err != nil || len(logs) != 0 {
		t.Errorf("unreadable shard committed logs %v (%v)", logs, err)
	}
}
