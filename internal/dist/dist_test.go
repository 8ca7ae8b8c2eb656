package dist

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"otm/internal/checkpool"
	"otm/internal/gen"
	"otm/internal/history"
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
	in := make(chan checkpool.Item)
	go func() {
		defer close(in)
		for i, line := range lines {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			item := checkpool.Item{Source: fmt.Sprintf("%s:%d", label, i+1)}
			item.History, item.Err = history.Parse(line)
			in <- item
		}
	}()
	var sb strings.Builder
	err := checkpool.New(checkpool.Options{Workers: 1}).RunTo(context.Background(), in, func(v checkpool.Verdict) error {
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
		t.Errorf("status = %+v, want all %d shards done, 61 histories, 1 errored", st, st.Shards)
	}
}

// TestGenCorpusDistributed is the gen-mode e2e over a shared named mem
// store, the configuration `otmd run` uses in-process: generator-defined
// corpora ship no bytes — workers regenerate exactly their slice — and
// still merge to the same log as a single process generating the whole
// corpus.
func TestGenCorpusDistributed(t *testing.T) {
	storeURI := "mem://test-gen-dist"
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
	in := make(chan checkpool.Item)
	go func() {
		defer close(in)
		cfg := spec.Config()
		for j := 0; j < spec.N; j++ {
			in <- checkpool.Item{Source: fmt.Sprintf("gen:%d", j), History: gen.History(cfg, spec.Seed+int64(j))}
		}
	}()
	var want strings.Builder
	err = checkpool.New(checkpool.Options{Workers: 1}).RunTo(context.Background(), in, func(v checkpool.Verdict) error {
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
		t.Errorf("status reports no requeues, but a lease was abandoned: %+v", st)
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
		t.Errorf("Status does not report the failure: %+v", st)
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
	ack, err = c.Complete(resp2.Lease.ID, DoneRecord{Shard: 0, Log: "logs/real.log", Histories: 1})
	if err != nil || ack.Ignored {
		t.Fatalf("current completion rejected: %+v, %v", ack, err)
	}
	if rec, done := cp.Done(0); !done || rec.Log != "logs/real.log" {
		t.Errorf("checkpoint after current completion = %+v, %v", rec, done)
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
