package mvstm

import (
	"errors"
	"sync"
	"testing"

	"otm/internal/core"
	"otm/internal/stm"
	"otm/internal/stm/stmtest"
)

func TestConformance(t *testing.T) {
	stmtest.Run(t, func(n int) stm.TM { return New(n) }, stmtest.Options{Opaque: true})
}

// TestReadOnlyNeverAborts is the multi-version headline (§6.2, footnote
// 2, and the H4 discussion in §5.2): a read-only transaction keeps
// reading its birth snapshot despite concurrent committed overwrites, and
// always commits.
func TestReadOnlyNeverAborts(t *testing.T) {
	tm := New(2)
	t1 := tm.Begin() // snapshot at clock 0

	if v, err := t1.Read(0); err != nil || v != 0 {
		t.Fatalf("t1 read(0) = %d, %v", v, err)
	}

	t2 := tm.Begin()
	if err := t2.Write(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write(1, 5); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}

	// T1 still sees the OLD y — the consistent snapshot of its birth.
	// A single-version TM would have to abort here; mvstm serves the old
	// version (this is exactly the paper's H4 situation).
	v, err := t1.Read(1)
	if err != nil || v != 0 {
		t.Fatalf("t1 read(1) = %d, %v; want the old snapshot value 0", v, err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatalf("read-only transactions never abort: %v", err)
	}

	// A transaction born after T2 sees the new values.
	t3 := tm.Begin()
	if v, _ := t3.Read(1); v != 5 {
		t.Errorf("t3 read(1) = %d, want 5", v)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordedH4StyleHistoryOpaque: the schedule above recorded and fed
// to the checker — the old-snapshot read is opaque (T1 serializes before
// T2).
func TestRecordedH4StyleHistoryOpaque(t *testing.T) {
	rec := stm.NewRecorder(New(2))
	t1 := rec.Begin()
	if _, err := t1.Read(0); err != nil {
		t.Fatal(err)
	}
	t2 := rec.Begin()
	if err := t2.Write(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write(1, 5); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	t3 := rec.Begin()
	if v, err := t3.Read(1); err != nil || v != 5 {
		t.Fatalf("t3 = %d, %v", v, err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, err := t1.Read(1); err != nil || v != 0 {
		t.Fatalf("t1 = %d, %v", v, err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := core.Opaque(rec.History())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Opaque {
		t.Fatalf("multi-version old-snapshot history must be opaque:\n%s", rec.History().Format())
	}
}

// TestFirstCommitterWins: write skew between two updaters is resolved by
// commit-time validation — the second committer aborts.
func TestFirstCommitterWins(t *testing.T) {
	tm := New(2)
	t1 := tm.Begin()
	t2 := tm.Begin()
	// T1: reads r0, writes r1. T2: reads r1, writes r0.
	if _, err := t1.Read(0); err != nil {
		t.Fatal(err)
	}
	if err := t1.Write(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Read(1); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatalf("first committer: %v", err)
	}
	if err := t2.Commit(); !errors.Is(err, stm.ErrAborted) {
		t.Fatalf("second committer with stale read: %v, want ErrAborted", err)
	}
}

// TestUpdaterStaleReadAborts: an updater whose read object gained a newer
// version aborts at commit.
func TestUpdaterStaleReadAborts(t *testing.T) {
	tm := New(2)
	t1 := tm.Begin()
	if _, err := t1.Read(0); err != nil {
		t.Fatal(err)
	}
	if err := t1.Write(1, 9); err != nil {
		t.Fatal(err)
	}
	t2 := tm.Begin()
	if err := t2.Write(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); !errors.Is(err, stm.ErrAborted) {
		t.Fatalf("stale updater: %v, want ErrAborted", err)
	}
}

// TestVersionListsGrow: each commit prepends one version per written
// object; old versions stay reachable for old readers.
func TestVersionListsGrow(t *testing.T) {
	tm := New(1)
	if tm.Versions(0) != 1 {
		t.Fatalf("initial versions = %d", tm.Versions(0))
	}
	for i := 1; i <= 5; i++ {
		if err := stm.Atomically(tm, func(tx stm.Tx) error {
			return tx.Write(0, i)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := tm.Versions(0); got != 6 {
		t.Errorf("versions after 5 commits = %d, want 6", got)
	}
}

// TestReadCostIndependentOfK: reading costs O(version-chain), not O(k):
// doubling the object count leaves per-read steps unchanged.
func TestReadCostIndependentOfK(t *testing.T) {
	cost := func(k int) int64 {
		tm := New(k)
		tx := tm.Begin()
		for i := 0; i < k/2; i++ {
			if _, err := tx.Read(i); err != nil {
				t.Fatal(err)
			}
		}
		before := tx.Steps()
		if _, err := tx.Read(k - 1); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}()
		return tx.Steps() - before
	}
	if c16, c256 := cost(16), cost(256); c16 != c256 {
		t.Errorf("per-read cost depends on k: %d @16 vs %d @256", c16, c256)
	}
}

// TestOldReaderWalksVersionChain: a reader born early pays per-version
// steps but still finds its snapshot after many commits.
func TestOldReaderWalksVersionChain(t *testing.T) {
	tm := New(1)
	old := tm.Begin()
	if v, err := old.Read(0); err != nil || v != 0 { // pins snapshot 0
		t.Fatalf("first read sees %d, %v; want 0", v, err)
	}
	for i := 1; i <= 10; i++ {
		if err := stm.Atomically(tm, func(tx stm.Tx) error {
			return tx.Write(0, i*100)
		}); err != nil {
			t.Fatal(err)
		}
	}
	v, err := old.Read(0)
	if err != nil || v != 0 {
		t.Fatalf("old reader sees %d, %v; want snapshot value 0", v, err)
	}
	if err := old.Commit(); err != nil {
		t.Fatal(err)
	}
}

// --- version GC (NewWithGC) ---

func TestGCConformance(t *testing.T) {
	stmtest.Run(t, func(n int) stm.TM { return NewWithGC(n) }, stmtest.Options{Opaque: true})
}

// TestGCBoundsVersionChains: with no long-lived readers, chains stay
// short no matter how many commits hit the object.
func TestGCBoundsVersionChains(t *testing.T) {
	tm := NewWithGC(1)
	for i := 1; i <= 200; i++ {
		if err := stm.Atomically(tm, func(tx stm.Tx) error {
			return tx.Write(0, i)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := tm.Versions(0); got > 3 {
		t.Errorf("GC left %d versions, want a small constant", got)
	}
	// The value is intact.
	if v, err := stm.DirectRead(tm, 0); err != nil || v != 200 {
		t.Errorf("value after GC = %d, %v", v, err)
	}
}

// TestGCPreservesOldReaderSnapshot: a long-lived reader pins its
// snapshot; versions it needs survive, and are reclaimed after it
// finishes.
func TestGCPreservesOldReaderSnapshot(t *testing.T) {
	tm := NewWithGC(2)
	if err := stm.DirectWrite(tm, 0, 7); err != nil {
		t.Fatal(err)
	}
	old := tm.Begin()
	if _, err := old.Read(1); err != nil { // pins the snapshot: r0=7
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if err := stm.Atomically(tm, func(tx stm.Tx) error {
			return tx.Write(0, 100+i)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if tm.Versions(0) < 2 {
		t.Error("the old reader's snapshot version must survive GC")
	}
	if v, err := old.Read(0); err != nil || v != 7 {
		t.Fatalf("old reader sees %d, %v; want pinned snapshot 7", v, err)
	}
	if err := old.Commit(); err != nil {
		t.Fatal(err)
	}
	// With the reader retired, the next commit truncates the chain.
	if err := stm.DirectWrite(tm, 0, 999); err != nil {
		t.Fatal(err)
	}
	if got := tm.Versions(0); got > 3 {
		t.Errorf("chain not reclaimed after the reader retired: %d versions", got)
	}
}

// TestGCSweepsPinnedChainsOnLastRetire: versions an old reader held back
// are reclaimed when it retires, without a later commit to the object.
func TestGCSweepsPinnedChainsOnLastRetire(t *testing.T) {
	tm := NewWithGC(2)
	old := tm.Begin()
	if _, err := old.Read(1); err != nil { // pins snapshot 0
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if err := stm.Atomically(tm, func(tx stm.Tx) error {
			return tx.Write(0, i)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := tm.Versions(0); got != 51 {
		t.Fatalf("reader at snapshot 0 holds back %d versions, want all 51", got)
	}
	if err := old.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := tm.Versions(0); got != 1 {
		t.Errorf("chain keeps %d versions after the last transaction retired, want 1", got)
	}
	if v, err := stm.DirectRead(tm, 0); err != nil || v != 50 {
		t.Errorf("value after the sweep = %d, %v; want 50", v, err)
	}
}

// TestGCUnderChurn: concurrent writers and transient readers; chains
// stay bounded and reads stay consistent.
func TestGCUnderChurn(t *testing.T) {
	tm := NewWithGC(4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if g%2 == 0 {
					if err := stm.Atomically(tm, func(tx stm.Tx) error {
						return tx.Write(g, i)
					}); err != nil {
						t.Error(err)
						return
					}
				} else {
					if err := stm.Atomically(tm, func(tx stm.Tx) error {
						_, err := tx.Read(g - 1)
						return err
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		if got := tm.Versions(i); got > 8 {
			t.Errorf("object %d has %d versions after churn", i, got)
		}
	}
}

// TestGCReadOnlyNeverAbortsUnderTruncationChurn stresses the Begin /
// truncate interleaving: read-only transactions are born continuously
// while committers truncate the hot object's chain. A read-only
// transaction must NEVER abort — its snapshot is pinned atomically with
// the registry insert, so truncation can never cut the version it needs.
func TestGCReadOnlyNeverAbortsUnderTruncationChurn(t *testing.T) {
	tm := NewWithGC(1)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if err := stm.Atomically(tm, func(tx stm.Tx) error {
					return tx.Write(0, w*1000+i)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				tx := tm.Begin()
				if _, err := tx.Read(0); err != nil {
					t.Errorf("read-only transaction aborted: %v", err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("read-only commit failed: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBlindWriterCommits: a pure writer (no reads) always commits.
func TestBlindWriterCommits(t *testing.T) {
	tm := New(1)
	t1 := tm.Begin()
	t2 := tm.Begin()
	if err := t1.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	t3 := tm.Begin()
	if v, _ := t3.Read(0); v != 2 {
		t.Errorf("value = %d, want 2", v)
	}
}
