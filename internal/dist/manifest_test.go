package dist

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"otm/internal/checkpool"
	"otm/internal/storage"
)

// writeCorpus commits the given lines as a corpus object in store and
// returns nothing; planning reads it back through the same FS.
func writeCorpus(t *testing.T, store storage.FS, name string, lines []string) {
	t.Helper()
	w, err := store.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(w, strings.Join(lines, "\n")+"\n"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanErrors: the planner rejects contradictory or unusable inputs
// instead of committing a bad manifest.
func TestPlanErrors(t *testing.T) {
	cases := []struct {
		name string
		opts PlanOptions
	}{
		{"NeitherSource", PlanOptions{}},
		{"BothSources", PlanOptions{CorpusURI: "x.txt", Gen: &GenSpec{N: 10}}},
		{"MissingCorpus", PlanOptions{CorpusURI: "mem://test-plan-errors/absent.txt"}},
		{"EmptyGen", PlanOptions{Gen: &GenSpec{N: 0}}},
		// A negative budget used to reach the manifest and turn every
		// verdict into a budget error.
		{"NegativeMaxNodes", PlanOptions{Gen: &GenSpec{N: 3}, MaxNodes: -5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			store := storage.NewMem()
			if _, err := Plan(store, c.opts); err == nil {
				t.Errorf("Plan(%+v) succeeded, want error", c.opts)
			}
			if _, err := store.Stat(manifestName); err == nil {
				t.Error("failed Plan committed a manifest")
			}
		})
	}

	t.Run("EmptyCorpusFile", func(t *testing.T) {
		store := storage.NewMem()
		corpus := storage.Mem("test-plan-errors-empty")
		w, _ := corpus.Create("empty.txt")
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Plan(store, PlanOptions{CorpusURI: "mem://test-plan-errors-empty/empty.txt"}); err == nil {
			t.Error("Plan over an empty corpus succeeded")
		}
	})
}

// TestPlanFileShardsFromFile plans a real file corpus and checks the
// slicing invariants.
func TestPlanFileShardsFromFile(t *testing.T) {
	dir := t.TempDir()
	lines := []string{
		"# header comment",
		"w1(x,1) tryC1 C1",
		"",
		"r1(x)->0 tryC1 C1",
		"not a history at all",
		"w1(y,2) tryC1 A1",
		"# trailing comment",
	}
	corpus := dir + "/corpus.txt"
	osfs := storage.NewOS(dir)
	writeCorpus(t, osfs, "corpus.txt", lines)

	store := storage.NewMem()
	man, err := Plan(store, PlanOptions{CorpusURI: corpus, ShardSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if man.Label != corpus {
		t.Errorf("Label = %q, want the corpus path %q", man.Label, corpus)
	}
	if len(man.Shards) != 3 { // 7 lines / 3 per shard
		t.Fatalf("%d shards, want 3", len(man.Shards))
	}
	var rebuilt strings.Builder
	wantStart := 1
	for i, s := range man.Shards {
		if s.Index != i {
			t.Errorf("shard %d carries index %d", i, s.Index)
		}
		if s.StartLine != wantStart {
			t.Errorf("shard %d starts at line %d, want %d", i, s.StartLine, wantStart)
		}
		wantStart += s.Lines
		r, err := store.Open(s.Input)
		if err != nil {
			t.Fatalf("shard %d input: %v", i, err)
		}
		b, _ := io.ReadAll(r)
		r.Close()
		if got := strings.Count(string(b), "\n"); got != s.Lines {
			t.Errorf("shard %d input has %d lines, spec says %d", i, got, s.Lines)
		}
		rebuilt.Write(b)
	}
	if want := strings.Join(lines, "\n") + "\n"; rebuilt.String() != want {
		t.Errorf("concatenated shard inputs differ from the corpus:\n%q\nvs\n%q", rebuilt.String(), want)
	}

	// Planning twice over the same store must refuse.
	if _, err := Plan(store, PlanOptions{CorpusURI: corpus}); err == nil {
		t.Error("second Plan over the same store must fail")
	}

	// The committed manifest round-trips.
	got, err := LoadManifest(store)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, man) {
		t.Errorf("LoadManifest = %+v, want %+v", got, man)
	}
}

// TestPlanGenShards: generator plans cover [0, N) with balanced
// contiguous ranges and no stored inputs.
func TestPlanGenShards(t *testing.T) {
	store := storage.NewMem()
	spec := &GenSpec{N: 100, Seed: 7, Txs: 4, Objs: 2, MaxOps: 3, PStaleRead: 0.25}
	man, err := Plan(store, PlanOptions{Gen: spec, ShardSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if man.Label != "gen" {
		t.Errorf("default gen label = %q", man.Label)
	}
	covered := 0
	prev := 0
	for _, s := range man.Shards {
		if s.Input != "" {
			t.Errorf("gen shard %d has a stored input %q", s.Index, s.Input)
		}
		if s.Lo != prev {
			t.Errorf("shard %d starts at %d, want %d", s.Index, s.Lo, prev)
		}
		covered += s.Hi - s.Lo
		prev = s.Hi
	}
	if prev != spec.N || covered != spec.N {
		t.Errorf("shards cover %d indices ending at %d, want exactly %d", covered, prev, spec.N)
	}
	if names, _ := store.List("shards/"); len(names) != 0 {
		t.Errorf("gen plan wrote shard inputs: %v", names)
	}
}

// TestLoadManifestMissing: an unplanned store is ErrNoManifest, which is
// how `otmd coordinate` decides between plan and resume.
func TestLoadManifestMissing(t *testing.T) {
	if _, err := LoadManifest(storage.NewMem()); err != ErrNoManifest {
		t.Errorf("LoadManifest(empty) = %v, want ErrNoManifest", err)
	}
}

// TestLoadManifestRejectsNegativeMaxNodes: a committed manifest with a
// negative node budget, which Plan refuses but an older build or a hand
// edit can leave behind, does not resume: the coordinator would lease
// that budget to every worker, and every verdict would be a budget
// error.
func TestLoadManifestRejectsNegativeMaxNodes(t *testing.T) {
	store := storage.NewMem()
	man, err := Plan(store, PlanOptions{Gen: &GenSpec{N: 3}})
	if err != nil {
		t.Fatal(err)
	}
	man.MaxNodes = -5
	if err := writeJSON(store, manifestName, man); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(store)
	if err == nil || !strings.Contains(err.Error(), "MaxNodes -5") {
		t.Errorf("LoadManifest of a manifest with max_nodes -5 = %+v, %v; want the MaxNodes error", got, err)
	}
}

// TestCheckpointRoundTrip is the marshal→crash→reload property, in the
// gopter style on testing/quick: for any shard count and any completed
// subset, dropping every in-memory structure and reloading from the
// store yields exactly the same done and pending sets.
func TestCheckpointRoundTrip(t *testing.T) {
	property := func(shardSeed int64) bool {
		rng := rand.New(rand.NewSource(shardSeed))
		n := 1 + rng.Intn(40)
		store := storage.NewMem()
		man, err := Plan(store, PlanOptions{Gen: &GenSpec{N: n, Seed: shardSeed}, ShardSize: 1 + rng.Intn(5)})
		if err != nil {
			t.Logf("Plan: %v", err)
			return false
		}

		cp, err := LoadCheckpoint(store, man)
		if err != nil {
			t.Logf("LoadCheckpoint(fresh): %v", err)
			return false
		}
		wantDone := map[int]DoneRecord{}
		for i := range man.Shards {
			if rng.Intn(2) == 0 {
				continue
			}
			rec := DoneRecord{
				Shard: i, Log: fmt.Sprintf(shardLogFmt, i, "lease"),
				Tally:  checkpool.Tally{Histories: rng.Intn(100), Opaque: rng.Intn(50), Nodes: rng.Intn(10_000)},
				Worker: "w1",
			}
			if err := cp.Mark(store, rec); err != nil {
				t.Logf("Mark: %v", err)
				return false
			}
			wantDone[i] = rec
		}

		// "Crash": drop cp and the coordinator; the store is all that
		// survives. Reload and compare.
		man2, err := LoadManifest(store)
		if err != nil {
			t.Logf("LoadManifest: %v", err)
			return false
		}
		if !reflect.DeepEqual(man2, man) {
			t.Logf("manifest drifted across reload")
			return false
		}
		cp2, err := LoadCheckpoint(store, man2)
		if err != nil {
			t.Logf("LoadCheckpoint: %v", err)
			return false
		}
		for i := range man.Shards {
			rec, ok := cp2.Done(i)
			wantRec, wantOK := wantDone[i]
			if ok != wantOK || (ok && !reflect.DeepEqual(rec, wantRec)) {
				t.Logf("shard %d: reloaded done=(%v,%#v), want (%v,%#v)", i, ok, rec, wantOK, wantRec)
				return false
			}
		}
		var wantPending []int
		for i := range man.Shards {
			if _, ok := wantDone[i]; !ok {
				wantPending = append(wantPending, i)
			}
		}
		if !reflect.DeepEqual(cp2.Pending(man2), wantPending) {
			t.Logf("pending = %v, want %v", cp2.Pending(man2), wantPending)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCheckpointMarkIdempotent: at-least-once dispatch can complete a
// shard twice; the first record wins durably.
func TestCheckpointMarkIdempotent(t *testing.T) {
	store := storage.NewMem()
	man, err := Plan(store, PlanOptions{Gen: &GenSpec{N: 4, Seed: 1}, ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := LoadCheckpoint(store, man)
	first := DoneRecord{Shard: 1, Log: "logs/first.log", Tally: checkpool.Tally{Histories: 2}}
	if err := cp.Mark(store, first); err != nil {
		t.Fatal(err)
	}
	if err := cp.Mark(store, DoneRecord{Shard: 1, Log: "logs/second.log", Tally: checkpool.Tally{Histories: 99}}); err != nil {
		t.Fatal(err)
	}
	cp2, err := LoadCheckpoint(store, man)
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := cp2.Done(1); !reflect.DeepEqual(rec, first) {
		t.Errorf("second Mark overwrote the first record: %#v", rec)
	}
}

// TestCheckpointRejectsForeignMarkers: markers outside the manifest's
// shard range mean the store holds another run's state.
func TestCheckpointRejectsForeignMarkers(t *testing.T) {
	store := storage.NewMem()
	man, err := Plan(store, PlanOptions{Gen: &GenSpec{N: 4, Seed: 1}, ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(store, fmt.Sprintf(doneFmt, 99), DoneRecord{Shard: 99}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(store, man); err == nil {
		t.Error("LoadCheckpoint accepted a marker for a shard the manifest does not have")
	}
}
