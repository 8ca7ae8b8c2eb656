package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"otm/internal/criteria"
	"otm/internal/history"
	"otm/internal/spec"
	"otm/internal/storage"
)

// TestDemosParseAndVerdicts pins every built-in demo to its expected
// opacity verdict, so the CLI's showcase inputs cannot rot.
func TestDemosParseAndVerdicts(t *testing.T) {
	wantOpaque := map[string]bool{
		"fig1":    false,
		"fig2":    true,
		"h3":      true,
		"h4":      true,
		"counter": true,
		"writers": true,
	}
	for name, src := range demos {
		h, err := history.Parse(src)
		if err != nil {
			t.Fatalf("demo %s does not parse: %v", name, err)
		}
		if err := h.WellFormed(); err != nil {
			t.Fatalf("demo %s not well-formed: %v", name, err)
		}
		objs := spec.Objects{}
		if name == "counter" {
			objs["c"] = spec.NewCounter(0)
		}
		for _, ob := range h.Objects() {
			if _, ok := objs[ob]; !ok {
				objs[ob] = spec.NewRegister(0)
			}
		}
		rep, err := criteria.Evaluate(h, objs)
		if err != nil {
			t.Fatalf("demo %s: %v", name, err)
		}
		if rep.Opaque != wantOpaque[name] {
			t.Errorf("demo %s: opaque=%v, want %v", name, rep.Opaque, wantOpaque[name])
		}
	}
}

func TestCheckOneRejectsBadInput(t *testing.T) {
	if err := checkOne("garbage !!!", "", false, false); err == nil {
		t.Error("unparseable input must error")
	}
	if err := checkOne("C1", "", false, false); err == nil {
		t.Error("malformed history must error")
	}
}

func TestCheckOneRunsAllModes(t *testing.T) {
	if err := checkOne(demos["fig1"], "", true, true); err != nil {
		t.Errorf("fig1 with -graph -explain: %v", err)
	}
	if err := checkOne(demos["counter"], "c", false, false); err != nil {
		t.Errorf("counter demo with -counter c: %v", err)
	}
}

// TestRunBatch exercises the -parallel streaming mode end to end: a file
// of histories (including a comment, a blank line, a parse error and a
// non-opaque history) yields one ordered verdict line each.
func TestRunBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "histories.txt")
	content := strings.Join([]string{
		"# comment lines are skipped",
		"w1(x,1) tryC1 C1 r2(x)->1 tryC2 C2",
		"",
		demos["fig1"], // non-opaque
		"this is not a history",
		demos["h4"],
	}, "\n")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []struct {
		name      string
		reference bool
	}{{name: "default"}, {name: "reference", reference: true}} {
		var out, errOut strings.Builder
		code := runBatch(context.Background(), &out, &errOut, 4, 0, mode.reference, "", "", []string{path})
		if code != 1 {
			t.Errorf("%s: exit code %d, want 1 (one line fails to parse)", mode.name, code)
		}
		lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
		if len(lines) != 4 {
			t.Fatalf("%s: %d verdict lines, want 4:\n%s", mode.name, len(lines), out.String())
		}
		for i, want := range []string{
			path + ":2 opaque ",
			path + ":4 non-opaque ",
			path + ":5 error ",
			path + ":6 opaque ",
		} {
			if !strings.HasPrefix(lines[i], want) {
				t.Errorf("%s: line %d = %q, want prefix %q", mode.name, i, lines[i], want)
			}
		}
	}
}

// TestRunBatchSummaries pins the stderr summary of each engine mode: the
// default mode reports its (nonzero) table and reduction counters on the
// one summary line, and the reference mode — which runs without search
// contexts — says so explicitly instead of printing a zeroed counter
// line (the -parallel -reference mislabeling bug).
func TestRunBatchSummaries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "histories.txt")
	// The last line holds two interchangeable readers, so the symmetry
	// counters of the reductions are exercised, not just printed.
	content := demos["h4"] + "\n" + demos["fig1"] + "\n" + demos["writers"] + "\n" +
		"r1(x)->0 r2(x)->0 tryC1 C1 tryC2 C2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(reference bool) string {
		t.Helper()
		var out, errOut strings.Builder
		if code := runBatch(context.Background(), &out, &errOut, 4, 0, reference, "", "", []string{path}); code != 0 {
			t.Fatalf("reference=%v: exit code %d, stderr:\n%s", reference, code, errOut.String())
		}
		return errOut.String()
	}

	def := run(false)
	if !strings.Contains(def, "opacheck: 4 histories:") {
		t.Errorf("default summary lacks the totals line:\n%s", def)
	}
	if !strings.Contains(def, "opacheck: search tables: ") || strings.Contains(def, "search tables: 0 states interned") {
		t.Errorf("default summary must report nonzero table counters:\n%s", def)
	}
	if !strings.Contains(def, "rebuilds") {
		t.Errorf("default summary must report the generation rebuild count:\n%s", def)
	}
	if !strings.Contains(def, "; reductions: ") || strings.Contains(def, "reductions: 0 symmetry classes") {
		t.Errorf("default summary must report the symmetry class count of the clone input:\n%s", def)
	}

	ref := run(true)
	if !strings.Contains(ref, "opacheck: reference engine: no search contexts") {
		t.Errorf("reference summary must say no context counters were collected:\n%s", ref)
	}
	if strings.Contains(ref, "search tables:") || strings.Contains(ref, "states interned") ||
		strings.Contains(ref, "reductions:") {
		t.Errorf("reference summary must not print context counter lines:\n%s", ref)
	}
}

// TestRunBatchCancelled: a pre-cancelled context admits nothing, yields
// no verdict lines and exits nonzero.
func TestRunBatchCancelled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.txt")
	if err := os.WriteFile(path, []byte(demos["fig2"]+"\n"+demos["h4"]+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errOut strings.Builder
	if code := runBatch(ctx, &out, &errOut, 2, 0, false, "", "", []string{path}); code != 1 {
		t.Errorf("exit code %d, want 1 for a cancelled batch", code)
	}
	if out.Len() != 0 {
		t.Errorf("cancelled batch printed verdicts:\n%s", out.String())
	}
}

// TestRunBatchBudget: -maxnodes starves the search, turning every history
// into a budget error and a nonzero exit.
func TestRunBatchBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.txt")
	if err := os.WriteFile(path, []byte(demos["fig2"]+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := runBatch(context.Background(), &out, &errOut, 2, 1, false, "", "", []string{path}); code != 1 {
		t.Errorf("exit code %d, want 1 under a 1-node budget", code)
	}
	if !strings.Contains(out.String(), "error") {
		t.Errorf("expected a budget error line, got:\n%s", out.String())
	}
}

func TestRunBatchMissingFile(t *testing.T) {
	var out, errOut strings.Builder
	if code := runBatch(context.Background(), &out, &errOut, 2, 0, false, "", "", []string{"/nonexistent/histories.txt"}); code != 1 {
		t.Errorf("exit code %d, want 1 for an unreadable file", code)
	}
}

// TestRunBatchStorageURIs: batch inputs may be storage URIs and
// -verdicts redirects the verdict stream to an atomically committed
// storage object; the object's bytes equal what the same run prints to
// stdout (modulo the source label, which is the URI as given).
func TestRunBatchStorageURIs(t *testing.T) {
	content := demos["h4"] + "\n" + demos["fig1"] + "\n"
	corpus := storage.Mem("opacheck-test-corpus")
	w, err := corpus.Create("histories.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(w, content); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	uri := "mem://opacheck-test-corpus/histories.txt"

	var out, errOut strings.Builder
	if code := runBatch(context.Background(), &out, &errOut, 2, 0, false, "", "", []string{uri}); code != 0 {
		t.Fatalf("URI input: exit %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.HasPrefix(out.String(), uri+":1 opaque ") {
		t.Errorf("verdict labels should carry the URI as given:\n%s", out.String())
	}

	// Same run again, with the verdicts going to a storage object.
	sinkURI := "mem://opacheck-test-corpus/verdicts.log"
	var out2, errOut2 strings.Builder
	if code := runBatch(context.Background(), &out2, &errOut2, 2, 0, false, "", sinkURI, []string{uri}); code != 0 {
		t.Fatalf("-verdicts run: exit %d, stderr:\n%s", code, errOut2.String())
	}
	if out2.Len() != 0 {
		t.Errorf("-verdicts run still wrote to stdout:\n%s", out2.String())
	}
	r, err := storage.OpenURI(sinkURI)
	if err != nil {
		t.Fatalf("verdict object not committed: %v", err)
	}
	got, _ := io.ReadAll(r)
	r.Close()
	if string(got) != out.String() {
		t.Errorf("verdict object differs from the stdout stream:\n%q\nvs\n%q", got, out.String())
	}
}

// TestRunBatchVerdictsNotCommittedOnInterrupt: a cancelled batch aborts
// the verdict object — resuming tools never see a partial log.
func TestRunBatchVerdictsNotCommittedOnInterrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.txt")
	if err := os.WriteFile(path, []byte(strings.Repeat(demos["h4"]+"\n", 50)), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sinkURI := "mem://opacheck-test-interrupt/verdicts.log"
	var out, errOut strings.Builder
	if code := runBatch(ctx, &out, &errOut, 2, 0, false, "", sinkURI, []string{path}); code != 1 {
		t.Errorf("interrupted run: exit %d, want 1", code)
	}
	if _, err := storage.OpenURI(sinkURI); err == nil {
		t.Error("interrupted run committed a verdict object")
	}
}
