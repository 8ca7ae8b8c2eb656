package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"otm/internal/criteria"
	"otm/internal/history"
	"otm/internal/spec"
	"otm/internal/stm/stmtest"
	"otm/internal/stm/tl2"
	"otm/internal/storage"
)

// TestUnknownDemoKeepsProfile runs the command — the test binary
// re-executed as opacheck — with an unknown -demo under -cpuprofile: it
// must exit 2 through run's return, so the deferred teardown still
// writes the profile instead of leaving an empty file.
func TestUnknownDemoKeepsProfile(t *testing.T) {
	if prof := os.Getenv("OPACHECK_TEST_CPUPROFILE"); prof != "" {
		os.Args = []string{"opacheck", "-cpuprofile", prof, "-demo", "nope"}
		os.Exit(run())
	}
	prof := filepath.Join(t.TempDir(), "cpu.out")
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownDemoKeepsProfile$")
	cmd.Env = append(os.Environ(), "OPACHECK_TEST_CPUPROFILE="+prof)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("opacheck -demo nope: err=%v, want exit status 2; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), `unknown demo "nope"`) {
		t.Errorf("stderr does not name the unknown demo:\n%s", stderr.String())
	}
	st, err := os.Stat(prof)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Error("the CPU profile is empty: the deferred teardown did not run")
	}
}

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
		code := runBatch(context.Background(), nil, &out, &errOut, 4, 0, mode.reference, "", "", []string{path})
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
		if code := runBatch(context.Background(), nil, &out, &errOut, 4, 0, reference, "", "", []string{path}); code != 0 {
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
	if code := runBatch(ctx, nil, &out, &errOut, 2, 0, false, "", "", []string{path}); code != 1 {
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
	if code := runBatch(context.Background(), nil, &out, &errOut, 2, 1, false, "", "", []string{path}); code != 1 {
		t.Errorf("exit code %d, want 1 under a 1-node budget", code)
	}
	if !strings.Contains(out.String(), "error") {
		t.Errorf("expected a budget error line, got:\n%s", out.String())
	}
}

func TestRunBatchMissingFile(t *testing.T) {
	var out, errOut strings.Builder
	if code := runBatch(context.Background(), nil, &out, &errOut, 2, 0, false, "", "", []string{"/nonexistent/histories.txt"}); code != 1 {
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
	if code := runBatch(context.Background(), nil, &out, &errOut, 2, 0, false, "", "", []string{uri}); code != 0 {
		t.Fatalf("URI input: exit %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.HasPrefix(out.String(), uri+":1 opaque ") {
		t.Errorf("verdict labels should carry the URI as given:\n%s", out.String())
	}

	// Same run again, with the verdicts going to a storage object.
	sinkURI := "mem://opacheck-test-corpus/verdicts.log"
	var out2, errOut2 strings.Builder
	if code := runBatch(context.Background(), nil, &out2, &errOut2, 2, 0, false, "", sinkURI, []string{uri}); code != 0 {
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
	if code := runBatch(ctx, nil, &out, &errOut, 2, 0, false, "", sinkURI, []string{path}); code != 1 {
		t.Errorf("interrupted run: exit %d, want 1", code)
	}
	if _, err := storage.OpenURI(sinkURI); err == nil {
		t.Error("interrupted run committed a verdict object")
	}
}

// endless is an input that never runs dry: one history line over and
// over, like `yes 'w1(x,1) tryC1 C1 r2(x)->1 tryC2 C2'`.
type endless struct {
	line string
	off  int
}

func (e *endless) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], e.line[e.off:])
		n += c
		e.off = (e.off + c) % len(e.line)
	}
	return n, nil
}

// cancelOnWrite cancels a batch once its first verdicts reach the sink.
type cancelOnWrite struct{ cancel context.CancelFunc }

func (w cancelOnWrite) Write(p []byte) (int, error) {
	w.cancel()
	return len(p), nil
}

// failingSink fails every write, as a full disk would.
type failingSink struct{}

func (failingSink) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// runBatchBounded runs a batch over an endless stdin and fails the test
// if it does not return within a deadline: a batch must stop reading its
// input once it is cancelled or its sink fails.
func runBatchBounded(t *testing.T, ctx context.Context, out io.Writer) (int, string) {
	t.Helper()
	var errOut strings.Builder
	done := make(chan int, 1)
	go func() {
		done <- runBatch(ctx, &endless{line: demos["h4"] + "\n"}, out, &errOut, 2, 0, false, "", "", []string{"-"})
	}()
	select {
	case code := <-done:
		return code, errOut.String()
	case <-time.After(30 * time.Second):
		t.Fatal("runBatch still reading an endless input 30s after it should have stopped")
		return 0, ""
	}
}

// TestRunBatchStopsReadingOnCancel: SIGINT/SIGTERM mid-batch stops the
// input reader too, so "remaining input skipped" holds on an input that
// never ends.
func TestRunBatchStopsReadingOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	code, errOut := runBatchBounded(t, ctx, cancelOnWrite{cancel})
	if code != 1 || !strings.Contains(errOut, "interrupted; remaining input skipped") {
		t.Errorf("exit %d, stderr:\n%s\nwant exit 1 and the interruption note", code, errOut)
	}
}

// TestRunBatchStopsReadingOnSinkError: a failing verdict sink stops the
// input reader, not only the pool.
func TestRunBatchStopsReadingOnSinkError(t *testing.T) {
	code, errOut := runBatchBounded(t, context.Background(), failingSink{})
	if code != 1 || !strings.Contains(errOut, "verdict sink: disk full") || strings.Contains(errOut, "interrupted") {
		t.Errorf("exit %d, stderr:\n%s\nwant exit 1 and the sink error only", code, errOut)
	}
}

// runSingle re-executes the running test as `opacheck` in
// single-history mode with the given stdin (see singleModeChild),
// returning stdout, stderr and the exit code. Stdout is capped at 1 MiB:
// a child that writes more is cut off and fails the test.
func runSingle(t *testing.T, stdin io.Reader) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	cmd.Env = append(os.Environ(), "OPACHECK_TEST_SINGLE=1")
	cmd.Stdin = stdin
	stdout := &cappedBuffer{max: 1 << 20}
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = stdout, &stderr
	err := cmd.Run()
	code := 0
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), code
}

// cappedBuffer keeps at most max bytes and fails the write that would
// exceed them, which closes the pipe a child process writes into.
type cappedBuffer struct {
	bytes.Buffer
	max int
}

func (b *cappedBuffer) Write(p []byte) (int, error) {
	if b.Len()+len(p) > b.max {
		return 0, fmt.Errorf("output over %d bytes", b.max)
	}
	return b.Buffer.Write(p)
}

// singleModeChild is the child side of runSingle: in the re-executed
// test binary it runs opacheck without arguments and exits.
func singleModeChild() {
	if os.Getenv("OPACHECK_TEST_SINGLE") != "" {
		os.Args = []string{"opacheck"}
		os.Exit(run())
	}
}

// TestSingleModeLongStdinLine: single-history mode reads stdin without a
// line-length cap. A line over bufio.Scanner's 64 KiB limit used to end
// the input silently — nothing printed, exit 0 — dropping it and every
// line after it.
func TestSingleModeLongStdinLine(t *testing.T) {
	singleModeChild()
	long := "r1(x)->0 tryC1 C1 # " + strings.Repeat("padding ", 10_000) // 80 KB
	stdout, stderr, code := runSingle(t, strings.NewReader(long+"\n"+"w1(x,1) tryC1 C1 r2(x)->0 tryC2 C2\n"))
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	var verdicts []string
	for _, line := range strings.Split(stdout, "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "opacity" {
			verdicts = append(verdicts, f[1])
		}
	}
	if strings.Join(verdicts, " ") != "yes NO" {
		t.Errorf("opacity verdicts %q, want [yes NO] for the long line and the one after it; stdout:\n%s", verdicts, stdout)
	}
}

// TestSingleModeLongHistory: a history too long to draw as a timeline is
// printed on one line with a note, so the output stays proportional to
// the input. The timeline of this chain of 3,999 committed writers took
// about a minute and 444 MB: each of its rows is as wide as the whole
// history.
func TestSingleModeLongHistory(t *testing.T) {
	singleModeChild()
	var in strings.Builder
	for i := 1; i < 4000; i++ {
		fmt.Fprintf(&in, "w%d(x,%d) tryC%d C%d ", i, i, i, i)
	}
	in.WriteString("\n")
	stdout, stderr, code := runSingle(t, strings.NewReader(in.String()))
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	if len(stdout) > 2*in.Len() {
		t.Errorf("%d bytes of output for %d bytes of input, want at most twice the input", len(stdout), in.Len())
	}
	if !strings.Contains(stdout, "(timeline left out: 3999 transactions, over the 64 it is drawn for;") {
		t.Errorf("output does not say the timeline was left out")
	}
	for name, verdict := range criteriaRows(stdout) {
		if verdict != "yes" {
			t.Errorf("%s: %q, want yes", name, verdict)
		}
	}
}

// criteriaRows returns the verdict printed in each of the six rows of
// the criteria table in stdout, "" for a row that is missing.
func criteriaRows(stdout string) map[string]string {
	rows := make(map[string]string)
	lines := strings.Split(stdout, "\n")
	for _, name := range []string{"opacity", "serializability", "strict serializability",
		"global atomicity (+rt)", "strict recoverability", "rigorous scheduling"} {
		rows[name] = ""
		for _, line := range lines {
			if rest, ok := strings.CutPrefix(line, name+"  "); ok {
				rows[name] = strings.Fields(rest)[0]
			}
		}
	}
	return rows
}

// TestSingleModeLongRecordedHistory: single-history mode prints the whole
// criteria table for a 1,000-transaction history recorded from tl2. It
// used to search for serializability with every commit moved to the
// end, which erases ≺ and leaves the search nothing to guide it: after
// half a minute the search ran out of nodes and the run exited 1, while
// opacity took a tenth of a second.
func TestSingleModeLongRecordedHistory(t *testing.T) {
	singleModeChild()
	h := stmtest.Interleaved(tl2.New(16), 1000)
	stdout, stderr, code := runSingle(t, strings.NewReader(h.String()+"\n"))
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	for name, verdict := range criteriaRows(stdout) {
		switch {
		case verdict != "yes" && verdict != "NO":
			t.Errorf("%s: %q, want the row printed", name, verdict)
		case verdict != "yes" && name != "strict recoverability" && name != "rigorous scheduling":
			t.Errorf("%s: %q, want yes for a history of an opaque TM", name, verdict)
		}
	}
}

// TestSingleModeStdinReadError: a stdin that cannot be read is reported
// and fails the run.
func TestSingleModeStdinReadError(t *testing.T) {
	singleModeChild()
	dir, err := os.Open(t.TempDir()) // reading a directory fails
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	_, stderr, code := runSingle(t, dir)
	if code != 1 || !strings.Contains(stderr, "opacheck: read ") {
		t.Errorf("exit %d, stderr:\n%s\nwant exit 1 and the read error", code, stderr)
	}
}

// TestRunBatchReadErrorMidInput: an input that fails partway through
// yields one error line for the line the failure cut, and the batch goes
// on with the next file and exits 1.
func TestRunBatchReadErrorMidInput(t *testing.T) {
	next := filepath.Join(t.TempDir(), "next.txt")
	if err := os.WriteFile(next, []byte(demos["h4"]+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The third line is cut after "w1(x,1) tryC1": whole, it would read
	// as a different history.
	stdin := io.MultiReader(strings.NewReader(demos["h4"]+"\n"+demos["fig1"]+"\nw1(x,1) tryC1"), iotest.ErrReader(errors.New("device gone")))
	var out, errOut strings.Builder
	if code := runBatch(context.Background(), stdin, &out, &errOut, 2, 0, false, "", "", []string{"-", next}); code != 1 {
		t.Errorf("exit code %d, want 1 for a failed read", code)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	want := []string{"stdin:1 opaque ", "stdin:2 non-opaque ", "stdin:3 error device gone", next + ":1 opaque "}
	if len(lines) != len(want) {
		t.Fatalf("%d verdict lines, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], w)
		}
	}
	if !strings.Contains(errOut.String(), "opacheck: 4 histories: 2 opaque, 1 non-opaque, 1 errors;") {
		t.Errorf("summary does not count the read error:\n%s", errOut.String())
	}
}
