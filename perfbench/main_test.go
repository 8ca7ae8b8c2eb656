package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"otm/internal/gen"
)

// tinySize is the input size of the self-tests' runs.
var tinySize = map[string]string{"recorded": "60", "adversarial": "60", "symmetric": "60", "monitor": "40"}

// runTiny runs the benchmark on a tiny input and returns its exit code,
// standard output and parsed result line.
func runTiny(t *testing.T, workload string, extra ...string) (int, string, result) {
	t.Helper()
	args := append([]string{
		"-workload", workload, "-seed", "3", "-seconds", "0.05",
		"-n", tinySize[workload], "-trace-dir", t.TempDir(),
	}, extra...)
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s %v: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", workload, extra, err, out.String(), errOut.String())
	}
	return code, out.String(), res
}

// failedRatio extracts the printed failed_ratio.
func failedRatio(t *testing.T, out string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^failed_ratio\s+(\S+)\s+ratio`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no failed_ratio line in:\n%s", out)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, w := range []string{"recorded", "adversarial", "symmetric", "monitor"} {
		for trace, names := range [][]struct{ name, unit string }{endToEnd, perLayer} {
			code, out, res := runTiny(t, w, "-trace", strconv.Itoa(trace))
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%d: exit %d, result %+v\n%s", w, trace, code, res, out)
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w, trace, len(res.Metrics), len(names))
			}
			for _, m := range names {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w, trace, m.name, got, m.unit)
				}
				if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.name) + `\s+\S+\s+` + regexp.QuoteMeta(m.unit) + `\b`).MatchString(out) {
					t.Errorf("%s trace=%d: report does not print %s with its unit", w, trace, m.name)
				}
			}
			if trace == 0 {
				for _, m := range names {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.name, res.Metrics[m.name].Value)
					}
				}
				if !regexp.MustCompile(`(?m)^throughput_per_s\s+\S+\s+1/s\b`).MatchString(out) {
					t.Errorf("%s: report does not print throughput_per_s with its unit", w)
				}
			}
			if r := failedRatio(t, out); r != 0 {
				t.Errorf("%s trace=%d: failed_ratio %v, want 0", w, trace, r)
			}
		}
	}
}

func TestInjectedWrongVerdictFails(t *testing.T) {
	for _, w := range []string{"recorded", "adversarial"} {
		code, out, res := runTiny(t, w, "-inject", "verdict")
		if code == 0 || res.Correct || res.Failed == 0 || failedRatio(t, out) <= 0 {
			t.Errorf("%s with a wrong expected verdict: exit %d, result %+v\n%s", w, code, res, out)
		}
		if !strings.Contains(out, "verify: FAIL") {
			t.Errorf("%s: the mismatch is not printed:\n%s", w, out)
		}
	}
}

func TestZombieOnMonitorPathFails(t *testing.T) {
	code, out, res := runTiny(t, "monitor", "-inject", "zombie")
	if code == 0 || res.Correct || res.Failed == 0 || failedRatio(t, out) <= 0 {
		t.Errorf("monitor with the §2 zombie on gatm: exit %d, result %+v\n%s", code, res, out)
	}
	if !strings.Contains(out, "closed VIOLATED") {
		t.Errorf("the violated session is not reported:\n%s", out)
	}
}

func TestGenerationIsDeterministic(t *testing.T) {
	for _, w := range []string{"recorded", "adversarial", "symmetric"} {
		a, err := batchInputs(w, 7, 40, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := batchInputs(w, 7, 40, nil)
		c, _ := batchInputs(w, 8, 40, nil)
		if digest(a...) != digest(b...) || strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: two generations from seed 7 differ", w)
		}
		if digest(a...) == digest(c...) {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", w)
		}
	}
	if monitorScript(7, 40).render() != monitorScript(7, 40).render() {
		t.Error("monitor: two scripts from seed 7 differ")
	}
	if monitorScript(7, 40).render() == monitorScript(8, 40).render() {
		t.Error("monitor: seeds 7 and 8 generate the same script")
	}
}

// TestCountsRepeat: two runs of one seed print the same input digest and
// the same exact work counts. Batch counts come from the one-worker
// verification pass, so even its intern counts repeat; the timed
// two-worker passes' per-worker intern counts do not and are not
// printed as counts.
func TestCountsRepeat(t *testing.T) {
	grab := regexp.MustCompile(`(?m)^(inputs|counts): .*$`)
	for _, w := range []string{"recorded", "adversarial", "symmetric", "monitor"} {
		_, out1, _ := runTiny(t, w)
		_, out2, _ := runTiny(t, w)
		a, b := grab.FindAllString(out1, -1), grab.FindAllString(out2, -1)
		if len(a) != 2 {
			t.Fatalf("%s: want an inputs and a counts line, got %q", w, a)
		}
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: digests or counts differ between runs:\n%s\n%s", w, strings.Join(a, "\n"), strings.Join(b, "\n"))
		}
	}
}

// TestGeneratorsSpawnNoGoroutines: the code input generation runs — this
// package's generators and the packages they call into — contains no go
// statement, and generating leaves the goroutine count unchanged.
func TestGeneratorsSpawnNoGoroutines(t *testing.T) {
	files := []string{"inputs.go"}
	for _, dir := range []string{"stm", "stm/tl2", "stm/dstm", "stm/vstm", "stm/mvstm", "cm", "interleave", "gen", "history"} {
		matches, err := filepath.Glob(filepath.Join("..", "internal", dir, "*.go"))
		if err != nil || len(matches) == 0 {
			t.Fatalf("internal/%s: %v", dir, err)
		}
		for _, f := range matches {
			if !strings.HasSuffix(f, "_test.go") {
				files = append(files, f)
			}
		}
	}
	fset := token.NewFileSet()
	for _, f := range files {
		file, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement on the generator path", fset.Position(g.Pos()))
			}
			return true
		})
	}
	// internal/bench contributes only its engine table.
	file, err := parser.ParseFile(fset, filepath.Join("..", "internal", "bench", "bench.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && (fn.Name.Name == "Engines" || fn.Name.Name == "EngineByName") {
			ast.Inspect(fn, func(n ast.Node) bool {
				if _, ok := n.(*ast.GoStmt); ok {
					t.Errorf("bench.%s spawns a goroutine", fn.Name.Name)
				}
				return true
			})
		}
	}
	before := runtime.NumGoroutine()
	for _, w := range []string{"recorded", "adversarial", "symmetric"} {
		if _, err := batchInputs(w, 1, 20, nil); err != nil {
			t.Fatal(err)
		}
	}
	monitorScript(1, 20)
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("generation changed the goroutine count from %d to %d", before, after)
	}
}

func TestSymmetricConfigMatchesPinnedSpec(t *testing.T) {
	spec, err := gen.LoadSpec(filepath.Join("..", "testdata", "corpora", "symmetric.json"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Config() != symmetricConfig {
		t.Errorf("symmetricConfig = %+v, pinned spec has %+v", symmetricConfig, spec.Config())
	}
}

func TestTraceSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{kind: spanRequest, parent: spanNone, req: 1, start: 0, end: 100},
		{kind: spanParse, parent: spanRequest, req: 1, start: 0, end: 10},
		{kind: spanCheck, parent: spanRequest, req: 1, start: 30, end: 80},
		{kind: spanLine, parent: spanRequest, req: 1, start: 90, end: 100},
	}}
	lt := tr.analyze()
	if lt.bad != 0 {
		t.Fatalf("well-nested spans reported %d bad", lt.bad)
	}
	if got := lt.self[spanRequest]; len(got) != 1 || got[0] != 30 {
		t.Errorf("request self time %v, want [30]", got)
	}
	var sum float64
	for _, k := range []spanKind{spanRequest, spanParse, spanCheck, spanLine} {
		sum += lt.share(k)
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Errorf("self-time shares sum to %v, want 1", sum)
	}
	tr.spans = append(tr.spans, span{kind: spanCheck, parent: spanRequest, req: 1, start: 95, end: 120})
	if tr.analyze().bad == 0 {
		t.Error("a child outside its request was not reported")
	}
}

func TestVerdictKeyIgnoresNodes(t *testing.T) {
	a := verdictKey(`c:1 opaque nodes=42 order="T1 T2"`)
	b := verdictKey(`c:1 opaque nodes=7 order="T1 T2"`)
	if a != b || a != `c:1 opaque order="T1 T2"` {
		t.Errorf("verdictKey: %q vs %q", a, b)
	}
	if verdictKey("c:2 non-opaque nodes=9") != "c:2 non-opaque" {
		t.Errorf("verdictKey(non-opaque) = %q", verdictKey("c:2 non-opaque nodes=9"))
	}
}
