package controlplane

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"otm/internal/core"
	"otm/internal/history"
	"otm/internal/monitor"
	"otm/internal/stm"
	"otm/internal/stm/stmtest"
	"otm/internal/stm/tl2"
	"otm/internal/storage"
)

// opaqueStream returns n read-own-write commits, each a fresh
// transaction — trivially opaque, cheap to check.
func opaqueStream(n int) history.History {
	b := history.NewBuilder()
	for i := 1; i <= n; i++ {
		tx := history.TxID(i)
		b.Write(tx, "x", i).Read(tx, "x", i).Commits(tx)
	}
	return b.MustHistory()
}

func scrape(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	res, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", path, res.StatusCode, body)
	}
	return string(body)
}

// TestFleetAggregationAndMetrics: two members fed opaque streams
// aggregate into an opaque fleet status with summed counters, and the
// handler exposes both the per-session samples and the fleet families.
func TestFleetAggregationAndMetrics(t *testing.T) {
	f, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := f.Add("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Add("b")
	if err != nil {
		t.Fatal(err)
	}
	ha, hb := opaqueStream(8), opaqueStream(4)
	for _, ev := range ha {
		a.Append(ev)
	}
	for _, ev := range hb {
		b.Append(ev)
	}
	st := f.Close()
	if st.Sessions != 2 || st.Fleet != monitor.StatusOpaque || st.Violations != 0 || st.First != nil {
		t.Fatalf("status %+v, want 2 opaque sessions, no violations", st)
	}
	if want := len(ha) + len(hb); st.Events != want || st.Checked != want {
		t.Fatalf("events %d checked %d, want %d", st.Events, st.Checked, want)
	}
	if len(st.PerSession) != 2 || st.PerSession[0].Name != "a" || st.PerSession[1].Name != "b" {
		t.Fatalf("per-session %+v", st.PerSession)
	}
	if st.PerSession[0].Events != len(ha) || st.PerSession[1].Events != len(hb) {
		t.Fatalf("per-session events %d/%d, want %d/%d",
			st.PerSession[0].Events, st.PerSession[1].Events, len(ha), len(hb))
	}
	if st.UptimeSecs <= 0 || st.HeapBytes == 0 {
		t.Errorf("uptime %v heap %d, want both positive", st.UptimeSecs, st.HeapBytes)
	}

	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	prom := scrape(t, srv, "/metrics")
	for _, want := range []string{
		fmt.Sprintf(`otm_monitor_events_total{session="a"} %d`, len(ha)),
		fmt.Sprintf(`otm_monitor_events_total{session="b"} %d`, len(hb)),
		`otm_monitor_status{session="a"} 0`,
		`otm_monitor_table_resident{session="a"} `,
		"otm_fleet_sessions 2",
		fmt.Sprintf("otm_fleet_events_total %d", len(ha)+len(hb)),
		"otm_fleet_status 0",
		"otm_fleet_violations_total 0",
		"# TYPE otm_monitor_events_total counter",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q\n%s", want, prom)
		}
	}
	var status struct {
		Sessions    int    `json:"sessions"`
		FleetStatus string `json:"fleet_status"`
		Events      int    `json:"events"`
		PerSession  []struct {
			Name string `json:"name"`
		} `json:"per_session"`
	}
	if err := json.Unmarshal([]byte(scrape(t, srv, "/status")), &status); err != nil {
		t.Fatal(err)
	}
	if status.Sessions != 2 || status.FleetStatus != "opaque" || status.Events != len(ha)+len(hb) || len(status.PerSession) != 2 {
		t.Fatalf("/status %+v", status)
	}
}

// TestFleetViolationCapture: a zombie stream in one member latches the
// fleet's first violation, captures a replayable artifact through the
// mem:// store, and leaves the other member monitoring (StopOne). The
// artifact re-confirms offline.
func TestFleetViolationCapture(t *testing.T) {
	var notified []ViolationRecord
	f, err := New(Options{
		ArtifactsURI: "mem://fleet-test-capture",
		OnViolation:  func(_ string, r ViolationRecord) { notified = append(notified, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := f.Add("bad")
	if err != nil {
		t.Fatal(err)
	}
	good, err := f.Add("good")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range zombieHistory() {
		bad.Append(ev)
	}
	// StopOne: the healthy member keeps checking after the violation.
	hg := opaqueStream(3)
	for _, ev := range hg {
		good.Append(ev)
	}
	st := f.Close()
	if st.Fleet != monitor.StatusViolated || st.Violations != 1 || st.First == nil {
		t.Fatalf("status %+v, want one latched violation", st)
	}
	first := *st.First
	if first.Session != "bad" || first.Seq != 0 || first.PrefixLen != 10 || !first.Diagnosed {
		t.Fatalf("first violation %+v", first)
	}
	if first.CaptureErr != "" {
		t.Fatalf("capture failed: %s", first.CaptureErr)
	}
	if first.Artifact != "violations/000-bad.hist" {
		t.Fatalf("artifact name %q", first.Artifact)
	}
	if len(notified) != 1 || notified[0].Artifact != first.Artifact {
		t.Fatalf("OnViolation calls %+v", notified)
	}
	if got := good.Verdict(); got.Status != monitor.StatusOpaque || got.Events != len(hg) {
		t.Fatalf("healthy member perturbed: %+v", got)
	}

	// Round trip through storage: parse, replay, confirm.
	fsys, err := storage.Resolve("mem://fleet-test-capture")
	if err != nil {
		t.Fatal(err)
	}
	rc, err := fsys.Open(first.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	a, err := ParseArtifact(rc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Session != "bad" || !a.Replayable {
		t.Fatalf("artifact %+v", a)
	}
	out, err := a.Replay(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Confirmed() {
		t.Fatalf("offline replay disagrees with the online monitor: %+v", out)
	}
}

// TestFleetStopAll: one member's violation closes the rest of the fleet.
func TestFleetStopAll(t *testing.T) {
	f, err := New(Options{Stop: StopAll})
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := f.Add("bad")
	good, _ := f.Add("good")
	for _, ev := range opaqueStream(2) {
		good.Append(ev)
	}
	before := good.Stats().Events
	for _, ev := range zombieHistory() {
		bad.Append(ev)
	}
	// The stop is asynchronous; Close waits for it, and afterwards the
	// healthy member must ignore further events (closed sessions do).
	st := f.Close()
	if st.Fleet != monitor.StatusViolated {
		t.Fatalf("status %+v", st)
	}
	good.Append(history.TryC(history.TxID(99)))
	if got := good.Stats().Events; got != before {
		t.Errorf("member accepted events after StopAll close: %d -> %d", before, got)
	}
}

func TestFleetAddErrors(t *testing.T) {
	f, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Add(""); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := f.Add("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Add("a"); err == nil {
		t.Error("duplicate name accepted")
	}
	f.Close()
	if _, err := f.Add("b"); err == nil {
		t.Error("add after Close accepted")
	}
	if _, err := New(Options{ArtifactsURI: "bogus://x"}); err == nil {
		t.Error("bogus artifacts URI accepted")
	}
}

// TestFleetAttachRecorder drives member sessions from live tl2 engines
// through recorder taps — the production wiring — and scrapes /metrics
// concurrently under -race. The fleet must come out opaque with every
// event the recorders emitted accounted for; they are counted below the
// recorders, which keep none of them while tapped.
func TestFleetAttachRecorder(t *testing.T) {
	f, err := New(Options{Monitor: monitor.Options{Mode: monitor.Async, Buffer: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	const shards, goroutines, txPerG, k = 4, 4, 25, 4
	recs := make([]*stm.Recorder, shards)
	engines := make([]*stmtest.Counting, shards)
	for i := range recs {
		engines[i] = stmtest.NewCounting(tl2.New(k))
		recs[i] = stm.NewRecorder(engines[i])
		if _, err := f.Attach(fmt.Sprintf("shard-%d", i), recs[i]); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := srv.Client().Get(srv.URL + "/metrics")
			if err == nil {
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
			}
			f.Status()
		}
	}()

	var wg sync.WaitGroup
	for s, rec := range recs {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(s, g int, rec *stm.Recorder) {
				defer wg.Done()
				for i := 0; i < txPerG; i++ {
					err := stm.Atomically(rec, func(tx stm.Tx) error {
						if _, err := tx.Read((g + i) % k); err != nil {
							return err
						}
						return tx.Write(g%k, g*1000+i)
					})
					if err != nil {
						t.Errorf("shard %d g%d tx %d: %v", s, g, i, err)
						return
					}
				}
			}(s, g, rec)
		}
	}
	wg.Wait()
	for _, rec := range recs {
		rec.Tap(nil)
	}
	st := f.Close()
	close(stop)
	scrapeWG.Wait()
	if st.Fleet != monitor.StatusOpaque {
		t.Fatalf("fleet status %+v", st)
	}
	var emitted int
	for i, rec := range recs {
		emitted += engines[i].Events()
		if kept := len(rec.History()); kept != 0 {
			t.Errorf("tapped recorder %d kept %d events", i, kept)
		}
	}
	if st.Events != emitted || st.Checked != emitted || st.Dropped != 0 {
		t.Fatalf("fleet saw %d/%d events, recorders emitted %d", st.Events, st.Checked, emitted)
	}
}

// TestScrapePerturbation measures (and logs) the throughput cost of
// scraping a live 8-session fleet: the same fixed workload is timed with
// no scraper and with a tight scrape loop. Informational — thresholds
// on shared CI timing would flake — but the measured overhead on an
// idle machine is the README number.
func TestScrapePerturbation(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	// Truncation keeps the per-event check cost bounded, so the
	// measurement reflects steady-state monitoring rather than an
	// ever-growing witness replay.
	const sessions, events = 8, 1800
	run := func(scraping bool) float64 {
		f, err := New(Options{Monitor: monitor.Options{TruncateAfterEvents: 64}})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(f.Handler())
		defer srv.Close()
		members := make([]*Member, sessions)
		for i := range members {
			m, err := f.Add(fmt.Sprintf("s%d", i))
			if err != nil {
				t.Fatal(err)
			}
			members[i] = m
		}
		stop := make(chan struct{})
		var scrapeWG sync.WaitGroup
		if scraping {
			scrapeWG.Add(1)
			go func() {
				defer scrapeWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					res, err := srv.Client().Get(srv.URL + "/metrics")
					if err == nil {
						io.Copy(io.Discard, res.Body)
						res.Body.Close()
					}
				}
			}()
		}
		h := opaqueStream(events / 4)
		start := time.Now()
		var wg sync.WaitGroup
		for _, m := range members {
			wg.Add(1)
			go func(m *Member) {
				defer wg.Done()
				for _, ev := range h {
					m.Append(ev)
				}
			}(m)
		}
		wg.Wait()
		elapsed := time.Since(start)
		close(stop)
		scrapeWG.Wait()
		st := f.Close()
		if st.Fleet != monitor.StatusOpaque {
			t.Fatalf("fleet status %+v", st)
		}
		return float64(st.Events) / elapsed.Seconds()
	}
	run(false) // warm up spec/search paths
	quiet := run(false)
	scraped := run(true)
	t.Logf("events/s: %.0f unscraped, %.0f under scrape (%.2f%% delta)",
		quiet, scraped, 100*(quiet-scraped)/quiet)
}

// BenchmarkFleetScrape prices one /metrics render of an 8-member fleet.
func BenchmarkFleetScrape(b *testing.B) {
	f, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		m, err := f.Add(fmt.Sprintf("s%d", i))
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range opaqueStream(16) {
			m.Append(ev)
		}
	}
	reg := f.Registry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFleetAccessors covers the small introspection surface: policy
// names, the shared registry, member identity and per-member close.
func TestFleetAccessors(t *testing.T) {
	if got := StopOne.String(); got != "stop-one" {
		t.Errorf("StopOne.String() = %q", got)
	}
	if got := StopAll.String(); got != "stop-all" {
		t.Errorf("StopAll.String() = %q", got)
	}
	f, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Registry() == nil {
		t.Fatal("nil fleet registry")
	}
	m, err := f.Add("solo")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "solo" {
		t.Errorf("Name() = %q", m.Name())
	}
	if m.Session() == nil {
		t.Fatal("nil member session")
	}
	for _, ev := range opaqueStream(2) {
		m.Append(ev)
	}
	v := m.Close()
	if v.Status != monitor.StatusOpaque || v.Events != 12 {
		t.Fatalf("member verdict %+v", v)
	}
	if st := f.Status(); st.FleetStatus != "opaque" {
		t.Fatalf("fleet status %q after clean member close", st.FleetStatus)
	}
}
