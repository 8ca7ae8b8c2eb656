package monitor_test

import (
	"sync"
	"testing"

	"otm/internal/history"
	"otm/internal/monitor"
	"otm/internal/spec"
)

// gateState wraps a register specification so its first Step blocks: the
// monitor's drain goroutine entering a check parks on the gate, which
// lets a test fill and overflow the Async queue deterministically
// instead of racing the drain.
type gateState struct {
	inner   spec.State
	entered chan<- struct{}
	release <-chan struct{}
	once    *sync.Once
}

func (g *gateState) Name() string { return g.inner.Name() }

// Key must differ from the wrapped register's: the search context
// interns states by Key (and pre-interns the default register), so a
// wrapper with the register's own key would canonicalize to the plain
// register and never have its Step consulted.
func (g *gateState) Key() string { return "gate:" + g.inner.Key() }
func (g *gateState) Step(op string, arg, ret spec.Value) (spec.State, bool) {
	g.once.Do(func() {
		g.entered <- struct{}{}
		<-g.release
	})
	next, ok := g.inner.Step(op, arg, ret)
	if !ok {
		return next, false
	}
	return &gateState{inner: next, entered: g.entered, release: g.release, once: g.once}, true
}

// gatedObjects returns objects whose register x parks the first replay
// of an operation on it until release is closed, signalling entered
// once it parks.
func gatedObjects() (objs spec.Objects, entered <-chan struct{}, release chan<- struct{}) {
	in := make(chan struct{}, 1)
	out := make(chan struct{})
	return spec.Objects{"x": &gateState{
		inner:   spec.NewRegister(0),
		entered: in,
		release: out,
		once:    &sync.Once{},
	}}, in, out
}

// TestDroppedCountsExactlyWhenLossy pins the drop-counter contract the
// control plane's telemetry relies on: Dropped > 0 exactly when the
// session is Lossy (and exactly when StatusLossy latched), and the
// count equals the number of events the Drop policy actually discarded.
func TestDroppedCountsExactlyWhenLossy(t *testing.T) {
	objs, entered, release := gatedObjects()
	s := monitor.New(monitor.Options{
		Mode:       monitor.Async,
		Buffer:     2,
		DropPolicy: monitor.Drop,
		Objects:    objs,
	})

	// The read's response event sends the drain goroutine into a check
	// that replays T1's read against the register — parking on the gate.
	// (A live transaction serializes as an empty abort, so only its
	// *reads* go through Step; a write response would never enter the
	// gate.) Buffer=2 guarantees neither setup event can drop; once
	// `entered` fires, both have been consumed and the queue is empty
	// with the drain busy.
	s.Append(history.Inv(1, "x", "read", nil))
	s.Append(history.Ret(1, "x", "read", 0))
	<-entered

	// Two events fill the Buffer=2 queue; the next MUST drop — and that
	// first drop latches StatusLossy, after which later events are
	// counted but spared the queue (neither enqueued nor dropped), so
	// the drop count stays exactly 1.
	s.Append(history.TryC(1))
	s.Append(history.Commit(1))
	s.Append(history.Inv(2, "x", "read", nil))
	s.Append(history.Ret(2, "x", "read", 0))
	st := s.Stats()
	if st.Dropped != 1 || !st.Lossy || st.Status != monitor.StatusLossy {
		t.Fatalf("mid-run stats %+v, want Dropped=1 Lossy StatusLossy", st)
	}
	if st.QueueCap != 2 || st.QueueDepth != 2 {
		t.Errorf("queue %d/%d, want 2/2", st.QueueDepth, st.QueueCap)
	}
	close(release)
	v := s.Close()
	if v.Dropped != 1 || !v.Lossy || v.Status != monitor.StatusLossy {
		t.Fatalf("verdict %+v, want Dropped=1 Lossy StatusLossy", v)
	}
	if v.Events != 6 {
		t.Errorf("Events = %d, want 6 (post-latch events still counted)", v.Events)
	}
}

// TestInFlightViolationOutranksLossy: a check already running when an
// event drops latches its violation over the lossy status, since
// violated ranks above lossy. The drain parks inside the check of
// r1(x)->7 (no transaction wrote 7), the Buffer=2 queue fills, the next
// event drops, and the released check then finds the violation.
func TestInFlightViolationOutranksLossy(t *testing.T) {
	objs, entered, release := gatedObjects()
	s := monitor.New(monitor.Options{
		Mode:       monitor.Async,
		Buffer:     2,
		DropPolicy: monitor.Drop,
		Objects:    objs,
	})
	s.Append(history.Inv(1, "x", "read", nil))
	s.Append(history.Ret(1, "x", "read", 7))
	<-entered
	s.Append(history.TryC(1))
	s.Append(history.Commit(1))
	s.Append(history.Inv(2, "x", "read", nil))
	if st := s.Stats(); st.Status != monitor.StatusLossy || st.Dropped != 1 {
		t.Fatalf("mid-run stats %+v, want StatusLossy with Dropped=1", st)
	}
	close(release)
	v := s.Close()
	if v.Status != monitor.StatusViolated || v.Dropped != 1 || v.PrefixLen != 2 {
		t.Fatalf("verdict %+v, want StatusViolated at prefix 2 with Dropped=1", v)
	}
	if s.Violation() == nil {
		t.Error("no violation recorded")
	}
}

// TestLossoffWithoutDrops is the other half of the satellite contract:
// a session that never drops reports Dropped == 0 and Lossy == false in
// both Verdict and Stats, whatever else happened.
func TestLossoffWithoutDrops(t *testing.T) {
	for _, mode := range []monitor.Mode{monitor.Sync, monitor.Async} {
		s := monitor.New(monitor.Options{Mode: mode})
		for _, ev := range zombieHistory() {
			s.Append(ev)
		}
		v := s.Close()
		if v.Dropped != 0 || v.Lossy {
			t.Errorf("%v: verdict %+v, want Dropped=0 !Lossy", mode, v)
		}
		st := s.Stats()
		if st.Dropped != 0 || st.Lossy {
			t.Errorf("%v: stats %+v, want Dropped=0 !Lossy", mode, st)
		}
		if v.Status != monitor.StatusViolated || st.Status != monitor.StatusViolated {
			t.Errorf("%v: status %v/%v, want violated (drops are not the only latch)", mode, v.Status, st.Status)
		}
	}
}

// TestStatsMirrorsVerdict: after Close the lock-free Stats snapshot and
// the mutex-guarded Verdict agree field for field, including the
// search-table residency counters only Stats carries.
func TestStatsMirrorsVerdict(t *testing.T) {
	b := history.NewBuilder()
	for i := 1; i <= 30; i++ {
		tx := history.TxID(i)
		b.Write(tx, "x", i).Read(tx, "x", i).Commits(tx)
	}
	h := b.MustHistory()
	s := monitor.New(monitor.Options{TruncateAfterEvents: 32})
	for _, ev := range h {
		s.Append(ev)
	}
	v := s.Close()
	st := s.Stats()
	if st.Status != v.Status || st.Events != v.Events || st.Checked != v.Checked ||
		st.Dropped != v.Dropped || st.PrefixLen != v.PrefixLen ||
		st.Nodes != v.Nodes || st.FastPath != v.FastPath || st.Searches != v.Searches ||
		st.Skipped != v.Skipped || st.Checkpoints != v.Checkpoints ||
		st.TruncatedEvents != v.TruncatedEvents || st.LiveEvents != v.LiveEvents ||
		st.Roots != v.Roots || st.TruncNodes != v.TruncNodes {
		t.Fatalf("stats %+v\ndisagree with verdict %+v", st, v)
	}
	if v.Checkpoints == 0 {
		t.Fatalf("truncation never fired; verdict %+v", v)
	}
	if st.TableStates <= 0 || st.TableAtoms <= 0 {
		t.Errorf("table residency %d states / %d atoms, want > 0", st.TableStates, st.TableAtoms)
	}
	if st.QueueDepth != 0 || st.QueueCap != 0 {
		t.Errorf("sync session reports a queue: %+v", st)
	}
}

// TestStatsConcurrentScrape hammers Stats and Verdict from scraper
// goroutines while the session checks a live stream — the -race matrix
// proves the lock-free read path against the append path.
func TestStatsConcurrentScrape(t *testing.T) {
	b := history.NewBuilder()
	for i := 1; i <= 200; i++ {
		tx := history.TxID(i)
		b.Write(tx, "x", i).Read(tx, "x", i).Commits(tx)
	}
	h := b.MustHistory()
	s := monitor.New(monitor.Options{Mode: monitor.Async, Buffer: 64})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.Stats()
				if st.Events < 0 || st.Checked > st.Events || st.Dropped != 0 {
					t.Errorf("implausible stats %+v", st)
					return
				}
				if v := s.Verdict(); v.Checked > v.Events || v.Status != monitor.StatusOpaque || v.Err != nil {
					t.Errorf("implausible verdict %+v", v)
					return
				}
			}
		}()
	}
	for _, ev := range h {
		s.Append(ev)
	}
	v := s.Close()
	close(stop)
	wg.Wait()
	if v.Status != monitor.StatusOpaque {
		t.Fatalf("verdict %+v", v)
	}
	if st := s.Stats(); st.Checked != v.Checked {
		t.Errorf("final stats %+v disagree with verdict %+v", st, v)
	}
}
