package stm

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"otm/internal/history"
)

// lockedTM is a minimal concurrency-safe TM (one big lock, last-writer-
// wins at commit) for exercising the recorder's concurrent plumbing
// without dragging a real engine into the package (the engines import
// stm, not the other way around). It makes no isolation promises — the
// tests below are about the Recorder and its tap, not about opacity.
// calls counts the Read, Write, Commit and Abort calls the recorder
// passes down: each one is exactly one invocation and one response
// event, so 2·calls is the number of events the recorder emitted,
// counted below it.
type lockedTM struct {
	mu    sync.Mutex
	vals  []int
	calls atomic.Int64
}

func newLocked(n int) *lockedTM { return &lockedTM{vals: make([]int, n)} }

func (m *lockedTM) Name() string { return "locked" }
func (m *lockedTM) Len() int     { return len(m.vals) }
func (m *lockedTM) Begin() Tx    { return &lockedTx{tm: m, local: map[int]int{}} }

type lockedTx struct {
	tm    *lockedTM
	local map[int]int
	steps int64
	done  bool
}

func (t *lockedTx) Read(i int) (int, error) {
	t.tm.calls.Add(1)
	if t.done {
		return 0, ErrAborted
	}
	t.steps++
	if v, ok := t.local[i]; ok {
		return v, nil
	}
	t.tm.mu.Lock()
	defer t.tm.mu.Unlock()
	return t.tm.vals[i], nil
}

func (t *lockedTx) Write(i, v int) error {
	t.tm.calls.Add(1)
	if t.done {
		return ErrAborted
	}
	t.steps++
	t.local[i] = v
	return nil
}

func (t *lockedTx) Commit() error {
	t.tm.calls.Add(1)
	if t.done {
		return ErrAborted
	}
	t.done = true
	t.tm.mu.Lock()
	defer t.tm.mu.Unlock()
	for i, v := range t.local {
		t.tm.vals[i] = v
	}
	return nil
}

func (t *lockedTx) Abort() {
	t.tm.calls.Add(1)
	t.done = true
}

func (t *lockedTx) Steps() int64 { return t.steps }

// TestRecorderTapConcurrent hammers one tapped Recorder from many
// goroutines — transactions recording, a reader polling History — and
// checks the tap received every event the recorder emitted, as a
// well-formed history, while the recorder itself kept none. The tap
// writes to a plain slice with no locking of its own: the recorder's
// mutex is the only thing making that safe, which is precisely what
// `go test -race` verifies here.
func TestRecorderTapConcurrent(t *testing.T) {
	const goroutines = 8
	const txPerG = 50

	inner := newLocked(4)
	rec := NewRecorder(inner)
	var tapped []history.Event
	rec.Tap(func(ev history.Event) { tapped = append(tapped, ev) })

	// A reader goroutine races History() snapshots against the recording
	// goroutines for the whole run.
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = rec.History()
			}
		}
	}()

	var txs sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		txs.Add(1)
		go func(g int) {
			defer txs.Done()
			for i := 0; i < txPerG; i++ {
				err := Atomically(rec, func(tx Tx) error {
					if _, err := tx.Read((g + i) % 4); err != nil {
						return err
					}
					return tx.Write(g%4, i)
				})
				if err != nil {
					t.Errorf("goroutine %d tx %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	txs.Wait()
	close(stop)
	reader.Wait()

	h := history.History(tapped)
	if err := h.WellFormed(); err != nil {
		t.Fatalf("tapped history ill-formed: %v", err)
	}
	if want := 2 * int(inner.calls.Load()); len(h) != want {
		t.Fatalf("tap saw %d events, the engine was called for %d", len(h), want)
	}
	if want := goroutines * txPerG * 6; len(h) != want {
		t.Fatalf("tap saw %d events, want %d (three calls per transaction)", len(h), want)
	}
	if got := len(rec.History()); got != 0 {
		t.Fatalf("a recorder tapped from its first event kept %d events", got)
	}
}

// TestRecorderTapRemoval: events go to the tap while one is set and to
// the recorder's own history otherwise, never to both — History holds
// exactly the events recorded while untapped, in order.
func TestRecorderTapRemoval(t *testing.T) {
	rec := NewRecorder(newLocked(1))
	tx := rec.Begin()
	if _, err := tx.Read(0); err != nil { // untapped: inv, ret
		t.Fatal(err)
	}
	var tapped history.History
	rec.Tap(func(ev history.Event) { tapped = append(tapped, ev) })
	if err := tx.Write(0, 1); err != nil { // tapped: inv, ret
		t.Fatal(err)
	}
	rec.Tap(nil)
	if err := tx.Commit(); err != nil { // untapped: tryC, C
		t.Fatal(err)
	}
	wantTapped := history.History{
		history.Inv(1, "r0", "write", 1), history.Ret(1, "r0", "write", history.OK),
	}
	if !reflect.DeepEqual(tapped, wantTapped) {
		t.Errorf("tap observed %v, want %v", tapped, wantTapped)
	}
	wantKept := history.History{
		history.Inv(1, "r0", "read", nil), history.Ret(1, "r0", "read", 0),
		history.TryC(1), history.Commit(1),
	}
	if got := rec.History(); !reflect.DeepEqual(got, wantKept) {
		t.Errorf("recorder kept %v, want the untapped events %v", got, wantKept)
	}
}
