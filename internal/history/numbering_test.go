package history

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// checkNumbering drives a numbering with a random stream of adds, finds,
// drops and resets over keys drawn by key, and after every step holds it
// to a plain list (ids are list positions) and a map. Each round numbers
// up to 80 keys, so the list crosses linearMax; dropFirst then leaves
// either more than linearMax keys or at most that many, and a reset
// makes the same numbering cross the cutoff again with other keys. It
// returns how often each of those happened.
func checkNumbering[K comparable](t *testing.T, seed int64, key func(r *rand.Rand) K) (c walkCounts) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var n numbering[K]
	var ref []K
	check := func(op string) {
		t.Helper()
		if !slices.Equal(n.keys, ref) {
			t.Fatalf("seed %d, after %s: keys %v, want %v", seed, op, n.keys, ref)
		}
		// The map holds every key above the cutoff and none at or below it.
		want := 0
		if len(ref) > linearMax {
			want = len(ref)
		}
		if len(n.idx) != want {
			t.Fatalf("seed %d, after %s: %d keys, %d in the map, want %d", seed, op, len(ref), len(n.idx), want)
		}
		byKey := make(map[K]int32, len(ref))
		for id, k := range ref {
			byKey[k] = int32(id)
		}
		for range 8 {
			k := key(r)
			want, ok := byKey[k]
			if !ok {
				want = -1
			}
			if got := n.find(k); got != want {
				t.Fatalf("seed %d, after %s: find(%v) = %d, want %d (%d keys)", seed, op, k, got, want, len(ref))
			}
		}
		for id, k := range ref {
			if got := n.find(k); got != int32(id) {
				t.Fatalf("seed %d, after %s: find(%v) = %d, want %d (%d keys)", seed, op, k, got, id, len(ref))
			}
		}
	}
	for round := 0; round < 12; round++ {
		for step := r.Intn(80); step > 0; step-- {
			k := key(r)
			want := int32(slices.Index(ref, k))
			if want < 0 {
				want = int32(len(ref))
				ref = append(ref, k)
			}
			before := len(n.keys)
			if got := n.add(k); got != want {
				t.Fatalf("seed %d: add(%v) = %d, want %d", seed, k, got, want)
			}
			if before == linearMax && len(n.keys) == linearMax+1 {
				c.crossed++
			}
			check(fmt.Sprintf("add(%v)", k))
		}
		if len(ref) > linearMax {
			d := r.Intn(len(ref) + 1)
			n.dropFirst(d)
			ref = ref[d:]
			if len(ref) > linearMax {
				c.dropAbove++
			} else {
				c.dropBelow++
			}
			check(fmt.Sprintf("dropFirst(%d)", d))
		}
		if r.Intn(3) == 0 {
			n.reset()
			ref = ref[:0]
			c.resets++
			check("reset")
		}
	}
	return c
}

// walkCounts counts the paths checkNumbering walks took.
type walkCounts struct{ crossed, dropAbove, dropBelow, resets int }

func (c *walkCounts) add(d walkCounts) {
	c.crossed += d.crossed
	c.dropAbove += d.dropAbove
	c.dropBelow += d.dropBelow
	c.resets += d.resets
}

// TestNumberingMatchesMap pins the numbering to a list and a map on
// random TxID and ObjID streams: misses, crossing the linearMax cutoff,
// dropping a prefix to above and to at or below it, and reuse after a
// reset. Over all seeds every one of those happens.
func TestNumberingMatchesMap(t *testing.T) {
	var txs, objs walkCounts
	for seed := int64(0); seed < 40; seed++ {
		txs.add(checkNumbering(t, seed, func(r *rand.Rand) TxID { return TxID(r.Intn(120)) }))
		objs.add(checkNumbering(t, seed, func(r *rand.Rand) ObjID { return ObjID(fmt.Sprintf("o%d", r.Intn(120))) }))
	}
	for _, c := range []walkCounts{txs, objs} {
		if c.crossed < 10 || c.dropAbove < 10 || c.dropBelow < 10 || c.resets < 10 {
			t.Errorf("walks took too few paths: %+v; want at least 10 of each", c)
		}
	}
	// Fixed cases at the cutoff.
	var n numbering[TxID]
	for i := range 40 {
		n.add(TxID(i))
	}
	n.dropFirst(4) // 36 left: above the cutoff
	if len(n.idx) != 36 || n.find(4) != 0 || n.find(3) != -1 {
		t.Fatalf("dropFirst(4) of 40: %d in the map, find(4) = %d, find(3) = %d", len(n.idx), n.find(4), n.find(3))
	}
	n.dropFirst(4) // 32 left: at the cutoff
	if len(n.idx) != 0 || n.find(8) != 0 || n.find(39) != 31 || n.find(7) != -1 {
		t.Fatalf("dropFirst(4) of 36: %d in the map, find(8) = %d, find(39) = %d, find(7) = %d", len(n.idx), n.find(8), n.find(39), n.find(7))
	}
	n.reset()
	for i := range 33 {
		n.add(TxID(100 + i))
	}
	if len(n.idx) != 33 || n.find(0) != -1 || n.find(39) != -1 || n.find(132) != 32 {
		t.Fatalf("after reset and 33 adds: %d in the map, find(0) = %d, find(39) = %d, find(132) = %d", len(n.idx), n.find(0), n.find(39), n.find(132))
	}
}

// The per-transaction definitions the transaction table replaced, kept
// as references: Transactions and Objects dedup through a map, and each
// status list, Complete and CompleteWith ask Status, a backward scan,
// once per transaction.

func transactionsRef(h History) []TxID {
	var out []TxID
	seen := map[TxID]bool{}
	for _, e := range h {
		if !seen[e.Tx] {
			seen[e.Tx] = true
			out = append(out, e.Tx)
		}
	}
	return out
}

func objectsRef(h History) []ObjID {
	var out []ObjID
	seen := map[ObjID]bool{}
	for _, e := range h {
		if (e.Kind == KindInv || e.Kind == KindRet) && !seen[e.Obj] {
			seen[e.Obj] = true
			out = append(out, e.Obj)
		}
	}
	return out
}

func txsRef(h History, keep func(Status) bool) []TxID {
	var out []TxID
	for _, tx := range transactionsRef(h) {
		if keep(h.Status(tx)) {
			out = append(out, tx)
		}
	}
	return out
}

func completeRef(h History) bool {
	for _, tx := range transactionsRef(h) {
		if h.Live(tx) {
			return false
		}
	}
	return true
}

func completeWithRef(h History, commits map[TxID]bool) History {
	if completeRef(h) {
		return h
	}
	out := h.Clone()
	for _, tx := range transactionsRef(h) {
		out = append(out, h.CompletionEvents(tx, commits[tx])...)
	}
	return out
}

// wideHistory draws an event sequence over up to 80 transactions and 80
// objects: half the time events of random kinds, transactions and
// objects, which are mostly ill-formed, otherwise a well-formed random
// walk of each transaction's phases.
func wideHistory(r *rand.Rand) History {
	ntx, nobj := 1+r.Intn(80), 1+r.Intn(80)
	obj := func() ObjID { return ObjID(fmt.Sprintf("o%d", r.Intn(nobj))) }
	var h History
	if r.Intn(2) == 0 {
		for steps := r.Intn(400); steps > 0; steps-- {
			tx := TxID(1 + r.Intn(ntx))
			kind := Kind(r.Intn(6))
			h = append(h, Event{Kind: kind, Tx: tx, Obj: obj(), Op: "read", Ret: 0})
		}
		return h
	}
	phase := make([]txPhase, ntx+1)
	pend := make([]ObjID, ntx+1)
	for steps := r.Intn(400); steps > 0; steps-- {
		tx := TxID(1 + r.Intn(ntx))
		switch phase[tx] {
		case phaseIdle:
			switch r.Intn(5) {
			case 0, 1, 2:
				pend[tx] = obj()
				h = append(h, Inv(tx, pend[tx], "read", nil))
				phase[tx] = phaseOpPending
			case 3:
				h = append(h, TryC(tx))
				phase[tx] = phaseCommitPending
			case 4:
				h = append(h, TryA(tx))
				phase[tx] = phaseAbortPending
			}
		case phaseOpPending:
			if r.Intn(8) == 0 {
				h = append(h, Abort(tx))
				phase[tx] = phaseAborted
			} else {
				h = append(h, Ret(tx, pend[tx], "read", 0))
				phase[tx] = phaseIdle
			}
		case phaseCommitPending:
			if r.Intn(2) == 0 {
				h = append(h, Commit(tx))
				phase[tx] = phaseCommitted
			} else {
				h = append(h, Abort(tx))
				phase[tx] = phaseAborted
			}
		case phaseAbortPending:
			h = append(h, Abort(tx))
			phase[tx] = phaseAborted
		}
	}
	return h
}

// qtable is one input of the table differential: a history from
// randomHistory, blockHistory or wideHistory, and a commits map for
// CompleteWith.
type qtable struct {
	H       History
	Commits map[TxID]bool
}

// Generate implements quick.Generator. The commits map names every
// commit-pending transaction, with a random fate, and a random fate for
// some completed transactions and some absent from H; a live
// transaction that is not commit-pending is mapped to false, the only
// entry for it that does not panic.
func (qtable) Generate(r *rand.Rand, _ int) reflect.Value {
	var q qtable
	switch r.Intn(4) {
	case 0:
		q.H = randomHistory(r)
	case 1:
		q.H = blockHistory(r)
	default:
		q.H = wideHistory(r)
	}
	q.Commits = map[TxID]bool{}
	for _, tx := range transactionsRef(q.H) {
		switch s := q.H.Status(tx); {
		case s == StatusCommitPending:
			q.Commits[tx] = r.Intn(2) == 0
		case s.Live():
			if r.Intn(2) == 0 {
				q.Commits[tx] = false
			}
		case r.Intn(2) == 0:
			q.Commits[tx] = r.Intn(2) == 0
		}
	}
	q.Commits[TxID(1000+r.Intn(10))] = r.Intn(2) == 0
	return reflect.ValueOf(q)
}

// TestQuickTableMatchesPerTransaction pins Transactions, Objects,
// CommittedTxs, LiveTxs, CommitPendingTxs, Complete and CompleteWith to
// their per-transaction definitions, on well-formed and ill-formed
// inputs. At least 100 of the inputs must have more than linearMax
// transactions, 100 more than linearMax objects, and 100 each be
// well-formed and ill-formed.
func TestQuickTableMatchesPerTransaction(t *testing.T) {
	wideTxs, wideObjs, wellFormed, illFormed := 0, 0, 0, 0
	f := func(q qtable) bool {
		h := q.H
		if len(transactionsRef(h)) > linearMax {
			wideTxs++
		}
		if len(objectsRef(h)) > linearMax {
			wideObjs++
		}
		if h.WellFormed() == nil {
			wellFormed++
		} else {
			illFormed++
		}
		committed := func(s Status) bool { return s == StatusCommitted }
		commitPending := func(s Status) bool { return s == StatusCommitPending }
		got, want := h.CompleteWith(q.Commits), completeWithRef(h, q.Commits)
		if len(got) > 0 && len(got) == len(h) && &got[0] != &h[0] {
			t.Errorf("CompleteWith copied the complete history %v", h)
			return false
		}
		return slices.Equal(h.Transactions(), transactionsRef(h)) &&
			slices.Equal(h.Objects(), objectsRef(h)) &&
			slices.Equal(h.CommittedTxs(), txsRef(h, committed)) &&
			slices.Equal(h.LiveTxs(), txsRef(h, Status.Live)) &&
			slices.Equal(h.CommitPendingTxs(), txsRef(h, commitPending)) &&
			h.Complete() == completeRef(h) &&
			slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
	if wideTxs < 100 || wideObjs < 100 || wellFormed < 100 || illFormed < 100 {
		t.Errorf("of 1500 inputs, %d have more than %d transactions and %d more than %d objects, %d are well-formed and %d ill-formed; want at least 100 each",
			wideTxs, linearMax, wideObjs, linearMax, wellFormed, illFormed)
	}
}

// TestCompleteWithContract pins each clause of CompleteWith's contract:
// only a live transaction that is not commit-pending, mapped to true,
// panics; entries for committed, aborted and absent transactions are
// ignored; and a complete history comes back as itself whatever the map
// holds.
func TestCompleteWithContract(t *testing.T) {
	h := MustParse("w1(x,1) tryC1 C1 r2(x)->1 tryC2")
	cases := []struct {
		name    string
		commits map[TxID]bool
		want    History
	}{
		{"CommittedAndAbsentIgnored", map[TxID]bool{1: true, 9: true}, h.Append(Abort(2))},
		{"CommitPendingCommits", map[TxID]bool{2: true}, h.Append(Commit(2))},
		{"CommitPendingAborts", map[TxID]bool{1: false, 2: false, 9: false}, h.Append(Abort(2))},
	}
	for _, c := range cases {
		if got := h.CompleteWith(c.commits); !slices.Equal(got, c.want) {
			t.Errorf("%s: CompleteWith(%v) = %v, want %v", c.name, c.commits, got, c.want)
		}
	}

	// A live transaction that is not commit-pending is aborted when it
	// maps to false or is absent, and panics when it maps to true.
	for _, src := range []string{"w1(x,1) tryC1 C1 r2(x)->1", "w1(x,1) tryC1 C1 inv2(x.read)", "tryA1 A1 tryA2"} {
		live := MustParse(src)
		want := live.CompleteWith(nil)
		if got := live.CompleteWith(map[TxID]bool{1: true, 2: false}); !slices.Equal(got, want) {
			t.Errorf("%s: CompleteWith({T1, !T2}) = %v, want %v", src, got, want)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: CompleteWith({T2}) did not panic", src)
				}
			}()
			live.CompleteWith(map[TxID]bool{2: true})
		}()
	}

	complete := MustParse("w1(x,1) tryC1 C1 r2(x)->1 tryA2 A2")
	got := complete.CompleteWith(map[TxID]bool{1: true, 2: true, 9: true})
	if !slices.Equal(got, complete) || &got[0] != &complete[0] {
		t.Errorf("CompleteWith of a complete history = %v, want the history itself", got)
	}
}
