package gen

import (
	"math/rand"

	"otm/internal/history"
)

// cloneHistory implements the symmetric-workload generator (Config.Clones
// > 1): cfg.Txs random transaction templates, each instantiated
// cfg.Clones times. One template's operation sequence — including its
// write values and its adversarially chosen read return values — and its
// fate are drawn once and shared by every instance, and all instances of
// all templates run concurrently: the per-operation events are emitted
// round-robin across the whole instance set before any termination event,
// so no instance really-precedes any other. Instance TxIDs are dense:
// template t (0-based), clone c → TxID 1 + t*Clones + c, which is what
// lets tests permute the members of one class by id arithmetic.
func cloneHistory(cfg Config, seed int64) history.History {
	rng := rand.New(rand.NewSource(seed))

	type op struct {
		read bool
		obj  history.ObjID
		val  history.Value // written value, or expected read return
	}
	type template struct {
		ops  []op
		fate int // 0 commit, 1 abort-after-tryC, 2 abort-after-tryA, 3 commit-pending, 4 live
	}

	var written []int // write values of all templates so far, for stale reads
	nextVal := 1
	templates := make([]template, cfg.Txs)
	maxLen := 0
	for t := range templates {
		n := 1 + rng.Intn(cfg.MaxOps)
		tpl := template{ops: make([]op, 0, n)}
		for o := 0; o < n; o++ {
			ob := objName(rng.Intn(cfg.Objs))
			if rng.Intn(2) == 0 {
				v := nextVal
				nextVal++
				written = append(written, v)
				tpl.ops = append(tpl.ops, op{obj: ob, val: v})
			} else {
				// Adversarial read values, as in the plain generator: the
				// initial 0 or any value some template writes — so the
				// corpus mixes opaque and non-opaque verdicts.
				var v history.Value = 0
				if len(written) > 0 && rng.Intn(3) != 0 {
					v = written[rng.Intn(len(written))]
				}
				tpl.ops = append(tpl.ops, op{read: true, obj: ob, val: v})
			}
		}
		switch {
		case rng.Float64() < cfg.PLeaveLive:
			if rng.Intn(2) == 0 {
				tpl.fate = 3 // commit-pending
			} else {
				tpl.fate = 4 // live and idle
			}
		case rng.Float64() < cfg.PCommit:
			tpl.fate = 0
		case rng.Intn(2) == 0:
			tpl.fate = 2
		default:
			tpl.fate = 1
		}
		if len(tpl.ops) > maxLen {
			maxLen = len(tpl.ops)
		}
		templates[t] = tpl
	}

	txID := func(t, c int) history.TxID {
		return history.TxID(1 + t*cfg.Clones + c)
	}

	n := initEvents(cfg)
	for _, tpl := range templates {
		n += (2*len(tpl.ops) + fateEvents[tpl.fate]) * cfg.Clones
	}
	h := make(history.History, 0, n)
	h = appendInit(h, cfg)
	for o := 0; o < maxLen; o++ {
		for t, tpl := range templates {
			if o >= len(tpl.ops) {
				continue
			}
			for c := 0; c < cfg.Clones; c++ {
				id := txID(t, c)
				if tpl.ops[o].read {
					h = append(h,
						history.Inv(id, tpl.ops[o].obj, "read", nil),
						history.Ret(id, tpl.ops[o].obj, "read", tpl.ops[o].val))
				} else {
					h = append(h,
						history.Inv(id, tpl.ops[o].obj, "write", tpl.ops[o].val),
						history.Ret(id, tpl.ops[o].obj, "write", history.OK))
				}
			}
		}
	}
	for t, tpl := range templates {
		for c := 0; c < cfg.Clones; c++ {
			id := txID(t, c)
			switch tpl.fate {
			case 0:
				h = append(h, history.TryC(id), history.Commit(id))
			case 1:
				h = append(h, history.TryC(id), history.Abort(id))
			case 2:
				h = append(h, history.TryA(id), history.Abort(id))
			case 3:
				h = append(h, history.TryC(id))
			}
		}
	}
	return h
}

// fateEvents is the number of termination events of each template fate.
var fateEvents = [...]int{2, 2, 2, 1, 0}
