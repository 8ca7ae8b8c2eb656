package otm

// Benchmarks regenerating the paper's quantitative content (see
// DESIGN.md's per-experiment index and EXPERIMENTS.md for recorded
// outputs):
//
//	BenchmarkStepsPerOp/*      E9  — Theorem 3 sweep: steps of the
//	                                 decisive read vs k, per engine.
//	BenchmarkFullScan/*        E10 — tightness: Θ(k²) total steps for
//	                                 dstm, Θ(k) for the O(1) engines.
//	BenchmarkThroughput/*      E13 — read-dominated workload comparison.
//	BenchmarkCheckOpacity/*    E1/E2 — the checkers on the paper's
//	                                 figures and on random histories.
//	BenchmarkCheckOpacityBatch/*     — bulk checking of 1k-history
//	                                 corpora: sequential vs the checkpool
//	                                 workers vs the un-memoized reference.
//	BenchmarkCheckLongHistory/*      — one recorded tl2 history of 2,000
//	                                 or 8,000 transactions.
//	BenchmarkTheorem2          E8  — graph-characterization search.
//
// Step counts are reported via the custom metrics steps/op so the
// asymptotic shapes are visible directly in `go test -bench` output.

import (
	"fmt"
	"sync"
	"testing"

	"otm/internal/bench"
	"otm/internal/checkpool"
	"otm/internal/core"
	"otm/internal/gen"
	"otm/internal/history"
	"otm/internal/monitor"
	"otm/internal/opg"
	"otm/internal/stm"
	"otm/internal/stm/stmtest"
)

var sweepKs = []int{16, 64, 256, 1024}

// BenchmarkStepsPerOp is experiment E9: for every engine and k, the cost
// in base-object steps of the reader's decisive operation in the
// Theorem 3 scenario (T1 primes k/2 reads, T2 commits a write, T1 reads
// once more). dstm's steps/op grows linearly with k; every other engine
// stays flat.
func BenchmarkStepsPerOp(b *testing.B) {
	for _, e := range bench.Engines() {
		for _, k := range sweepKs {
			b.Run(fmt.Sprintf("%s/k=%d", e.Name, k), func(b *testing.B) {
				var steps int64
				for i := 0; i < b.N; i++ {
					s, err := bench.StepsForNextRead(e, k)
					if err != nil {
						b.Fatal(err)
					}
					steps = s
				}
				b.ReportMetric(float64(steps), "steps/op")
			})
		}
	}
}

// BenchmarkFullScan is experiment E10: total steps of one transaction
// reading all k objects — Θ(k²) for dstm (the paper's "Θ(k²) steps to
// execute a transaction that accesses k objects"), Θ(k) otherwise.
func BenchmarkFullScan(b *testing.B) {
	for _, e := range bench.Engines() {
		for _, k := range sweepKs {
			b.Run(fmt.Sprintf("%s/k=%d", e.Name, k), func(b *testing.B) {
				var steps int64
				for i := 0; i < b.N; i++ {
					s, err := bench.FullScanSteps(e, k)
					if err != nil {
						b.Fatal(err)
					}
					steps = s
				}
				b.ReportMetric(float64(steps), "steps/tx")
			})
		}
	}
}

// BenchmarkThroughput is experiment E13: wall-clock throughput of a
// read-dominated (90% reads) workload, the regime where invisible reads
// pay off, and a write-heavy (50% reads) one, where contention dominates.
func BenchmarkThroughput(b *testing.B) {
	const k = 256
	for _, mix := range []struct {
		name     string
		readFrac float64
	}{
		{"read90", 0.9},
		{"read50", 0.5},
	} {
		for _, e := range bench.Engines() {
			b.Run(fmt.Sprintf("%s/%s", mix.name, e.Name), func(b *testing.B) {
				tm := e.New(k)
				b.RunParallel(func(pb *testing.PB) {
					seed := 0
					for pb.Next() {
						seed++
						ops := gen.MakeWorkload(int64(seed), 1, 8, k, mix.readFrac)[0]
						err := stm.Atomically(tm, func(tx stm.Tx) error {
							for _, op := range ops {
								if op.Read {
									if _, err := tx.Read(op.Obj); err != nil {
										return err
									}
								} else if err := tx.Write(op.Obj, op.Val); err != nil {
									return err
								}
							}
							return nil
						})
						if err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}

// BenchmarkContentionManagers is the contention-manager ablation: the
// same progressive engine under each policy on a small, hot object set
// (k=8) where conflicts are frequent — the regime where the manager
// choice matters.
func BenchmarkContentionManagers(b *testing.B) {
	const k = 8
	for _, engine := range []string{"dstm", "vstm"} {
		for _, mgr := range bench.Managers() {
			e, err := bench.ManagedEngine(engine, mgr)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(e.Name, func(b *testing.B) {
				tm := e.New(k)
				b.RunParallel(func(pb *testing.PB) {
					seed := 0
					for pb.Next() {
						seed++
						ops := gen.MakeWorkload(int64(seed), 1, 4, k, 0.5)[0]
						err := stm.Atomically(tm, func(tx stm.Tx) error {
							for _, op := range ops {
								if op.Read {
									if _, err := tx.Read(op.Obj); err != nil {
										return err
									}
								} else if err := tx.Write(op.Obj, op.Val); err != nil {
									return err
								}
							}
							return nil
						})
						if err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}

// fig1 and fig2 are the paper's Figure 1 (non-opaque) and Figure 2
// (opaque) histories.
func fig1() history.History {
	return history.MustParse(
		"w1(x,1) tryC1 C1 r2(x)->1 w3(x,2) w3(y,2) tryC3 C3 r2(y)->2 tryC2 A2")
}

func fig2() history.History {
	return history.History{
		history.Inv(2, "x", "write", 1), history.Ret(2, "x", "write", history.OK),
		history.Inv(2, "y", "write", 2), history.Ret(2, "y", "write", history.OK),
		history.TryC(2),
		history.Inv(1, "x", "read", nil),
		history.Commit(2),
		history.Inv(3, "y", "write", 3),
		history.Ret(1, "x", "read", 1), history.Inv(1, "x", "write", 5),
		history.Ret(3, "y", "write", history.OK),
		history.Ret(1, "x", "write", history.OK), history.Inv(1, "y", "read", nil),
		history.Inv(3, "x", "read", nil),
		history.Ret(1, "y", "read", 2), history.TryC(1),
		history.Ret(3, "x", "read", 1), history.TryC(3),
		history.Abort(1),
		history.Commit(3),
	}
}

// BenchmarkCheckOpacity times the definitional checker on the paper's
// two figures (E1, E2) and on random 5-transaction histories.
func BenchmarkCheckOpacity(b *testing.B) {
	b.Run("figure1", func(b *testing.B) {
		h := fig1()
		for i := 0; i < b.N; i++ {
			if _, err := core.Opaque(h); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("figure2", func(b *testing.B) {
		h := fig2()
		for i := 0; i < b.N; i++ {
			if _, err := core.Opaque(h); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("random5tx", func(b *testing.B) {
		cfg := gen.Config{Txs: 5, Objs: 3, MaxOps: 3, PStaleRead: 0.3}
		hs := make([]history.History, 64)
		for i := range hs {
			hs[i] = gen.History(cfg, int64(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Opaque(hs[i%len(hs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCheckOpacityBatch times bulk opacity checking of 1000-history
// corpora: the sequential baseline (one core.Check after another on a
// per-corpus-pass SearchContext — the intended batch shape), the same
// work through internal/checkpool at several widths (the
// `opacheck -parallel` path, every worker on the run's one table set),
// and the per-completion reference engine (core.Config.DisableMemo) to
// expose what the unified interned-state search buys. Each run reports nodes/corpus — the search nodes one pass
// over the corpus explores — plus states-interned and memo-hit-rate for
// the context-backed runs, and allocations (b.ReportAllocs, so allocs/op
// appears without -benchmem), making the interning payoff visible
// directly in the bench output: the reduction from lazy commit/abort
// branching, the one memo all completions share, and the
// allocation-free memo/transition keys. Because the
// workers of a run
// share one table set, states-interned stays at the sequential count at
// every width instead of growing ×workers. The "commitpending" corpus (most transactions left commit-pending) is the
// regime the unified engine targets: the reference pays for 2^k
// completions there. Sequential must report strictly fewer nodes than
// reference at far lower time; see README.md's Performance section for
// recorded before/after numbers.
//
// The "symmetric" corpus — pinned by testdata/corpora/symmetric.json,
// clone-heavy histories of interchangeable transactions — is the regime
// the symmetry reduction targets. Sequential runs additionally report
// sym-prunes/corpus and legal-skips/corpus (candidate placements skipped
// by the symmetry reduction and the incremental legality watch), and the
// nosym variant reruns the sequential configuration with the symmetry
// reduction disabled (core.Config.DisableSym): nodes/corpus of
// symmetric/nosym over symmetric/sequential is the measured reduction
// factor CI asserts on, and on the asymmetric corpora the two variants
// must agree — the reduction never adds nodes.
//
// The "recorded" corpus is 1,000 runs of tl2 recorded through
// interleave.Run on seeded single-goroutine schedules (stmtest.Recorded:
// 6 transactions on 3 registers, the shape of perfbench's recorded
// workload). Every one is opaque, so every check assembles a witness,
// and a non-opaque verdict fails the benchmark.
func BenchmarkCheckOpacityBatch(b *testing.B) {
	memoHitRate := func(s core.Stats) float64 {
		if s.MemoHits+s.MemoMisses == 0 {
			return 0
		}
		return float64(s.MemoHits) / float64(s.MemoHits+s.MemoMisses)
	}
	symSpec, err := gen.LoadSpec("testdata/corpora/symmetric.json")
	if err != nil {
		b.Fatal(err)
	}
	recorded := make([]history.History, 1000)
	for i := range recorded {
		recorded[i] = stmtest.Recorded(NewTL2(3), int64(i+1))
	}
	for _, corpus := range []struct {
		name string
		hs   []history.History
		// opaque marks a corpus of recorded runs of an opaque engine: a
		// non-opaque verdict on it fails the benchmark.
		opaque bool
	}{
		{"mixed", gen.Corpus(gen.Config{Txs: 6, Objs: 3, MaxOps: 4, PStaleRead: 0.3}, 1000, 1), false},
		{"commitpending", gen.Corpus(gen.Config{Txs: 6, Objs: 3, MaxOps: 4, PStaleRead: 0.3, PLeaveLive: 0.8}, 1000, 1), false},
		{"symmetric", symSpec.Corpus(), false},
		{"recorded", recorded, true},
	} {
		hs := corpus.hs
		verdict := func(b *testing.B, r core.Result, err error) {
			if err != nil {
				b.Fatal(err)
			}
			if corpus.opaque && !r.Opaque {
				b.Fatalf("%s: a recorded tl2 history checked non-opaque", corpus.name)
			}
		}
		sequential := func(disableSym bool) func(b *testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				nodes := 0
				var stats core.Stats
				for i := 0; i < b.N; i++ {
					ctx := core.NewSearchContext()
					cfg := core.Config{Context: ctx, DisableSym: disableSym}
					nodes = 0
					for _, h := range hs {
						res, err := core.Check(h, cfg)
						verdict(b, res, err)
						nodes += res.Nodes
					}
					stats = ctx.Stats()
				}
				b.ReportMetric(float64(nodes), "nodes/corpus")
				b.ReportMetric(float64(stats.States), "states-interned")
				b.ReportMetric(memoHitRate(stats), "memo-hit-rate")
				b.ReportMetric(float64(stats.SymPrunes), "sym-prunes/corpus")
				b.ReportMetric(float64(stats.LegalSkips), "legal-skips/corpus")
			}
		}
		b.Run(corpus.name+"/sequential", sequential(false))
		b.Run(corpus.name+"/nosym", sequential(true))
		b.Run(corpus.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			cfg := core.Config{DisableMemo: true}
			nodes := 0
			for i := 0; i < b.N; i++ {
				nodes = 0
				for _, h := range hs {
					res, err := core.Check(h, cfg)
					verdict(b, res, err)
					nodes += res.Nodes
				}
			}
			b.ReportMetric(float64(nodes), "nodes/corpus")
		})
		for _, workers := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s/parallel%d", corpus.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				nodes := 0
				var stats core.Stats
				for i := 0; i < b.N; i++ {
					stats = core.Stats{}
					p := checkpool.New(checkpool.Options{Workers: workers, Stats: &stats})
					nodes = 0
					for _, v := range p.CheckAll(hs) {
						verdict(b, v.Result, v.Err)
						nodes += v.Result.Nodes
					}
				}
				b.ReportMetric(float64(nodes), "nodes/corpus")
				b.ReportMetric(float64(stats.States), "states-interned")
				b.ReportMetric(memoHitRate(stats), "memo-hit-rate")
			})
		}
	}
}

// BenchmarkCheckLongHistory checks one long history recorded from tl2
// (stmtest.Interleaved) on a fresh context, as `opacheck -parallel 1`
// does, at n = 2,000 and 8,000
// transactions: the measure of how checking time grows with history
// length, while the node count stays linear in n.
func BenchmarkCheckLongHistory(b *testing.B) {
	for _, n := range []int{2000, 8000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			h := stmtest.Interleaved(NewTL2(16), n)
			b.ResetTimer()
			nodes := 0
			for i := 0; i < b.N; i++ {
				res, err := core.Check(h, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Opaque {
					b.Fatal("a recorded tl2 history checked non-opaque")
				}
				nodes = res.Nodes
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkTheorem2 times the graph-characterization search (E8) on the
// paper's figures with the initializing transaction added.
func BenchmarkTheorem2(b *testing.B) {
	for name, h := range map[string]history.History{
		"figure1": opg.WithInit(fig1(), 0),
		"figure2": opg.WithInit(fig2(), 0),
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := opg.CheckTheorem2(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonitorOverhead measures what live opacity monitoring costs
// relative to the bare engine: one benchmark iteration is a fixed
// concurrent episode (4 goroutines × 25 transactions of 6 operations
// over 8 registers on tl2) run with monitoring off, with recording
// only, with a synchronous monitor (checks inside every recorded event,
// under the recorder mutex) and with an asynchronous one (checks on a
// drain goroutine, Block backpressure). Episodes are fixed-size because
// the per-event cost of prefix checking grows with history length —
// open-ended b.N transactions on one session would measure the history
// size, not the mode. commits/s makes the off/sync/async throughput
// comparison directly readable in the bench output; monitor-nodes and
// monitor-fastpath show how much verification the session actually did
// (fast-path revalidations vastly outnumbering searches is what keeps
// sync mode affordable).
func BenchmarkMonitorOverhead(b *testing.B) {
	const k, goroutines, txPerG, opsPerTx = 8, 4, 25, 6
	episode := func(b *testing.B, tm stm.TM) {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for t := 0; t < txPerG; t++ {
					ops := gen.MakeWorkload(int64(g*txPerG+t), 1, opsPerTx, k, 0.7)[0]
					err := stm.Atomically(tm, func(tx stm.Tx) error {
						for _, op := range ops {
							if op.Read {
								if _, err := tx.Read(op.Obj); err != nil {
									return err
								}
							} else if err := tx.Write(op.Obj, op.Val); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil {
						b.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
	commitsPerSec := func(b *testing.B) {
		b.ReportMetric(float64(b.N*goroutines*txPerG)/b.Elapsed().Seconds(), "commits/s")
	}

	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			episode(b, NewTL2(k))
		}
		commitsPerSec(b)
	})
	b.Run("recorded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			episode(b, stm.NewRecorder(NewTL2(k)))
		}
		commitsPerSec(b)
	})
	for _, mode := range []monitor.Mode{monitor.Sync, monitor.Async} {
		b.Run(mode.String(), func(b *testing.B) {
			nodes, fast := 0, 0
			for i := 0; i < b.N; i++ {
				rec := stm.NewRecorder(NewTL2(k))
				sess := monitor.Attach(rec, monitor.Options{Mode: mode})
				episode(b, rec)
				v := sess.Close()
				if v.Status != monitor.StatusOpaque {
					b.Fatalf("monitored tl2 episode not certified: %+v", v)
				}
				nodes, fast = v.Nodes, v.FastPath
			}
			commitsPerSec(b)
			b.ReportMetric(float64(nodes), "monitor-nodes")
			b.ReportMetric(float64(fast), "monitor-fastpath")
		})
	}
}

// BenchmarkMonitorSoak measures a long-running monitored session with
// and without checkpointed truncation. The workload is bursts of four
// overlapping committed transactions (every burst boundary quiescent),
// streamed through a Sync session. With truncation armed the per-event
// cost is flat in session age; without it each witness revalidation
// replays the whole history, so the untruncated variant runs far fewer
// events and still reports a much higher ns/event. cmd/tmbench -soak is
// the full-trajectory version of this benchmark.
func BenchmarkMonitorSoak(b *testing.B) {
	burst := func(next *int) history.History {
		const width = 4
		evs := make(history.History, 0, 6*width)
		base := *next
		*next += width
		for i := 0; i < width; i++ {
			tx := history.TxID(base + i)
			evs = append(evs, history.Inv(tx, history.ObjID(fmt.Sprintf("x%d", i)), "write", base+i))
		}
		for i := 0; i < width; i++ {
			tx := history.TxID(base + i)
			obj := history.ObjID(fmt.Sprintf("x%d", i))
			evs = append(evs,
				history.Ret(tx, obj, "write", history.OK),
				history.Inv(tx, obj, "read", nil),
				history.Ret(tx, obj, "read", base+i))
		}
		for i := 0; i < width; i++ {
			tx := history.TxID(base + i)
			evs = append(evs, history.TryC(tx), history.Commit(tx))
		}
		return evs
	}
	run := func(b *testing.B, events, truncAfter int) {
		total := 0
		var last monitor.Verdict
		for i := 0; i < b.N; i++ {
			sess := monitor.New(monitor.Options{TruncateAfterEvents: truncAfter})
			next := 1
			for n := 0; n < events; {
				for _, ev := range burst(&next) {
					last = sess.Append(ev)
					n++
				}
			}
			if last.Status != monitor.StatusOpaque {
				b.Fatalf("soak workload not certified: %+v", last)
			}
			total += last.Events
			sess.Close()
		}
		b.ReportMetric(b.Elapsed().Seconds()/float64(total)*1e9, "ns/event")
		b.ReportMetric(float64(last.LiveEvents), "live-events")
		b.ReportMetric(float64(last.Checkpoints), "checkpoints")
	}
	b.Run("trunc-20k", func(b *testing.B) { run(b, 20000, 256) })
	// Untruncated monitoring is O(history) per event: 2k events is
	// already ~seconds of work, so the session-age contrast with the
	// 10× longer truncated run is visible directly in ns/event.
	b.Run("notrunc-2k", func(b *testing.B) { run(b, 2000, 0) })
}

// BenchmarkRecorder measures the overhead of history recording on a
// sequential workload (diagnostic; not a paper experiment).
func BenchmarkRecorder(b *testing.B) {
	for _, recorded := range []bool{false, true} {
		name := "bare"
		if recorded {
			name = "recorded"
		}
		b.Run(name, func(b *testing.B) {
			var tm stm.TM = NewTL2(64)
			if recorded {
				tm = stm.NewRecorder(NewTL2(64))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := stm.Atomically(tm, func(tx stm.Tx) error {
					if _, err := tx.Read(i % 64); err != nil {
						return err
					}
					return tx.Write((i+1)%64, i)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
