// Benchmarks regenerating the paper's evaluation, one per table and
// figure, plus microbenchmarks of the protocol's moving parts.
//
// Figure benchmarks run a shrunken-but-shape-preserving version of the
// corresponding experiment (fewer completions, a subset of the mpl
// sweep) and report the interesting series as custom metrics
// (simulated transactions/second etc.). Regenerate figures at full
// scale with:
//
//	go run ./cmd/sccsim -experiment fig4                                        # laptop scale
//	go run ./cmd/sccsim -experiment fig4 -completions 50000 -warmup 5000 -runs 10  # paper scale
//
// Run these benchmarks with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/distsim"
	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// benchOpts shrinks an experiment for benchmarking while keeping the
// paper's database size and terminal count (the contention shape).
func benchOpts() experiments.RunOpts {
	return experiments.RunOpts{
		Completions: 800,
		Warmup:      80,
		Runs:        1,
		Seed:        1,
		DBSize:      1000,
		Terminals:   200,
	}
}

// runFigure executes experiment id over a reduced sweep and reports
// every series' value at each x as a custom benchmark metric.
func runFigure(b *testing.B, id string, xs []float64) {
	b.Helper()
	spec, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	reduced := *spec
	reduced.XValues = xs
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err = reduced.Run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range res.Points {
		for _, col := range res.Columns() {
			b.ReportMetric(pt.Values[col].Mean, fmt.Sprintf("%s@%g", col, pt.X))
		}
	}
}

// One benchmark per figure of the paper's evaluation (§5.5).

func BenchmarkFig4(b *testing.B)  { runFigure(b, "fig4", []float64{10, 50, 200}) }
func BenchmarkFig5(b *testing.B)  { runFigure(b, "fig5", []float64{10, 50, 200}) }
func BenchmarkFig6(b *testing.B)  { runFigure(b, "fig6", []float64{10, 50, 200}) }
func BenchmarkFig7(b *testing.B)  { runFigure(b, "fig7", []float64{10, 50, 200}) }
func BenchmarkFig8(b *testing.B)  { runFigure(b, "fig8", []float64{10, 50, 200}) }
func BenchmarkFig9(b *testing.B)  { runFigure(b, "fig9", []float64{10, 50, 200}) }
func BenchmarkFig10(b *testing.B) { runFigure(b, "fig10", []float64{10, 50, 200}) }
func BenchmarkFig11(b *testing.B) { runFigure(b, "fig11", []float64{10, 50}) }
func BenchmarkFig12(b *testing.B) { runFigure(b, "fig12", []float64{10, 50, 200}) }
func BenchmarkFig13(b *testing.B) { runFigure(b, "fig13", []float64{10, 50, 200}) }
func BenchmarkFig14(b *testing.B) { runFigure(b, "fig14", []float64{10, 50, 200}) }
func BenchmarkFig15(b *testing.B) { runFigure(b, "fig15", []float64{10, 50, 200}) }
func BenchmarkFig16(b *testing.B) { runFigure(b, "fig16", []float64{10, 50, 200}) }
func BenchmarkFig17(b *testing.B) { runFigure(b, "fig17", []float64{10, 50, 200}) }
func BenchmarkFig18(b *testing.B) { runFigure(b, "fig18", []float64{10, 50}) }

// Ablation benchmarks (DESIGN.md ablations A, B, D).

func BenchmarkAblationPseudoCommit(b *testing.B) {
	runFigure(b, "ablation-pseudo", []float64{25, 100})
}
func BenchmarkAblationFakeRestart(b *testing.B) {
	runFigure(b, "ablation-fakerestart", []float64{50, 200})
}
func BenchmarkWriteProbSweep(b *testing.B) {
	runFigure(b, "ablation-writeprob", []float64{10, 50, 90})
}

// BenchmarkRecoveryStrategies (ablation C) compares the wall-clock cost
// of the two §4.4 recovery strategies on an abort-heavy workload — the
// simulated metrics are identical by construction (proven in the test
// suite), so the interesting number is real time per simulated
// completion.
func BenchmarkRecoveryStrategies(b *testing.B) {
	for _, rec := range []repro.Recovery{repro.RecoveryIntentions, repro.RecoveryUndo} {
		b.Run(rec.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := repro.DefaultSimConfig(repro.MixWorkload{DBSize: 300, ArgRange: 6}, 100, 1)
				cfg.Recovery = rec
				cfg.Completions = 2000
				cfg.Warmup = 200
				if _, err := repro.Simulate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Tables I–VIII: benchmark the derivation engine that reproduces them
// from Definitions 1–2.
func BenchmarkTablesDerivation(b *testing.B) {
	types := []adt.Enumerable{adt.Page{}, adt.Stack{}, adt.Set{}, adt.KTable{}}
	for _, typ := range types {
		b.Run(typ.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab := compat.Derive(typ)
				if len(tab.Ops) == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// BenchmarkGeneratedTables covers the §5.5.2 random table generator.
func BenchmarkGeneratedTables(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		if g := compat.MustGenerate(rng, 4, 4, 8); g == nil {
			b.Fatal("nil table")
		}
	}
}

// ---- Protocol microbenchmarks ----

// BenchmarkSchedulerCommutingOps measures the per-operation cost of the
// fast path (everything commutes, no cycle checks).
func BenchmarkSchedulerCommutingOps(b *testing.B) {
	s := core.NewScheduler(core.Options{})
	if err := s.Register(1, adt.Set{}, compat.SetTable()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var eff core.Effects
	var id core.TxnID
	for i := 0; i < b.N; i++ {
		id++
		if err := s.Begin(id); err != nil {
			b.Fatal(err)
		}
		op := repro.Member(i % 97)
		if dec, err := s.RequestInto(&eff, id, 1, op); err != nil || dec.Outcome != core.Executed {
			b.Fatalf("%v %v", dec, err)
		}
		if _, err := s.CommitInto(&eff, id); err != nil {
			b.Fatal(err)
		}
		s.Forget(id)
	}
}

// BenchmarkSchedulerRecoverableOps measures the recoverable path —
// commit-dependency edges, a cycle check, pseudo-commit and cascade —
// with one self-contained pair of transactions per iteration so the
// logs stay bounded.
func BenchmarkSchedulerRecoverableOps(b *testing.B) {
	s := core.NewScheduler(core.Options{})
	if err := s.Register(1, adt.Stack{}, compat.StackTable()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var eff core.Effects
	id := core.TxnID(0)
	for i := 0; i < b.N; i++ {
		ta, tb := id+1, id+2
		id += 2
		if err := s.Begin(ta); err != nil {
			b.Fatal(err)
		}
		if err := s.Begin(tb); err != nil {
			b.Fatal(err)
		}
		if dec, err := s.RequestInto(&eff, ta, 1, repro.Push(i)); err != nil || dec.Outcome != core.Executed {
			b.Fatalf("%v %v", dec, err)
		}
		// The recoverable path: executes over ta's uncommitted push.
		if dec, err := s.RequestInto(&eff, tb, 1, repro.Push(i+1)); err != nil || dec.Outcome != core.Executed {
			b.Fatalf("%v %v", dec, err)
		}
		if st, err := s.CommitInto(&eff, tb); err != nil || st != core.PseudoCommitted {
			b.Fatalf("%v %v", st, err)
		}
		if st, err := s.CommitInto(&eff, ta); err != nil || st != core.Committed {
			b.Fatalf("%v %v", st, err)
		}
		s.Forget(ta)
		s.Forget(tb)
	}
}

// BenchmarkAbortDeepObject prices an abort against the size of the
// object's committed state: a one-operation transaction aborts on an
// object already holding size elements, under both §4.4 recovery
// strategies. The contract (DESIGN.md, "Recovery strategies") is that
// the size=1k and size=64k rows read the same.
func BenchmarkAbortDeepObject(b *testing.B) {
	seq := func(n int) []int {
		vals := make([]int, n)
		for i := range vals {
			vals[i] = i
		}
		return vals
	}
	objects := []struct {
		name  string
		typ   adt.Type
		class compat.Classifier
		seed  func(n int) adt.State
		op    adt.Op
	}{
		{"stack", adt.Stack{}, compat.StackTable(),
			func(n int) adt.State { return adt.NewStackState(seq(n)...) }, repro.Push(1)},
		{"set", adt.Set{}, compat.SetTable(),
			func(n int) adt.State { return adt.NewSetState(seq(n)...) }, repro.Delete(7)},
		{"table", adt.KTable{}, compat.KTableTable(),
			func(n int) adt.State { return adt.NewKTableState(seq(2 * n)...) }, repro.TableModify(8, 1)},
	}
	strategies := []struct {
		name string
		rec  core.Recovery
	}{{"intentions", core.RecoveryIntentions}, {"undo", core.RecoveryUndo}}
	for _, o := range objects {
		for _, st := range strategies {
			for _, size := range []int{1 << 10, 1 << 16} {
				b.Run(fmt.Sprintf("%s/%s/size=%dk", o.name, st.name, size>>10), func(b *testing.B) {
					s := core.NewScheduler(core.Options{Recovery: st.rec})
					if err := s.RegisterSeeded(1, o.typ, o.class, o.seed(size)); err != nil {
						b.Fatal(err)
					}
					var eff core.Effects
					var id core.TxnID
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						id++
						if err := s.Begin(id); err != nil {
							b.Fatal(err)
						}
						if dec, err := s.RequestInto(&eff, id, 1, o.op); err != nil || dec.Outcome != core.Executed {
							b.Fatalf("%v %v", dec, err)
						}
						if err := s.AbortInto(&eff, id); err != nil {
							b.Fatal(err)
						}
						s.Forget(id)
					}
				})
			}
		}
	}
}

// BenchmarkCycleDetection measures HasCycleFrom on a dependency chain
// of the worst-case length the simulator sees (mpl=200 transactions).
func BenchmarkCycleDetection(b *testing.B) {
	s := core.NewScheduler(core.Options{})
	if err := s.Register(1, adt.Page{}, compat.PageTable()); err != nil {
		b.Fatal(err)
	}
	// 200 stacked writers: each new write adds commit-dep edges to
	// every prior writer and runs one cycle check.
	var eff core.Effects
	for id := core.TxnID(1); id <= 200; id++ {
		if err := s.Begin(id); err != nil {
			b.Fatal(err)
		}
		if dec, err := s.RequestInto(&eff, id, 1, repro.Write(int(id))); err != nil || dec.Outcome != core.Executed {
			b.Fatal("setup write failed")
		}
	}
	b.ResetTimer()
	id := core.TxnID(200)
	for i := 0; i < b.N; i++ {
		id++
		if err := s.Begin(id); err != nil {
			b.Fatal(err)
		}
		if dec, err := s.RequestInto(&eff, id, 1, repro.Write(i)); err != nil || dec.Outcome != core.Executed {
			b.Fatal("bench write failed")
		}
		// Aborting keeps the graph from growing without bound while
		// exercising removal too.
		if err := s.AbortInto(&eff, id); err != nil {
			b.Fatal(err)
		}
		s.Forget(id)
	}
}

// BenchmarkClassification measures the compatibility-table lookup the
// object manager performs per uncommitted log entry. Since the compiled
// classifiers landed, that per-entry cost is a dense array lookup over
// op ids interned once per request (see object.classifyAgainstLog);
// the ByName and Table variants below track the costs of per-call name
// interning and of the original string-indexed Table.Classify.
func BenchmarkClassification(b *testing.B) {
	comp := compat.KTableTable().Compile()
	req := repro.TableInsert(3, 9)
	exec := repro.TableSize()
	row := comp.Row(comp.OpID(req.Name), false)
	execID := comp.OpID(exec.Name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if row.Classify(execID, req.SameArg(exec)) != compat.Recoverable {
			b.Fatal("unexpected classification")
		}
	}
}

// BenchmarkClassificationByName is the compiled classifier resolving
// both operation names per call (what a one-off Classify costs).
func BenchmarkClassificationByName(b *testing.B) {
	comp := compat.KTableTable().Compile()
	req := repro.TableInsert(3, 9)
	exec := repro.TableSize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if comp.Classify(req, exec) != compat.Recoverable {
			b.Fatal("unexpected classification")
		}
	}
}

// BenchmarkClassificationTable is the uncompiled, entry-logic
// Table.Classify the scheduler falls back to for classifiers it cannot
// compile.
func BenchmarkClassificationTable(b *testing.B) {
	tab := compat.KTableTable()
	req := repro.TableInsert(3, 9)
	exec := repro.TableSize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tab.Classify(req, exec) != compat.Recoverable {
			b.Fatal("unexpected classification")
		}
	}
}

// benchSink keeps measured results alive.
var benchSink int

// BenchmarkGeneratorDraw prices one drawn transaction (4..12 steps) per
// generator: the load generator's share of a client-observed
// transaction, and the future source of a workload.draw_ns price line.
// Each draw allocates its step slice and nothing else.
func BenchmarkGeneratorDraw(b *testing.B) {
	for _, g := range []struct {
		name string
		gen  workload.Generator
	}{
		{"mix", workload.Mix{DBSize: 64, ArgRange: 8}},
		{"readwrite", workload.ReadWrite{DBSize: 4096, WriteProb: 0.3}},
		{"pushes", workload.Pushes{DBSize: 256}},
		{"abstract", workload.Abstract{DBSize: 256, Sigma: 4, Pc: 4, Pr: 4, TableSeed: 7}},
	} {
		b.Run(g.name, func(b *testing.B) {
			src := workload.Source{Gen: g.gen, MinLen: 4, MaxLen: 12}
			r := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += len(src.Draw(r))
			}
		})
	}
}

// BenchmarkRegisterSharedTable prices registering a database of pages
// on one shared table (what a generator's Factory hands out): the table
// is compiled once, so the per-object cost is the object and its states.
// The future source of a core.register_ns price line.
func BenchmarkRegisterSharedTable(b *testing.B) {
	for _, n := range []int{64, 4096} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				table := compat.PageTable()
				s := core.NewScheduler(core.Options{})
				for id := core.ObjectID(1); id <= core.ObjectID(n); id++ {
					if err := s.Register(id, adt.Page{}, table); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/object")
		})
	}
}

// BenchmarkBlockingHandles measures the goroutine front end end-to-end:
// one blocked pop handed over between two handles per iteration.
func BenchmarkBlockingHandles(b *testing.B) {
	db := repro.NewDB(repro.Options{})
	if err := db.Register(1, adt.Stack{}, compat.StackTable()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t1 := db.Begin()
		if _, err := t1.Do(1, repro.Push(i)); err != nil {
			b.Fatal(err)
		}
		t2 := db.Begin()
		done := make(chan error, 1)
		go func() {
			_, err := t2.Do(1, repro.Pop()) // blocks until t1 commits
			done <- err
		}()
		if _, err := t1.Commit(); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		if _, err := t2.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Shard-scaling benchmarks (internal/dist) ----

// BenchmarkShardScaling measures parallel transaction throughput on an
// independent-object workload as the object space is sharded across
// 1..N sites. Each parallel worker owns one object, so transactions
// never conflict: with one shard every request funnels through a
// single scheduler mutex (the pre-sharding architecture); with N
// shards the sites proceed in parallel and never touch the
// coordinator. shards=1 is the single-scheduler baseline the N-shard
// numbers should beat on multicore hardware.
func BenchmarkShardScaling(b *testing.B) {
	const objects = 64
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, err := dist.New(shards, core.Options{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			for id := core.ObjectID(1); id <= objects; id++ {
				if err := c.Register(id, adt.Set{}, compat.SetTable()); err != nil {
					b.Fatal(err)
				}
			}
			var next atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				obj := core.ObjectID(1 + (next.Add(1)-1)%objects)
				i := 0
				for pb.Next() {
					i++
					t := c.Begin()
					if _, err := t.Do(obj, repro.Insert(i)); err != nil {
						b.Error(err)
						return
					}
					if _, err := t.Commit(); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkShardScalingContended is the same sweep under a sharded
// read/write workload with 10% cross-site steps — dependency edges,
// mirror traffic and held commits included, closer to a real mixed
// load than the perfectly partitionable case above.
func BenchmarkShardScalingContended(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, err := dist.New(shards, core.Options{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			gen := workload.Sharded{
				Inner: workload.ReadWrite{DBSize: 512, WriteProb: 0.3},
				Sites: shards, CrossProb: 0.1,
			}
			c.SetFactory(gen.Factory())
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				r := rand.New(rand.NewSource(seed.Add(1)))
				for pb.Next() {
					steps := gen.NewTxn(r, 8)
				restart:
					t := c.Begin()
					for _, st := range steps {
						if _, err := t.Do(st.Object, st.Op); err != nil {
							if errors.Is(err, core.ErrTxnAborted) {
								goto restart // retry, as the simulator does
							}
							b.Error(err)
							return
						}
					}
					if _, err := t.Commit(); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// ---- Coordinator benchmarks (the many-core lock split) ----

// BenchmarkCoordinatorEdgeFree measures the sharded-registry fast path
// under parallel load: single-site commuting transactions on an 8-site
// cluster, one private object per worker, so the only shared state a
// round trip touches is its registry shard (Begin/finalize) — never the
// mirror, never the decision-log domain. Run with -cpu 1,2,4 for the
// GOMAXPROCS scaling matrix; with the old single Cluster.mu every
// Begin/finalize serialised here.
func BenchmarkCoordinatorEdgeFree(b *testing.B) {
	const objects = 64
	c, err := dist.New(8, core.Options{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	for id := core.ObjectID(1); id <= objects; id++ {
		if err := c.Register(id, adt.Set{}, compat.SetTable()); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		obj := core.ObjectID(1 + (next.Add(1)-1)%objects)
		i := 0
		for pb.Next() {
			i++
			t := c.Begin()
			if _, err := t.Do(obj, repro.Insert(i)); err != nil {
				b.Error(err)
				return
			}
			if _, err := t.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkCoordinatorConversation measures the full coordinated path
// through the decide pipeline: per iteration one writer pseudo-commits
// over a one-edge commit dependency, is held, and is released when its
// predecessor commits. Each parallel worker runs its own object, so
// concurrent conversations are independent — exactly the traffic the
// flat-combining wave coalesces into batched mirror observes and
// grouped decision-log forces. The traced mode arms the span plane at
// sample rate 1 (every transaction stamps begin/hold/decide/release
// spans into the ring and competes for the exemplar store) — the
// worst-case tracing overhead; untraced vs traced is the cost of the
// plane.
func BenchmarkCoordinatorConversation(b *testing.B) {
	for _, mode := range []string{"untraced", "traced"} {
		b.Run(mode, func(b *testing.B) {
			cfg := dist.Config{Sites: 4}
			if mode == "traced" {
				cfg.Spans = telemetry.NewSpanBuffer(1<<14, 1, 1)
			}
			c, err := dist.NewWithConfig(cfg)
			if err != nil {
				b.Fatal(err)
			}
			const objects = 64
			for id := core.ObjectID(1); id <= objects; id++ {
				if err := c.Register(id, adt.Stack{}, compat.StackTable()); err != nil {
					b.Fatal(err)
				}
			}
			var next atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				obj := core.ObjectID(1 + (next.Add(1)-1)%objects)
				i := 0
				for pb.Next() {
					i += 2
					t1, t2 := c.Begin(), c.Begin()
					if _, err := t1.Do(obj, repro.Push(i)); err != nil {
						b.Error(err)
						return
					}
					// Distinct pushes: recoverable, not commuting — T2
					// executes at once with a commit dependency on T1.
					if _, err := t2.Do(obj, repro.Push(i+1)); err != nil {
						b.Error(err)
						return
					}
					if st, err := t2.Commit(); err != nil || st != core.PseudoCommitted {
						b.Errorf("T2 commit = %v %v", st, err)
						return
					}
					if st, err := t1.Commit(); err != nil || st != core.Committed {
						b.Errorf("T1 commit = %v %v", st, err)
						return
					}
					<-t2.Done()
					if err := t2.Err(); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkCoordinatorHotKey is the contended sweep under zipfian key
// popularity (workload.Sharded.Skew): each home partition funnels most
// of its traffic onto its hot key, so dependency edges, holds and the
// decide pipeline dominate instead of the edge-free fast path. skew=0
// is the uniform-routing control.
func BenchmarkCoordinatorHotKey(b *testing.B) {
	for _, skew := range []float64{0, 1.5} {
		b.Run(fmt.Sprintf("skew=%g", skew), func(b *testing.B) {
			c, err := dist.New(8, core.Options{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			gen := workload.Sharded{
				Inner: workload.ReadWrite{DBSize: 512, WriteProb: 0.3},
				Sites: 8, CrossProb: 0.1, Skew: skew,
			}
			c.SetFactory(gen.Factory())
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				r := rand.New(rand.NewSource(seed.Add(1)))
				for pb.Next() {
					steps := gen.NewTxn(r, 8)
				restart:
					t := c.Begin()
					for _, st := range steps {
						if _, err := t.Do(st.Object, st.Op); err != nil {
							if errors.Is(err, core.ErrTxnAborted) {
								goto restart // retry, as the simulator does
							}
							b.Error(err)
							return
						}
					}
					if _, err := t.Commit(); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkSimulatorEventRate measures raw simulator speed (events are
// dominated by operation steps) in simulated completions per wall
// second.
// BenchmarkConvoySim runs the seed-42 hold-convoy scenario through the
// multi-site simulator, policy off (the unbounded baseline) and under
// a depth bound. Virtual work tracks real work here: the baseline
// simulates the full 237-deep convoy and its drain, so the bounded
// variant's lower op time is the release-machinery savings
// themselves, deterministically reproducible.
func BenchmarkConvoySim(b *testing.B) {
	for _, tc := range []struct {
		name   string
		policy dist.HoldPolicy
	}{
		{"off", nil},
		{"depth=16", dist.DepthBound{Max: 16}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng, err := distsim.NewEngine(distsim.ConvoyPolicy(42, tc.policy))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSimulatorEventRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := repro.DefaultSimConfig(repro.ReadWriteWorkload{DBSize: 1000, WriteProb: 0.3}, 50, 1)
		cfg.Completions = 5000
		cfg.Warmup = 0
		if _, err := repro.Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Sanity tests for the facade (kept beside the benchmarks so the
// root package has test coverage too) ----

func TestFacadeOpConstructors(t *testing.T) {
	cases := []struct {
		op   repro.Op
		name string
	}{
		{repro.Push(1), "push"}, {repro.Pop(), "pop"}, {repro.Top(), "top"},
		{repro.Read(), "read"}, {repro.Write(1), "write"},
		{repro.Insert(1), "insert"}, {repro.Delete(1), "delete"}, {repro.Member(1), "member"},
		{repro.TableInsert(1, 2), "insert"}, {repro.TableDelete(1), "delete"},
		{repro.TableLookup(1), "lookup"}, {repro.TableSize(), "size"}, {repro.TableModify(1, 2), "modify"},
	}
	for _, c := range cases {
		if c.op.Name != c.name {
			t.Errorf("op = %+v, want name %s", c.op, c.name)
		}
	}
	if !repro.TableInsert(1, 2).HasAux || repro.TableSize().HasArg {
		t.Error("arity wrong on table ops")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	db := repro.NewDB(repro.Options{})
	if err := db.Register(1, repro.Set{}, repro.SetTable()); err != nil {
		t.Fatal(err)
	}
	h := db.Begin()
	if ret, err := h.Do(1, repro.Insert(3)); err != nil || ret.Code != repro.RetCodeOK {
		t.Fatalf("insert: %v %v", ret, err)
	}
	if ret, err := h.Do(1, repro.Member(3)); err != nil || ret.Code != repro.RetCodeYes {
		t.Fatalf("member: %v %v", ret, err)
	}
	if st, err := h.Commit(); err != nil || st != repro.Committed {
		t.Fatalf("commit: %v %v", st, err)
	}
	if len(repro.ExperimentIDs()) == 0 {
		t.Error("no experiments registered")
	}
}

// TestFacadeStoreBothBackends runs one transaction body through the
// re-exported Store interface on both back ends — the point of the
// unified client API.
func TestFacadeStoreBothBackends(t *testing.T) {
	cluster, err := repro.NewCluster(2, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]repro.Store{
		"db":      repro.NewDB(repro.Options{}),
		"cluster": cluster,
	} {
		if err := st.Register(1, repro.Set{}, repro.SetTable()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		err := st.Run(context.Background(), func(tx repro.Txn) error {
			if _, err := tx.Do(1, repro.Insert(7)); err != nil {
				return err
			}
			ret, err := tx.Do(1, repro.Member(7))
			if err != nil {
				return err
			}
			if ret.Code != repro.RetCodeYes {
				return fmt.Errorf("member after insert = %v", ret)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: Run = %v", name, err)
		}
		if stats := st.Stats(); stats.Commits != 1 || stats.Executes != 2 {
			t.Fatalf("%s: stats = %+v", name, stats)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("%s: Close = %v", name, err)
		}
		if _, err := st.Begin().Do(1, repro.Insert(8)); !errors.Is(err, repro.ErrClosed) {
			t.Fatalf("%s: Do after Close = %v", name, err)
		}
	}
}

// TestFacadeClusterCrashStop: the cluster NewCluster builds is
// crash-stop — a site crashes, restarts, and serves again.
func TestFacadeClusterCrashStop(t *testing.T) {
	cluster, err := repro.NewCluster(2, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := cluster.NumSites(); n != 2 {
		t.Fatalf("NumSites = %d", n)
	}
	if err := cluster.Register(2, repro.Set{}, repro.SetTable()); err != nil { // site 0
		t.Fatal(err)
	}
	if err := cluster.CrashSite(0); err != nil {
		t.Fatalf("CrashSite = %v", err)
	}
	if _, err := cluster.Begin().Do(2, repro.Insert(1)); !errors.Is(err, repro.ErrSiteFailed) {
		t.Fatalf("Do at a crashed site = %v, want ErrSiteFailed", err)
	}
	if err := cluster.RestartSite(0); err != nil {
		t.Fatalf("RestartSite = %v", err)
	}
	err = cluster.Run(context.Background(), func(tx repro.Txn) error {
		_, err := tx.Do(2, repro.Insert(1))
		return err
	})
	if err != nil {
		t.Fatalf("Run after restart = %v", err)
	}
}
