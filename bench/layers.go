package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/wire"
)

// layerBench is one line of the price list: what one exported call (or
// one fixed small sequence of them) costs in isolation, on a single
// goroutine, at a fixed iteration count.
type layerBench struct {
	name  string
	unit  string // "ns" or "us"
	iters int
	// moves says which end-to-end metric on which workload the line's
	// cost should show in (see metricDef.moves).
	moves   string
	prepare prepareFn
}

// runFn performs n iterations and reports only the time spent in the
// measured calls.
type runFn func(n int) (time.Duration, error)

// prepareFn builds a line's fixture (dir is scratch space for files)
// and returns its run function and done, which releases the fixture.
type prepareFn func(dir string) (run runFn, done func(), err error)

// layerBatches is how many batches each line runs; the median batch is
// reported.
const layerBatches = 7

// sink keeps results the compiler could otherwise prove unused.
var sink int

func pushOp(v int) adt.Op { return adt.Op{Name: adt.StackPush, Arg: v, HasArg: true} }

func timed(n int, f func(i int) error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func noop() {}

// priceList is the per-layer price list, one line per module boundary
// the client-observed transaction crosses.
var priceList = []layerBench{
	{name: "compat.classify_ns", unit: "ns", iters: 2_000_000, moves: movesScheduler,
		prepare: func(dir string) (runFn, func(), error) {
			comp, ok := compat.CompileClassifier(compat.StackTable())
			if !ok {
				return nil, nil, fmt.Errorf("stack table does not compile")
			}
			push := comp.OpID(adt.StackPush)
			row := comp.Row(push, false)
			return func(n int) (time.Duration, error) {
				return timed(n, func(i int) error {
					sink += int(row.Classify(push, i&1 == 0))
					return nil
				})
			}, noop, nil
		}},
	{name: "adt.apply_ns", unit: "ns", iters: 500_000, moves: movesScheduler,
		prepare: func(dir string) (runFn, func(), error) {
			typ := adt.Stack{}
			return func(n int) (time.Duration, error) {
				st := typ.New()
				return timed(n, func(i int) error {
					_, err := typ.Apply(st, pushOp(i))
					return err
				})
			}, noop, nil
		}},
	{name: "depgraph.cycle_check_ns", unit: "ns", iters: 10_000, moves: movesScheduler,
		prepare: func(dir string) (runFn, func(), error) {
			g := depgraph.New()
			for t := depgraph.TxnID(1); t < 64; t++ {
				g.AddEdge(t, t+1, depgraph.CommitDep)
			}
			return func(n int) (time.Duration, error) {
				return timed(n, func(int) error {
					if g.HasCycleFrom(1) {
						return fmt.Errorf("chain reported a cycle")
					}
					return nil
				})
			}, noop, nil
		}},
	{name: "depgraph.mirror_round_ns", unit: "ns", iters: 100_000, moves: "commit_tps @ cluster-convoy; not cluster-part",
		prepare: func(dir string) (runFn, func(), error) {
			m := depgraph.NewMirror()
			return func(n int) (time.Duration, error) {
				return timed(n, func(i int) error {
					t := depgraph.TxnID(3*i + 3)
					edges := [2]depgraph.Edge{
						{From: t, To: t - 1, Kind: depgraph.CommitDep},
						{From: t, To: t - 2, Kind: depgraph.CommitDep},
					}
					m.Observe(0, t, edges[:])
					if m.HasCycleFrom(t) {
						return fmt.Errorf("mirror reported a cycle")
					}
					m.RemoveTxn(t)
					return nil
				})
			}, noop, nil
		}},
	{name: "core.commuting_txn_ns", unit: "ns", iters: 100_000, moves: movesScheduler,
		prepare: func(dir string) (runFn, func(), error) {
			s := core.NewScheduler(core.Options{})
			if err := s.Register(1, adt.Set{}, compat.SetTable()); err != nil {
				return nil, nil, err
			}
			var id core.TxnID
			var eff core.Effects
			return func(n int) (time.Duration, error) {
				return timed(n, func(i int) error {
					id++
					if err := s.Begin(id); err != nil {
						return err
					}
					op := adt.Op{Name: adt.SetMember, Arg: i % 97, HasArg: true}
					if dec, err := s.RequestInto(&eff, id, 1, op); err != nil || dec.Outcome != core.Executed {
						return fmt.Errorf("member: %v %v", dec, err)
					}
					if _, err := s.CommitInto(&eff, id); err != nil {
						return err
					}
					s.Forget(id)
					return nil
				})
			}, noop, nil
		}},
	{name: "core.recoverable_pair_ns", unit: "ns", iters: 30_000, moves: movesScheduler,
		prepare: func(dir string) (runFn, func(), error) {
			s := core.NewScheduler(core.Options{})
			if err := s.Register(1, adt.Stack{}, compat.StackTable()); err != nil {
				return nil, nil, err
			}
			var id core.TxnID
			var eff core.Effects
			return func(n int) (time.Duration, error) {
				return timed(n, func(i int) error {
					ta, tb := id+1, id+2
					id += 2
					if err := s.Begin(ta); err != nil {
						return err
					}
					if err := s.Begin(tb); err != nil {
						return err
					}
					if dec, err := s.RequestInto(&eff, ta, 1, pushOp(i)); err != nil || dec.Outcome != core.Executed {
						return fmt.Errorf("push a: %v %v", dec, err)
					}
					// Recoverable, not commuting: runs over ta's uncommitted push.
					if dec, err := s.RequestInto(&eff, tb, 1, pushOp(i+1)); err != nil || dec.Outcome != core.Executed {
						return fmt.Errorf("push b: %v %v", dec, err)
					}
					if st, err := s.CommitInto(&eff, tb); err != nil || st != core.PseudoCommitted {
						return fmt.Errorf("commit b: %v %v", st, err)
					}
					if st, err := s.CommitInto(&eff, ta); err != nil || st != core.Committed {
						return fmt.Errorf("commit a: %v %v", st, err)
					}
					s.Forget(ta)
					s.Forget(tb)
					return nil
				})
			}, noop, nil
		}},
	{name: "core.blocked_grant_ns", unit: "ns", iters: 30_000, moves: movesScheduler,
		prepare: func(dir string) (runFn, func(), error) {
			s := core.NewScheduler(core.Options{})
			if err := s.Register(1, adt.Stack{}, compat.StackTable()); err != nil {
				return nil, nil, err
			}
			var id core.TxnID
			var eff core.Effects
			pop := adt.Op{Name: adt.StackPop}
			return func(n int) (time.Duration, error) {
				return timed(n, func(i int) error {
					ta, tb := id+1, id+2
					id += 2
					if err := s.Begin(ta); err != nil {
						return err
					}
					if err := s.Begin(tb); err != nil {
						return err
					}
					if dec, err := s.RequestInto(&eff, ta, 1, pushOp(i)); err != nil || dec.Outcome != core.Executed {
						return fmt.Errorf("push: %v %v", dec, err)
					}
					// A pop conflicts with the uncommitted push: it blocks.
					if dec, err := s.RequestInto(&eff, tb, 1, pop); err != nil || dec.Outcome != core.Blocked {
						return fmt.Errorf("pop: %v %v", dec, err)
					}
					// The holder's commit grants it.
					if _, err := s.CommitInto(&eff, ta); err != nil || len(eff.Grants) != 1 {
						return fmt.Errorf("holder commit: grants=%d %v", len(eff.Grants), err)
					}
					if _, err := s.CommitInto(&eff, tb); err != nil {
						return err
					}
					s.Forget(ta)
					s.Forget(tb)
					return nil
				})
			}, noop, nil
		}},
	{name: "core.db_txn_ns", unit: "ns", iters: 50_000, moves: movesScheduler,
		prepare: func(dir string) (runFn, func(), error) {
			db := core.NewDB(core.Options{})
			if err := db.Register(1, adt.Set{}, compat.SetTable()); err != nil {
				return nil, nil, err
			}
			return func(n int) (time.Duration, error) {
				return timed(n, func(i int) error {
					t := db.Begin()
					if _, err := t.Do(1, adt.Op{Name: adt.SetMember, Arg: i % 97, HasArg: true}); err != nil {
						return err
					}
					_, err := t.Commit()
					return err
				})
			}, noop, nil
		}},
	{name: "dist.fastpath_txn_ns", unit: "ns", iters: 40_000, moves: "commit_tps, txn_p50_us @ cluster-part",
		prepare: func(dir string) (runFn, func(), error) {
			c, err := dist.NewWithConfig(dist.Config{Sites: 2, FaultTolerant: true})
			if err != nil {
				return nil, nil, err
			}
			if err := c.Register(1, adt.Page{}, compat.PageTable()); err != nil {
				return nil, nil, err
			}
			return func(n int) (time.Duration, error) {
				return timed(n, func(i int) error {
					t := c.Begin()
					if _, err := t.Do(1, adt.Op{Name: adt.PageWrite, Arg: i, HasArg: true}); err != nil {
						return err
					}
					if st, err := t.Commit(); err != nil || st != core.Committed {
						return fmt.Errorf("commit: %v %v", st, err)
					}
					return nil
				})
			}, noop, nil
		}},
	{name: "dist.conversation_txn_ns", unit: "ns", iters: 10_000, moves: "commit_tps, real_p50_us @ cluster-convoy; not cluster-part",
		prepare: func(dir string) (runFn, func(), error) {
			c, err := dist.NewWithConfig(dist.Config{Sites: 2, FaultTolerant: true})
			if err != nil {
				return nil, nil, err
			}
			if err := c.Register(1, adt.Stack{}, compat.StackTable()); err != nil {
				return nil, nil, err
			}
			return func(n int) (time.Duration, error) {
				return timed(n, func(i int) error {
					t1, t2 := c.Begin(), c.Begin()
					if _, err := t1.Do(1, pushOp(i)); err != nil {
						return err
					}
					if _, err := t2.Do(1, pushOp(i+1)); err != nil {
						return err
					}
					// One commit-dependency edge: t2 is held until t1 commits.
					if st, err := t2.Commit(); err != nil || st != core.PseudoCommitted {
						return fmt.Errorf("t2 commit: %v %v", st, err)
					}
					if st, err := t1.Commit(); err != nil || st != core.Committed {
						return fmt.Errorf("t1 commit: %v %v", st, err)
					}
					<-t2.Done()
					return t2.Err()
				})
			}, noop, nil
		}},
	{name: "fault.memlog_record_ns", unit: "ns", iters: 200_000, moves: "txn_p50_us @ cluster-convoy (a MemLog decision per conversation); not db-mix",
		prepare: func(dir string) (runFn, func(), error) {
			l := fault.NewMemLog()
			var id core.TxnID
			return func(n int) (time.Duration, error) {
				return timed(n, func(int) error {
					id++
					if err := l.Record(id, fault.OutcomeCommit); err != nil {
						return err
					}
					return l.Truncate(id)
				})
			}, noop, nil
		}},
	{name: "fault.filelog_record_us", unit: "us", iters: 20_000, moves: movesWire,
		prepare: fileLogBench(false, 1)},
	{name: "fault.filelog_force_us", unit: "us", iters: 100, moves: "on no end-to-end path today (sync=false); the baseline for group commit",
		prepare: fileLogBench(true, 1)},
	{name: "fault.filelog_force8_us", unit: "us", iters: 100, moves: "as filelog_force_us: one force amortised over 8 decisions",
		prepare: fileLogBench(true, 8)},
	{name: "wire.participant_rtt_us", unit: "us", iters: 2_000, moves: movesWire + " (codec + frame + site worker)",
		prepare: func(dir string) (runFn, func(), error) {
			srv, err := wire.ServeSites(wire.SiteServerConfig{
				Addr:     "127.0.0.1:0",
				Sites:    map[uint16]dist.SiteBackend{0: core.NewScheduler(core.Options{})},
				Workload: convoySpec,
			})
			if err != nil {
				return nil, nil, err
			}
			peer := wire.NewPeer(wire.PeerConfig{Addr: srv.Addr()})
			if err := peer.Connect(5 * time.Second); err != nil {
				srv.Close()
				return nil, nil, err
			}
			rs := wire.NewRemoteSite(peer, 0, nil)
			var id core.TxnID
			var eff core.Effects
			return func(n int) (time.Duration, error) {
					// One transaction per batch; only its requests are timed.
					id++
					if err := rs.Begin(id); err != nil {
						return 0, err
					}
					d, err := timed(n, func(i int) error {
						dec, err := rs.RequestInto(&eff, id, core.ObjectID(1+i%convoyDB), pushOp(i))
						if err != nil || dec.Outcome != core.Executed {
							return fmt.Errorf("request: %v %v", dec, err)
						}
						return nil
					})
					if err != nil {
						return 0, err
					}
					if _, err := rs.CommitInto(&eff, id); err != nil {
						return 0, err
					}
					rs.Forget(id)
					return d, nil
				}, func() {
					peer.Close()
					srv.Close()
				}, nil
		}},
	{name: "wire.client_rtt_us", unit: "us", iters: 1_000, moves: movesWire + " (client hop + coordinator + participant hop)",
		prepare: func(dir string) (runFn, func(), error) {
			inst, err := openWire(nil, dir)
			if err != nil {
				return nil, nil, err
			}
			return func(n int) (time.Duration, error) {
				t := inst.store.Begin()
				d, err := timed(n, func(i int) error {
					_, err := t.Do(core.ObjectID(1+i%convoyDB), pushOp(i))
					return err
				})
				if err != nil {
					return 0, err
				}
				if _, err := t.Commit(); err != nil {
					return 0, err
				}
				<-t.Done()
				return d, t.Err()
			}, inst.close, nil
		}},
	{name: "wire.client_txn_us", unit: "us", iters: 150, moves: movesWire,
		prepare: func(dir string) (runFn, func(), error) {
			inst, err := openWire(nil, dir)
			if err != nil {
				return nil, nil, err
			}
			return func(n int) (time.Duration, error) {
				return timed(n, func(i int) error {
					t := inst.store.Begin()
					for k := 0; k < 8; k++ {
						if _, err := t.Do(core.ObjectID(1+(8*i+k)%convoyDB), pushOp(k)); err != nil {
							return err
						}
					}
					if _, err := t.Commit(); err != nil {
						return err
					}
					<-t.Done()
					return t.Err()
				})
			}, inst.close, nil
		}},
}

// fileLogBench times FileLog.RecordBatch of batch decisions per call.
func fileLogBench(sync bool, batch int) prepareFn {
	return func(dir string) (runFn, func(), error) {
		l, err := fault.OpenFileLog(filepath.Join(dir, fmt.Sprintf("price-%v-%d.log", sync, batch)), sync)
		if err != nil {
			return nil, nil, err
		}
		var id core.TxnID
		ids := make([]core.TxnID, batch)
		return func(n int) (time.Duration, error) {
			return timed(n, func(int) error {
				for k := range ids {
					id++
					ids[k] = id
				}
				return l.RecordBatch(ids, fault.OutcomeCommit)
			})
		}, func() { l.Close() }, nil
	}
}

// runPriceList measures every line: layerBatches batches of
// iters/scale iterations each, median batch reported, in the line's
// unit. scale > 1 shrinks the run for smoke tests.
func runPriceList(dir string, scale int) (map[string]float64, error) {
	out := make(map[string]float64, len(priceList))
	for _, lb := range priceList {
		n := lb.iters / scale
		if n < 1 {
			n = 1
		}
		run, done, err := lb.prepare(dir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", lb.name, err)
		}
		per := make([]float64, 0, layerBatches)
		for b := 0; b < layerBatches; b++ {
			d, err := run(n)
			if err != nil {
				done()
				return nil, fmt.Errorf("%s: %w", lb.name, err)
			}
			v := float64(d.Nanoseconds()) / float64(n)
			if lb.unit == "us" {
				v /= 1e3
			}
			per = append(per, v)
		}
		done()
		out[lb.name] = median(per)
	}
	return out, nil
}
