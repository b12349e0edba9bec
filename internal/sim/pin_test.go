package sim

import (
	"math"
	"testing"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// pinCfg is a conflict-heavy abstract-ADT run with the multiprogramming
// level well below the terminal count, so transactions queue for
// admission and blocked requests are aborted on retry while others
// wait in the ready queue.
func pinCfg() Config {
	cfg := Default(workload.Abstract{DBSize: 40, Sigma: 4, Pc: 8, Pr: 4, TableSeed: 5}, 12, 42)
	cfg.Terminals = 60
	cfg.Completions = 600
	cfg.Warmup = 60
	return cfg
}

// retryAbortProbe is a Recorder that counts aborts of blocked
// transactions — the retry aborts the scheduler reports in
// Effects.RetryAborts — and how many of them happened while the ready
// queue was non-empty. The engine is single-threaded and the recorder
// runs inside its scheduler calls, so reading the queue here is safe.
type retryAbortProbe struct {
	eng        *Engine
	blocked    map[core.TxnID]bool
	aborts     int
	withQueued int
}

func (p *retryAbortProbe) Executed(txn core.TxnID, _ core.ObjectID, _ adt.Op, _ adt.Ret, _ uint64) {
	delete(p.blocked, txn)
}
func (p *retryAbortProbe) Blocked(txn core.TxnID, _ core.ObjectID, _ adt.Op) { p.blocked[txn] = true }
func (p *retryAbortProbe) Aborted(txn core.TxnID, _ core.AbortReason) {
	if p.blocked[txn] {
		p.aborts++
		if len(p.eng.readyQ) > 0 {
			p.withQueued++
		}
	}
	delete(p.blocked, txn)
}
func (p *retryAbortProbe) PseudoCommitted(core.TxnID) {}
func (p *retryAbortProbe) Committed(core.TxnID)       {}

// TestSimulatePinned pins the exact metrics of one simulation. Unlike
// TestDeterminism, which compares two runs with each other, it catches a
// change that moves every run the same way — in particular to how the
// engine nests scheduler calls: a retry abort restarts its transaction
// and admits the next ready one, which issues a request while the
// outer call's effects are still being applied.
func TestSimulatePinned(t *testing.T) {
	run, err := Simulate(pinCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := metrics.Run{SimTime: 131.15, Completed: 600, TotalResponse: 6503.439914724961,
		Blocks: 2716, Restarts: 1370, CycleChecks: 7280, AbortOps: 7414}
	// The float sums are compared to a relative 1e-9: fused
	// multiply-adds on some architectures move their last bits.
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }
	got := run
	got.SimTime, got.TotalResponse = want.SimTime, want.TotalResponse
	if got != want || !near(run.SimTime, want.SimTime) || !near(run.TotalResponse, want.TotalResponse) {
		t.Errorf("run = %+v\nwant  %+v", run, want)
	}

	// The path the pin guards must run: blocked requests aborted on
	// retry while other transactions wait for admission.
	cfg := pinCfg()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := &retryAbortProbe{eng: eng, blocked: make(map[core.TxnID]bool)}
	eng.sched = core.NewScheduler(core.Options{Predicate: cfg.Predicate, Unfair: cfg.Unfair, Recovery: cfg.Recovery, Recorder: probe})
	eng.sched.SetFactory(cfg.Workload.Factory())
	probed, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if probe.withQueued == 0 {
		t.Fatalf("no retry abort with a non-empty ready queue (%d retry aborts in all)", probe.aborts)
	}
	if probed != run {
		t.Fatalf("a passive recorder changed the run:\n%+v\n%+v", probed, run)
	}
}
