package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// procPhase tracks where a transaction is in its lifecycle.
type procPhase uint8

const (
	phReady    procPhase = iota // waiting in the ready queue
	phRunning                   // between events (issuing requests)
	phBlocked                   // waiting for a conflicting operation
	phResource                  // consuming CPU/disk or flat step time
	phDone                      // completed (pseudo-committed or committed)
)

// proc is one in-flight transaction (a terminal's current submission,
// across restarts).
type proc struct {
	txn       core.TxnID // current incarnation
	terminal  int
	steps     []workload.Step
	idx       int     // next step to issue
	submitted float64 // original submission time (survives restarts)
	phase     procPhase
	waitsReal bool // completion deferred to real commit (ablation A)
}

// Engine runs one simulation to completion.
type Engine struct {
	cfg   Config
	src   workload.Source
	rng   *rand.Rand
	sched *core.Scheduler

	tl Timeline[*event]

	// effs holds one reusable Effects per nesting depth of scheduler
	// calls: applying one call's effects can restart a transaction and
	// admit another, whose request runs while the outer effects are
	// still being iterated.
	effs  []*core.Effects
	depth int

	readyQ []*proc
	active int // admitted, not yet completed transactions

	procs   map[core.TxnID]*proc
	nextTxn core.TxnID

	// Finite-resource state: one pool of CPUs, per-disk FIFO queues.
	freeCPUs int
	cpuQ     []*proc
	diskBusy []bool
	diskQ    [][]*proc

	// Counters (whole run; the measurement window is taken as a
	// delta).
	completions  int
	restarts     int
	abortOps     int
	sumResponse  float64
	inWindow     bool
	windowStart  float64
	baseStats    core.Stats
	baseRestarts int
	baseAbortOps int
	windowResp   float64
	windowCompl  int
}

// NewEngine builds an engine for the configuration.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:   cfg,
		src:   workload.Source{Gen: cfg.Workload, MinLen: cfg.MinLength, MaxLen: cfg.MaxLength},
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		sched: core.NewScheduler(core.Options{Predicate: cfg.Predicate, Unfair: cfg.Unfair, Recovery: cfg.Recovery}),
		procs: make(map[core.TxnID]*proc),
	}
	e.sched.SetFactory(cfg.Workload.Factory())
	if cfg.ResourceUnits > 0 {
		e.freeCPUs = cfg.ResourceUnits
		nDisks := 2 * cfg.ResourceUnits
		e.diskBusy = make([]bool, nDisks)
		e.diskQ = make([][]*proc, nDisks)
	}
	return e, nil
}

// Run simulates until Warmup+Completions transactions complete and
// returns the measured window's metrics.
func (e *Engine) Run() (metrics.Run, error) {
	target := e.cfg.Warmup + e.cfg.Completions
	if e.cfg.Warmup == 0 {
		e.openWindow()
	}
	for t := 0; t < e.cfg.Terminals; t++ {
		e.schedule(e.think(), &event{kind: evArrive, terminal: t})
	}

	guard := e.cfg.maxEvents()
	for steps := 0; e.completions < target; steps++ {
		if steps >= guard {
			return metrics.Run{}, fmt.Errorf("sim: event guard tripped after %d events (%d/%d completions) — likely stall", steps, e.completions, target)
		}
		ev := e.nextEvent()
		if ev == nil {
			return metrics.Run{}, fmt.Errorf("sim: event queue drained at %d/%d completions", e.completions, target)
		}
		switch ev.kind {
		case evArrive:
			e.arrive(ev.terminal)
		case evOpDone:
			e.opComplete(ev.proc)
		case evCPUDone:
			e.cpuDone(ev.proc)
		case evDiskDone:
			e.diskDone(ev.proc, ev.disk)
		}
	}
	return e.window(), nil
}

// think draws an exponential terminal think time.
func (e *Engine) think() float64 {
	if e.cfg.ThinkTime == 0 {
		return e.tl.Now()
	}
	return e.tl.Now() + e.rng.ExpFloat64()*e.cfg.ThinkTime
}

// openWindow starts the measurement window.
func (e *Engine) openWindow() {
	e.inWindow = true
	e.windowStart = e.tl.Now()
	e.baseStats = e.sched.StatsSnapshot()
	e.baseRestarts = e.restarts
	e.baseAbortOps = e.abortOps
}

// window assembles the measured metrics.
func (e *Engine) window() metrics.Run {
	st := e.sched.StatsSnapshot()
	return metrics.Run{
		SimTime:       e.tl.Now() - e.windowStart,
		Completed:     e.windowCompl,
		TotalResponse: e.windowResp,
		Blocks:        int(st.Blocks - e.baseStats.Blocks),
		Restarts:      e.restarts - e.baseRestarts,
		CycleChecks:   int(st.CycleChecks - e.baseStats.CycleChecks),
		AbortOps:      e.abortOps - e.baseAbortOps,
	}
}

// arrive handles a terminal submitting a new transaction.
func (e *Engine) arrive(terminal int) {
	p := &proc{
		terminal:  terminal,
		steps:     e.src.Draw(e.rng),
		submitted: e.tl.Now(),
		phase:     phReady,
	}
	e.readyQ = append(e.readyQ, p)
	e.admit()
}

// admit starts ready transactions while the multiprogramming level
// allows.
func (e *Engine) admit() {
	for e.active < e.cfg.MPL && len(e.readyQ) > 0 {
		p := e.readyQ[0]
		e.readyQ = e.readyQ[1:]
		e.active++
		e.nextTxn++
		p.txn = e.nextTxn
		p.phase = phRunning
		e.procs[p.txn] = p
		if err := e.sched.Begin(p.txn); err != nil {
			panic(fmt.Sprintf("sim: Begin: %v", err)) // ids are fresh by construction
		}
		e.issueNext(p)
	}
}

// issueNext submits the transaction's next operation to the
// concurrency controller, or commits if it has none left.
func (e *Engine) issueNext(p *proc) {
	if p.idx >= len(p.steps) {
		e.finish(p)
		return
	}
	step := p.steps[p.idx]
	eff := e.pushEffects()
	defer e.popEffects()
	dec, err := e.sched.RequestInto(eff, p.txn, step.Object, step.Op)
	if err != nil {
		panic(fmt.Sprintf("sim: Request: %v", err))
	}
	switch dec.Outcome {
	case core.Executed:
		p.idx++
		e.startResources(p)
	case core.Blocked:
		p.phase = phBlocked
	case core.Aborted:
		e.restartAborted(p)
	}
	e.applyEffects(eff)
}

// startResources charges the operation's service demand: a flat step
// under infinite resources, else a CPU burst followed by a disk access
// at a randomly chosen disk.
func (e *Engine) startResources(p *proc) {
	p.phase = phResource
	if e.cfg.ResourceUnits == 0 {
		e.schedule(e.tl.Now()+e.cfg.StepTime, &event{kind: evOpDone, proc: p})
		return
	}
	if e.freeCPUs > 0 {
		e.freeCPUs--
		e.schedule(e.tl.Now()+e.cfg.CPUTime, &event{kind: evCPUDone, proc: p})
	} else {
		e.cpuQ = append(e.cpuQ, p)
	}
}

// cpuDone releases the CPU to the next waiter and moves p to a disk.
func (e *Engine) cpuDone(p *proc) {
	if len(e.cpuQ) > 0 {
		next := e.cpuQ[0]
		e.cpuQ = e.cpuQ[1:]
		e.schedule(e.tl.Now()+e.cfg.CPUTime, &event{kind: evCPUDone, proc: next})
	} else {
		e.freeCPUs++
	}
	// "When a transaction needs to access a disk, it chooses a disk
	// randomly and waits in the queue of the selected disk."
	d := e.rng.Intn(len(e.diskBusy))
	if !e.diskBusy[d] {
		e.diskBusy[d] = true
		e.schedule(e.tl.Now()+e.cfg.IOTime, &event{kind: evDiskDone, proc: p, disk: d})
	} else {
		e.diskQ[d] = append(e.diskQ[d], p)
	}
}

// diskDone finishes p's disk access and starts the next queued one.
func (e *Engine) diskDone(p *proc, d int) {
	if len(e.diskQ[d]) > 0 {
		next := e.diskQ[d][0]
		e.diskQ[d] = e.diskQ[d][1:]
		e.schedule(e.tl.Now()+e.cfg.IOTime, &event{kind: evDiskDone, proc: next, disk: d})
	} else {
		e.diskBusy[d] = false
	}
	e.opComplete(p)
}

// opComplete moves to the next operation.
func (e *Engine) opComplete(p *proc) {
	p.phase = phRunning
	e.issueNext(p)
}

// finish commits the transaction. Completion (terminal release,
// response-time stop) happens at pseudo-commit time unless ablation A
// defers it to the real commit.
func (e *Engine) finish(p *proc) {
	eff := e.pushEffects()
	defer e.popEffects()
	status, err := e.sched.CommitInto(eff, p.txn)
	if err != nil {
		panic(fmt.Sprintf("sim: Commit: %v", err))
	}
	if status == core.Committed {
		e.complete(p)
		e.sched.Forget(p.txn)
		delete(e.procs, p.txn)
	} else if e.cfg.DisablePseudoCommit {
		p.waitsReal = true
		p.phase = phDone
	} else {
		e.complete(p)
		p.phase = phDone // stays in procs until the real commit
	}
	e.applyEffects(eff)
}

// complete records a transaction completion and frees its terminal and
// MPL slot.
func (e *Engine) complete(p *proc) {
	e.completions++
	resp := e.tl.Now() - p.submitted
	e.sumResponse += resp
	if e.inWindow {
		e.windowCompl++
		e.windowResp += resp
	}
	e.active--
	e.schedule(e.think(), &event{kind: evArrive, terminal: p.terminal})
	e.admit()
	if !e.inWindow && e.completions >= e.cfg.Warmup {
		e.openWindow()
	}
}

// restartAborted handles an abort chosen by the scheduler: record the
// abort length, put the transaction at the tail of the ready queue and
// re-admit ("an aborted transaction is restarted immediately, i.e.,
// placed at the end of ready queue"; it re-executes the same operation
// sequence unless FakeRestarts is on).
func (e *Engine) restartAborted(p *proc) {
	e.restarts++
	e.abortOps += p.idx
	e.sched.Forget(p.txn)
	delete(e.procs, p.txn)
	e.active--

	p.idx = 0
	p.txn = 0
	p.phase = phReady
	if e.cfg.FakeRestarts {
		p.steps = e.src.Draw(e.rng)
	}
	e.readyQ = append(e.readyQ, p)
	e.admit()
}

// pushEffects returns the Effects buffer of the next nesting depth,
// growing the stack on first use; popEffects hands it back.
func (e *Engine) pushEffects() *core.Effects {
	if e.depth == len(e.effs) {
		e.effs = append(e.effs, new(core.Effects))
	}
	e.depth++
	return e.effs[e.depth-1]
}

func (e *Engine) popEffects() { e.depth-- }

// applyEffects processes downstream consequences of a scheduler call:
// granted requests resume their transactions, retry-aborts restart
// them, real commits of pseudo-committed transactions release
// bookkeeping (and, under ablation A, complete them).
func (e *Engine) applyEffects(eff *core.Effects) {
	for _, g := range eff.Grants {
		p := e.procs[g.Txn]
		if p == nil || p.phase != phBlocked {
			continue
		}
		p.idx++
		e.startResources(p)
	}
	for _, a := range eff.RetryAborts {
		if p := e.procs[a.Txn]; p != nil {
			e.restartAborted(p)
		}
	}
	for _, id := range eff.Committed {
		p := e.procs[id]
		if p == nil {
			continue
		}
		if p.waitsReal {
			e.complete(p)
		}
		e.sched.Forget(id)
		delete(e.procs, id)
	}
}

// Now returns the current simulated time (tests).
func (e *Engine) Now() float64 { return e.tl.Now() }

// Scheduler exposes the controller (tests).
func (e *Engine) Scheduler() *core.Scheduler { return e.sched }

// Simulate is the package's one-call entry point: build and run.
func Simulate(cfg Config) (metrics.Run, error) {
	eng, err := NewEngine(cfg)
	if err != nil {
		return metrics.Run{}, err
	}
	return eng.Run()
}

// SimulateRuns performs n independent runs with seeds cfg.Seed,
// cfg.Seed+1, … and returns the per-run metrics.
func SimulateRuns(cfg Config, n int) ([]metrics.Run, error) {
	runs := make([]metrics.Run, 0, n)
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		r, err := Simulate(c)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}
