package distsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// sprocState tracks where a logical transaction's current attempt is.
type sprocState uint8

const (
	spActive    sprocState = iota // issuing requests
	spBlocked                     // a request is parked at a site
	spHolding                     // commit conversation in flight (hold phase or direct commit)
	spHeld                        // pseudo-committed-and-held, waiting for the global dependency set
	spReleasing                   // decision logged, releases fanning out
	spWaitRetry                   // aborted, waiting out the restart backoff
)

// sproc is one logical transaction: it survives aborts (the attempt
// resubmits with a fresh txn id) and, for revoked holds, survives the
// revocation as a detached re-run.
type sproc struct {
	txn      core.TxnID // current attempt's id; 0 between attempts
	terminal int
	steps    []workload.Step
	idx      int
	// cv is the current attempt's record at the coordinator (its id,
	// visited sites and decision state live there).
	cv *dist.Conv
	// anyEdges is the site-side "this attempt has ever exported an edge"
	// flag that rides the operation replies: while false the sites send
	// no edge reports and a single-site commit goes direct.
	anyEdges bool
	freed    bool // terminal released (pseudo completion counted)
	state    sprocState

	// adopted marks a conversation that outlived a coordinator crash (its
	// completion is driven by the replacement coordinator's reconcile,
	// not by the script).
	adopted bool

	blockedSite  int
	attempts     int
	submitted    float64 // first submission (survives restarts)
	attemptStart float64
	commitStart  float64
	decideTime   float64 // decision time (or startCommit for the direct path)
	heldAt       float64
}

// simSite is one participant: the real crash-stop scheduler plus the
// model's per-site channel state.
type simSite struct {
	idx int
	cr  *fault.Crashable
	// toCoord/fromCoord hold the earliest next delivery time per
	// direction: channels are FIFO (a later send never overtakes an
	// earlier one), which is what keeps stale edge reports from
	// clobbering fresh ones at the mirror.
	toCoord, fromCoord float64
	// parked maps transactions blocked at this site.
	parked map[core.TxnID]*sproc
	// prepTime records when each prepared (in-doubt) record was forced
	// — durable bookkeeping, surviving crashes, for the in-doubt
	// window metric.
	prepTime map[core.TxnID]float64
}

func (s *simSite) down() bool { return s.cr.Down() }

// evKind discriminates simulator events.
type evKind uint8

const (
	evSubmit       evKind = iota // a terminal submits a new logical transaction
	evResubmit                   // an aborted/revoked logical transaction retries
	evReqArrive                  // an operation request reaches its home site
	evOpDone                     // an executed operation's reply reached the terminal
	evObserve                    // an edge report reaches the coordinator's mirror
	evArrive                     // a conversation action (hold, direct commit, release) reaches its participant
	evReply                      // ... and the participant's reply reaches the coordinator
	evRestart                    // a crashed site restarts and recovers
	evCoordRestart               // the replacement coordinator starts and reconciles
)

// ev is one scheduled event. txn stamps the attempt the event belongs
// to: if the proc has moved on (aborted and resubmitted) the event is
// stale and dropped — the message died with the attempt.
type ev struct {
	kind     evKind
	p        *sproc
	txn      core.TxnID
	site     int
	terminal int
	edges    []depgraph.Edge // evObserve payload, captured at send time
	act      dist.Action     // evArrive payload
	in       dist.Input      // evReply payload
}

// Engine runs one deterministic multi-site simulation.
type Engine struct {
	cfg   Config
	src   workload.Source
	rng   *rand.Rand
	tl    sim.Timeline[ev]
	sites []*simSite

	// co is the shipped coordinator (dist.Coordinator): registry, union
	// graph, decision rounds, release drains, ack table, crash
	// classification, restart adoption and the conversation script all
	// run there. The engine models only what surrounds it — time and
	// message order. A coordinator crash replaces co with a fresh one on
	// the same flog; deadShed keeps the shed count of the incarnations
	// that died.
	co       *dist.Coordinator
	deadShed int
	flog     fault.Log

	// procs maps each live attempt's id to its logical transaction —
	// the terminal side's session table (adopted conversations stay in
	// it across a coordinator crash).
	procs   map[core.TxnID]*sproc
	nextTxn core.TxnID

	stepCount  [dist.NumSteps]int
	crashFired []bool

	// Coordinator-failure model (armed by a non-empty CoordCrashes
	// schedule; coordGate=false keeps the classic coordinator-never-
	// fails behavior bit-identical, baseline trace hashes included).
	// With the gate on, commit decisions are client-gated like the wire
	// client plane gates them (direct commits are logged, and a logged
	// decision stays in the log until realCommit), so a coordinator
	// crash between the last site ack and the terminal's reply still
	// resolves toward commit. orphans are the attempts a crash
	// stranded: their site-side state (locks, queue entries, holds)
	// survives until the replacement reconciles it away.
	coordGate       bool
	coordDown       bool
	coordRestartAt  float64
	coordCrashFired []bool
	orphans         []*dist.Conv

	coordCrashes, coordRestarts int
	coordAdopted                int
	coordOrphans, coordRevoked  int

	// Counters (whole run; the window is a delta).
	realCommits, pseudoCompl, aborts, heldAborts int
	crashes, restarts, redone, presumed          int
	logHighWater                                 int

	inWindow                                       bool
	windowStart                                    float64
	baseReal, basePseudo, baseAborts, baseHeldAbrt int

	// draining marks the post-target drain phase: terminals stop
	// (submits/resubmits are dropped), tracing is suppressed (the hash
	// freezes at the completion target, keeping policy-off runs
	// bit-identical to the pre-drain baselines) and the windowed
	// metrics stop sampling; only the held set keeps draining, for the
	// TimeToDrain measurement. The snap* values freeze the measurement
	// window at the target.
	draining                                       bool
	timeToDrain                                    float64
	snapTime                                       float64
	snapReal, snapPseudo, snapAborts, snapHeldAbrt int

	// heldWaits collects every held→decision wait (drain included) for
	// the p99; the gated phHeldWait keeps its pre-drain meaning.
	heldWaits []float64

	// Convoy depths (and their exact max) and virtual-ns durations.
	convoy                                telemetry.Histogram
	convoyMax                             int
	inDoubt                               telemetry.Histogram
	phExec, phHold, phHeldWait, phRelease telemetry.Histogram
	committedSteps                        map[core.ObjectID]uint64

	traceHash  uint64
	traceLines int
	trace      []string

	// Span plane (nil unless Config.Spans > 0): spans is clocked off
	// the virtual timeline and derives each transaction's trace context
	// purely from (Seed, txn id) — same seed, bit-identical causal
	// traces.
	spans *telemetry.SpanBuffer
	// blockedAt remembers when a blocked request parked (virtual time)
	// so the grant span can carry the wait as its duration.
	blockedAt map[core.TxnID]float64
}

// NewEngine builds an engine for the configuration.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Log == nil {
		cfg.Log = fault.NewMemLog()
	}
	flog := cfg.Log
	e := &Engine{
		cfg:             cfg,
		src:             workload.Source{Gen: cfg.Workload, MinLen: cfg.MinLength, MaxLen: cfg.MaxLength},
		rng:             rand.New(rand.NewSource(cfg.Seed)),
		flog:            flog,
		procs:           make(map[core.TxnID]*sproc),
		crashFired:      make([]bool, len(cfg.Crashes)),
		coordGate:       len(cfg.CoordCrashes) > 0,
		coordCrashFired: make([]bool, len(cfg.CoordCrashes)),
		committedSteps:  make(map[core.ObjectID]uint64),
		traceHash:       fnvOffset,
	}
	e.co = dist.NewCoordinator(cfg.Sites, flog, cfg.Policy, false)
	if cfg.Spans > 0 {
		e.spans = telemetry.NewSpanBuffer(cfg.Spans, cfg.Seed, 1)
		e.spans.SetClock(func() int64 { return int64(e.tl.Now() * 1e9) })
		e.blockedAt = make(map[core.TxnID]float64)
	}
	opts := core.Options{Predicate: cfg.Predicate, Recovery: core.RecoveryIntentions}
	factory := cfg.Workload.Factory()
	for i := 0; i < cfg.Sites; i++ {
		cr, err := fault.New(opts, flog)
		if err != nil {
			return nil, err
		}
		cr.SetFactory(factory)
		e.sites = append(e.sites, &simSite{
			idx:      i,
			cr:       cr,
			parked:   make(map[core.TxnID]*sproc),
			prepTime: make(map[core.TxnID]float64),
		})
	}
	return e, nil
}

// Site exposes one participant's crash-stop backend (tests and
// conservation checks; call after Run, when every site is up).
func (e *Engine) Site(i int) *fault.Crashable { return e.sites[i].cr }

// route maps an object to its home site (dist.RouteByModulo's rule).
func (e *Engine) route(id core.ObjectID) int {
	return int(uint64(id) % uint64(e.cfg.Sites))
}

// lat draws one message latency.
func (e *Engine) lat() float64 {
	if e.cfg.MsgJitter == 0 {
		return e.cfg.MsgTime
	}
	return e.cfg.MsgTime * (1 + e.cfg.MsgJitter*(2*e.rng.Float64()-1))
}

// think draws a terminal think time.
func (e *Engine) think() float64 {
	if e.cfg.ThinkTime == 0 {
		return e.tl.Now()
	}
	return e.tl.Now() + e.rng.ExpFloat64()*e.cfg.ThinkTime
}

// backoff draws the restart delay for the n-th attempt: doubling from
// RestartDelay, capped at 64x, with a uniform [0.5,1.5) jitter factor
// so deterministic re-collisions don't lockstep.
func (e *Engine) backoff(attempts int) float64 {
	shift := attempts - 1
	if shift > 6 {
		shift = 6
	}
	return e.cfg.RestartDelay * float64(uint(1)<<uint(shift)) * (0.5 + e.rng.Float64())
}

// sendToSite reserves a FIFO delivery slot on the coordinator→site
// channel and returns the arrival time.
func (e *Engine) sendToSite(sid int, delay float64) float64 {
	s := e.sites[sid]
	at := e.tl.Now() + delay
	if at < s.fromCoord {
		at = s.fromCoord
	}
	s.fromCoord = at
	return at
}

// sendFromSite is the site→coordinator direction.
func (e *Engine) sendFromSite(s *simSite, delay float64) float64 {
	at := e.tl.Now() + delay
	if at < s.toCoord {
		at = s.toCoord
	}
	s.toCoord = at
	return at
}

// Run simulates until Warmup+Completions logical transactions have
// really committed, freezes the measurement window there, keeps the
// clock running with terminals stopped until the held set empties (the
// time-to-drain measurement), then restarts any still-down site
// (resolving its in-doubt records) and returns the measurements.
func (e *Engine) Run() (Result, error) {
	target := e.cfg.Warmup + e.cfg.Completions
	if e.cfg.Warmup == 0 {
		e.openWindow()
	}
	for t := 0; t < e.cfg.Terminals; t++ {
		e.tl.Schedule(e.think(), ev{kind: evSubmit, terminal: t})
	}
	guard := e.cfg.maxEvents()
	for steps := 0; e.realCommits < target; steps++ {
		if steps >= guard {
			return Result{}, fmt.Errorf("distsim: event guard tripped after %d events (%d/%d real commits) — likely stall", steps, e.realCommits, target)
		}
		event, ok := e.tl.Next()
		if !ok {
			return Result{}, fmt.Errorf("distsim: event queue drained at %d/%d real commits", e.realCommits, target)
		}
		e.dispatch(event)
	}
	if err := e.drainHeld(guard); err != nil {
		return Result{}, err
	}
	// Bring every site back up so final committed states are fully
	// recovered (redo or presumed abort) before anyone inspects them.
	for _, s := range e.sites {
		if s.down() {
			e.restartSite(s)
		}
	}
	return e.result(), nil
}

// drainHeld is the post-target drain: the measurement window is frozen
// (snapshot counters, suppressed tracing and metric sampling — a
// policy-off run's hash and windowed numbers are bit-identical to a
// run without the drain), terminals stop submitting, and the clock
// runs until every held transaction has released or aborted. The
// elapsed virtual time is TimeToDrain: how long the convoy's promises
// take to honour once load stops — the second axis, besides depth, on
// which a bounded-hold policy beats the baseline.
func (e *Engine) drainHeld(guard int) error {
	e.snapTime = e.tl.Now() - e.windowStart
	e.snapReal = e.realCommits - e.baseReal
	e.snapPseudo = e.pseudoCompl - e.basePseudo
	e.snapAborts = e.aborts - e.baseAborts
	e.snapHeldAbrt = e.heldAborts - e.baseHeldAbrt
	start := e.tl.Now()
	e.draining = true
	for steps := 0; e.co.HeldCount() > 0; steps++ {
		if steps >= guard {
			return fmt.Errorf("distsim: drain guard tripped with %d still held — stall", e.co.HeldCount())
		}
		event, ok := e.tl.Next()
		if !ok {
			return fmt.Errorf("distsim: event queue drained with %d still held — stall", e.co.HeldCount())
		}
		e.dispatch(event)
	}
	e.timeToDrain = e.tl.Now() - start
	e.draining = false
	return nil
}

// observe records the virtual time since `since` into h, in virtual
// nanoseconds, unless the run is past its completion target.
func (e *Engine) observe(h *telemetry.Histogram, since float64) {
	if !e.draining {
		h.Observe(uint64((e.tl.Now() - since) * 1e9))
	}
}

// openWindow starts the measurement window.
func (e *Engine) openWindow() {
	e.inWindow = true
	e.windowStart = e.tl.Now()
	e.baseReal = e.realCommits
	e.basePseudo = e.pseudoCompl
	e.baseAborts = e.aborts
	e.baseHeldAbrt = e.heldAborts
}

// result assembles the Result. The windowed counters were snapshot,
// and the distributions (Held among them) stopped sampling, when the
// completion target was met, so the post-target drain cannot move them.
func (e *Engine) result() Result {
	var st core.Stats
	for _, s := range e.sites {
		st.Add(s.cr.StatsSnapshot())
	}
	convoy := e.convoy.Snapshot()
	r := Result{
		Sites:             e.cfg.Sites,
		SimTime:           e.snapTime,
		RealCommits:       e.snapReal,
		PseudoCompletions: e.snapPseudo,
		Aborts:            e.snapAborts,
		HeldAborts:        e.snapHeldAbrt,
		Held:              int(convoy.Count),
		Crashes:           e.crashes,
		Restarts:          e.restarts,
		Redone:            e.redone,
		PresumedAborted:   e.presumed,
		ConvoyDepth:       convoy,
		ConvoyMax:         e.convoyMax,
		InDoubt:           e.inDoubt.Snapshot(),
		PhaseExec:         e.phExec.Snapshot(),
		PhaseHold:         e.phHold.Snapshot(),
		PhaseHeldWait:     e.phHeldWait.Snapshot(),
		PhaseRelease:      e.phRelease.Snapshot(),
		LogHighWater:      e.logHighWater,
		CommittedSteps:    e.committedSteps,
		TraceHash:         e.traceHash,
		TraceLines:        e.traceLines,
		Trace:             e.trace,
		Stats:             st,
		TailAborts:        e.tailAborts(),
		CoordCrashes:      e.coordCrashes,
		CoordRestarts:     e.coordRestarts,
		CoordAdopted:      e.coordAdopted,
		CoordOrphans:      e.coordOrphans,
		CoordRevoked:      e.coordRevoked,
		HeldWaitP99:       quantile(e.heldWaits, 0.99),
		TimeToDrain:       e.timeToDrain,
		Policy:            policyName(e.cfg.Policy),
	}
	if e.spans != nil {
		r.Spans = e.spans.Snapshot()
		r.Exemplars = e.spans.Exemplars()
	}
	return r
}

// quantile returns the nearest-rank q-quantile of xs, the ⌈q·n⌉-th
// smallest sample (0 when empty). It sorts xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[min(max(int(math.Ceil(q*float64(len(xs))))-1, 0), len(xs)-1)]
}

// tailAborts sums the shed holds over every coordinator incarnation
// of the run.
func (e *Engine) tailAborts() int {
	return e.deadShed + e.co.PolicyStats().TailAborts
}

// policyName renders the policy for Result ("" = off).
func policyName(p dist.HoldPolicy) string {
	if p == nil {
		return ""
	}
	return p.Name()
}

// stale reports whether the event's attempt has died (aborted and
// resubmitted, or completed) since the message was sent.
func stale(event ev) bool {
	return event.p == nil || event.p.txn != event.txn || event.txn == 0
}

// dispatch routes one event.
func (e *Engine) dispatch(event ev) {
	if e.coordDown {
		switch event.kind {
		case evCoordRestart:
			e.coordRestart()
			return
		case evOpDone, evObserve, evReply:
			// Site→coordinator messages die at the dead coordinator.
			// (Most belong to attempts orphaned at crash time anyway;
			// the commit and release replies of adopted conversations
			// are the load-bearing drops.)
			return
		case evSubmit, evResubmit:
			// Terminals are co-located with the coordinator: new work
			// waits for the replacement. A deferral, not an abort.
			if !e.draining {
				e.tl.Schedule(e.coordRestartAt+e.lat(), event)
			}
			return
		case evRestart:
			// Site recovery reconciles against the coordinator's
			// decision log; defer until the replacement is up.
			e.tl.Schedule(e.coordRestartAt+e.lat(), event)
			return
		}
		// Coordinator→site messages already in flight are delivered.
	}
	switch event.kind {
	case evSubmit:
		// Terminals stop at the completion target: the drain phase
		// measures how the existing convoy resolves, not new load.
		if !e.draining {
			e.submit(event.terminal)
		}
	case evResubmit:
		if !e.draining && event.p.state == spWaitRetry {
			e.startAttempt(event.p)
		}
	case evReqArrive:
		if !stale(event) {
			e.reqArrive(event.p, event.site)
		}
	case evOpDone:
		if !stale(event) && event.p.state == spActive {
			e.issue(event.p)
		}
	case evObserve:
		e.observeArrive(event)
	case evArrive:
		if !stale(event) {
			e.perform(event.p, event.act)
		}
	case evReply:
		if !stale(event) && !event.p.adopted {
			e.run(event.p, event.in)
		}
	case evRestart:
		s := e.sites[event.site]
		if s.down() {
			e.restartSite(s)
		}
	case evCoordRestart:
		// Already restarted (handled in the coordDown branch).
	}
}

// submit draws a fresh logical transaction for the terminal.
func (e *Engine) submit(terminal int) {
	p := &sproc{
		terminal:  terminal,
		steps:     e.src.Draw(e.rng),
		submitted: e.tl.Now(),
	}
	e.startAttempt(p)
}

// startAttempt begins one attempt of the logical transaction under a
// fresh txn id.
func (e *Engine) startAttempt(p *sproc) {
	e.nextTxn++
	p.txn = e.nextTxn
	p.cv = dist.NewConv(p.txn, p)
	p.idx = 0
	p.anyEdges = false
	p.adopted = false
	p.state = spActive
	p.attemptStart = e.tl.Now()
	e.procs[p.txn] = p
	e.co.Enlist(p.cv)
	e.tracef("submit T%d term=%d len=%d attempt=%d", p.txn, p.terminal, len(p.steps), p.attempts)
	e.span(telemetry.SpanBegin, p.txn, -1, 0, 0, 0)
	e.issue(p)
}

// issue sends the transaction's next operation to its home site, or
// starts the commit conversation when none remain.
func (e *Engine) issue(p *sproc) {
	if p.idx >= len(p.steps) {
		e.startCommit(p)
		return
	}
	sid := e.route(p.steps[p.idx].Object)
	at := e.sendToSite(sid, e.lat())
	e.tl.Schedule(at, ev{kind: evReqArrive, p: p, txn: p.txn, site: sid})
}

// reqArrive processes an operation request at its home site.
func (e *Engine) reqArrive(p *sproc, sid int) {
	s := e.sites[sid]
	if s.down() {
		e.tracef("req T%d site=%d -> site down", p.txn, sid)
		e.abortAttempt(p, core.ReasonSiteFailed, -1)
		return
	}
	step := p.steps[p.idx]
	if !p.cv.VisitedHas(dist.SiteID(sid)) {
		if err := s.cr.Begin(p.txn); err != nil {
			panic(fmt.Sprintf("distsim: Begin T%d at site %d: %v", p.txn, sid, err))
		}
		p.cv.Visit(dist.SiteID(sid))
	}
	var eff core.Effects
	dec, err := s.cr.RequestInto(&eff, p.txn, step.Object, step.Op)
	if err != nil {
		panic(fmt.Sprintf("distsim: Request T%d obj %d at site %d: %v", p.txn, step.Object, sid, err))
	}
	switch dec.Outcome {
	case core.Executed:
		p.idx++
		e.tracef("req T%d site=%d obj=%d op=%s -> executed", p.txn, sid, step.Object, step.Op.Name)
		e.span(telemetry.SpanRequest, p.txn, sid, int64(step.Object), 0, 0)
		e.afterExec(p, s)
	case core.Blocked:
		p.state = spBlocked
		p.blockedSite = sid
		s.parked[p.txn] = p
		e.tracef("req T%d site=%d obj=%d op=%s -> blocked", p.txn, sid, step.Object, step.Op.Name)
		if e.spans != nil {
			e.span(telemetry.SpanBlock, p.txn, sid, int64(step.Object), 0, 0)
			e.blockedAt[p.txn] = e.tl.Now()
		}
		e.scheduleObserve(p, s)
	case core.Aborted:
		e.tracef("req T%d site=%d obj=%d -> aborted (%s)", p.txn, sid, step.Object, dec.Reason)
		e.abortAttempt(p, dec.Reason, sid)
	}
	e.processEffects(s, &eff)
}

// afterExec handles a freshly executed operation: report edges to the
// coordinator if the transaction has any, and send the reply that lets
// the terminal issue the next step.
func (e *Engine) afterExec(p *sproc, s *simSite) {
	e.scheduleObserve(p, s)
	at := e.sendFromSite(s, e.cfg.SiteTime+e.lat())
	e.tl.Schedule(at, ev{kind: evOpDone, p: p, txn: p.txn})
}

// scheduleObserve captures the transaction's current out-edges at the
// site and sends them to the coordinator's mirror. Transactions that
// never had an edge skip the report entirely (the fast path that keeps
// partitioned traffic off the coordinator).
func (e *Engine) scheduleObserve(p *sproc, s *simSite) {
	edges := s.cr.OutEdgesAppend(p.txn, nil)
	if len(edges) > 0 {
		p.anyEdges = true
	}
	if !p.anyEdges {
		return
	}
	at := e.sendFromSite(s, e.lat())
	e.tl.Schedule(at, ev{kind: evObserve, p: p, txn: p.txn, site: s.idx, edges: edges})
}

// observeArrive ingests an edge report at the coordinator and runs the
// union-graph cycle check — the §6 detection of cross-site deadlocks
// and commit-dependency cycles.
func (e *Engine) observeArrive(event ev) {
	if stale(event) {
		return
	}
	p := event.p
	if p.state != spActive && p.state != spBlocked {
		// The attempt entered its commit conversation; the hold phase
		// re-exports every site's edges itself.
		return
	}
	if e.co.Observe(dist.SiteID(event.site), event.txn, event.edges) {
		reason := core.ReasonCommitCycle
		if p.state == spBlocked {
			reason = core.ReasonDeadlock
		}
		e.tracef("cycle T%d (%s)", p.txn, reason)
		e.abortAttempt(p, reason, -1)
	}
}

// processEffects folds one scheduler call's downstream effects into
// the model: grants resume blocked transactions (with a service+reply
// latency), retry aborts unwind them, and — because queue movement can
// re-block parked transactions behind different holders — every
// transaction still parked at the site re-reports its edges, the
// simulator's refreshParked.
func (e *Engine) processEffects(s *simSite, eff *core.Effects) {
	if eff.Empty() {
		return
	}
	for i := range eff.Grants {
		g := &eff.Grants[i]
		q := e.procs[g.Txn]
		if q == nil || q.state != spBlocked || q.blockedSite != s.idx {
			continue
		}
		delete(s.parked, q.txn)
		q.state = spActive
		q.idx++
		e.tracef("grant T%d site=%d obj=%d", q.txn, s.idx, g.Object)
		if e.spans != nil {
			var blockDur int64
			if t0, ok := e.blockedAt[q.txn]; ok {
				blockDur = int64((e.tl.Now() - t0) * 1e9)
				delete(e.blockedAt, q.txn)
			}
			e.span(telemetry.SpanGrant, q.txn, s.idx, int64(g.Object), 0, blockDur)
		}
		e.afterExec(q, s)
	}
	var retries []core.RetryAbort
	if len(eff.RetryAborts) > 0 {
		retries = append(retries, eff.RetryAborts...)
	}
	for _, id := range eff.Committed {
		// Sites under a coordinator never cascade real commits on
		// their own (holds are excluded); surface it if one appears.
		e.tracef("unexpected site-local commit T%d at site %d", id, s.idx)
	}
	for _, ra := range retries {
		q := e.procs[ra.Txn]
		if q == nil || q.state != spBlocked {
			continue
		}
		delete(s.parked, q.txn)
		e.tracef("retry-abort T%d site=%d (%s)", q.txn, s.idx, ra.Reason)
		e.abortAttempt(q, ra.Reason, s.idx)
	}
	e.refreshParked(s)
}

// refreshParked re-reports the edges of every transaction still parked
// at the site, in ascending id order.
func (e *Engine) refreshParked(s *simSite) {
	if len(s.parked) == 0 {
		return
	}
	ids := make([]core.TxnID, 0, len(s.parked))
	for id := range s.parked {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if q, ok := s.parked[id]; ok && q.txn == id {
			e.scheduleObserve(q, s)
		}
	}
}

// abortAttempt is the request path's abort — skipSite's own scheduler
// already carried it out there, or no site has (-1): the script unwinds
// the attempt everywhere, and its retire resubmits the logical
// transaction after a backoff.
func (e *Engine) abortAttempt(p *sproc, reason core.AbortReason, skipSite int) {
	e.unpark(p)
	e.run(p, dist.Input{Kind: dist.InAbort, Site: dist.SiteID(skipSite), Reason: reason})
}

// unpark takes a dying attempt out of the parked set of the site it is
// blocked at, if any, so no site retry re-reports its edges.
func (e *Engine) unpark(p *sproc) {
	if p.state == spBlocked {
		delete(e.sites[p.blockedSite].parked, p.txn)
	}
}

// retire ends the current attempt — landed, or (failed) aborted, shed,
// revoked or orphaned — and tells the coordinator it terminated
// globally: it leaves the registry and, if it had union-graph state,
// the mirror, and the held transactions whose dependency sets drained
// as a result — decided and logged by Drain, in release order — start
// releasing. A failed attempt's logical transaction then resubmits
// under a fresh id after a backoff.
func (e *Engine) retire(p *sproc, failed bool) {
	id := p.txn
	p.txn = 0
	if failed {
		p.state = spWaitRetry
		p.attempts++
		e.co.AckDecision(id) // the terminal knows the attempt died: drop its gate
	}
	delete(e.procs, id)
	if e.co.Retire(id) {
		ready := e.co.Drain([]core.TxnID{id})
		e.noteLog()
		for _, cv := range ready {
			e.run(cv.Owner.(*sproc), dist.Input{Kind: dist.InReady})
		}
	}
	switch {
	case failed:
		e.tl.Schedule(e.tl.Now()+e.backoff(p.attempts), ev{kind: evResubmit, p: p})
	case !e.inWindow && e.realCommits >= e.cfg.Warmup:
		e.openWindow()
	}
}

// noteLog samples the decision log's live size after a force.
func (e *Engine) noteLog() {
	if n := e.flog.Len(); !e.draining && n > e.logHighWater {
		e.logHighWater = n
	}
}
