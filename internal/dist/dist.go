// Package dist implements the paper's §6 extension to distributed
// objects: the database is partitioned across sites, each site runs an
// independent semantics-based scheduler (any core.Participant), and a
// coordinator mirrors the commit-dependency and wait-for edges every
// site reports into a union graph (a depgraph.Graph whose edges carry
// the reporting site, the same type each site's scheduler keeps for
// its own objects). Cycle detection
// over the union catches cross-site deadlocks and commit-dependency
// cycles that no single site can see.
//
// Commit is the paper's commit conversation: the coordinator
// pseudo-commits-and-holds the transaction at every participant it
// visited (core.Participant.CommitHoldInto), then releases the real
// commit everywhere once the transaction's global dependency set — its
// out-degree in the mirrored union graph — drains to zero. Until then
// the transaction is complete from the caller's perspective
// (PseudoCommitted) and its operations remain visible to, and gate,
// later transactions at each site.
//
// The same machinery doubles as a shared-memory sharding layer: New(n,
// ...) with in-process sites gives n independently locked schedulers,
// so transactions over objects at different sites proceed in parallel
// instead of serialising on one scheduler mutex. Independent
// transactions never touch the coordinator (no dependency edges, no
// mirror traffic), which is what makes the sharded path scale.
//
// Cluster implements core.Store and its transactions core.Txn, so
// client code written against the Store interface runs unchanged on a
// single-scheduler DB or on a cluster; each site routes its scheduler
// effects to parked goroutines through the same delivery layer
// (internal/delivery) the local front end uses.
package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/delivery"
	"repro/internal/depgraph"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// SiteBackend is what a cluster needs from a site beyond the
// Participant protocol: registration-time setup and the inspection
// surface tests and tools use. *core.Scheduler (what a site daemon
// serves) and *fault.Crashable (a crash-stop site) implement it; a
// cluster's sites are crash-stop, so it also needs CrashRestarter.
type SiteBackend interface {
	core.Participant
	Register(id core.ObjectID, typ adt.Type, class compat.Classifier) error
	SetFactory(f func(core.ObjectID) (adt.Type, compat.Classifier))
	StatsSnapshot() core.Stats
	ObjectState(id core.ObjectID) (adt.State, error)
	CommittedState(id core.ObjectID) (adt.State, error)
	TxnState(id core.TxnID) string
}

var (
	_ SiteBackend = (*core.Scheduler)(nil)
	_ SiteBackend = (*fault.Crashable)(nil)
)

// CrashRestarter is the crash-stop surface a cluster's site has beyond
// SiteBackend: fault.Crashable implements it with a simulated disk,
// and a network backend (wire.RemoteSite) implements it as connection
// loss plus reconnect-time reconciliation. A cluster requires its
// backends to provide it; Crash/Restart drive it under the site mutex.
type CrashRestarter interface {
	// Crash fails the site: volatile state is gone, subsequent calls
	// answer fault.ErrSiteDown until Restart.
	Crash() error
	// Restart brings the site back and resolves its in-doubt prepared
	// records against the decision log: logged commits are redone
	// (reported in Redone — the cluster acks their release), the rest
	// presumed aborted.
	Restart() (fault.RecoveryReport, error)
	// Down reports whether the site is currently failed.
	Down() bool
}

var _ CrashRestarter = (*fault.Crashable)(nil)

// crashStop is a cluster site's backend: a participant that can crash
// and restart.
type crashStop interface {
	SiteBackend
	CrashRestarter
}

// SiteID identifies one participant site, 0..NumSites-1.
type SiteID int

// Router maps an object to the site that owns it. Routers must be
// deterministic and total over the object-id space.
type Router func(core.ObjectID) SiteID

// RouteByModulo partitions objects across n sites by id modulo n — the
// uniform partitioning the paper's simulation model assumes.
func RouteByModulo(n int) Router {
	return func(id core.ObjectID) SiteID { return SiteID(uint64(id) % uint64(n)) }
}

// Errors.
var (
	// ErrBadSites is returned by New for a non-positive site count.
	ErrBadSites = errors.New("dist: cluster needs at least one site")
	// ErrTxnDone is returned for operations on a transaction that has
	// already entered commit. It aliases core.ErrTxnDone, so one
	// errors.Is target covers both back ends.
	ErrTxnDone = core.ErrTxnDone
)

// site is one participant plus the delivery plumbing for its blocked
// requests. Each site has its own mutex: operations against different
// sites never contend, which is the whole point of sharding. The hub —
// the shared Effects→parked-goroutine routing layer — replaces the
// per-front-end waiter maps both this package and core.DB used to
// carry; a transaction blocks at no more than one site at a time (Do is
// synchronous per handle).
type site struct {
	id  SiteID
	mu  sync.Mutex
	p   crashStop
	hub *delivery.Hub
	// txns registers every live transaction that has begun at this
	// site, guarded by mu. The crash handler uses it to find the
	// transactions a site failure dooms; entries leave when the
	// transaction's conversation is done with the site.
	txns map[core.TxnID]*Txn
	// edgeBuf is the reusable OutEdgesAppend scratch for this site's
	// mirror exports. Guarded by mu, like every export-and-observe
	// pair.
	edgeBuf []depgraph.Edge
}

// edges exports id's current out-edges into the site's reusable
// buffer. Caller holds s.mu; the result is valid until the next edges
// call on this site, which every consumer (observe, refreshParked, a
// hold's reply) satisfies by finishing with the slice before releasing
// the mutex.
func (s *site) edges(id core.TxnID) []depgraph.Edge {
	s.edgeBuf = s.p.OutEdgesAppend(id, s.edgeBuf)
	return s.edgeBuf
}

// Cluster is a set of participant sites under one commit coordinator.
// It is safe for concurrent use; each transaction handle must be
// driven by one goroutine at a time. Cluster implements core.Store.
type Cluster struct {
	route Router
	hook  StepHook
	sites []*site

	// Coordinator is the decision half of the commit conversation —
	// registry, union graph, decision rounds, release drains, the
	// decision-log ack table. The Cluster is its wall-clock driver:
	// everything below is IO (site mutexes, fan-outs, goroutine
	// hand-offs, hooks, spans). Lock order: site.mu -> Coordinator's
	// domains, and closeMu alone. pipe.mu is never held across
	// another lock.
	Coordinator

	nextID atomic.Uint64

	// closed gates Begin and Register; atomic so neither takes a lock.
	closed atomic.Bool

	// pipe combines concurrent decision rounds into DecideWave calls.
	pipe pipeline

	// closeMu guards drain: when non-nil, closed once the registry
	// empties after Close — the CloseCtx waiters' signal.
	closeMu sync.Mutex
	drain   chan struct{}

	// Span plane (both nil unless configured; every method is
	// nil-safe): spans, the hosting process's, mints deterministic
	// per-transaction trace contexts at Begin and is its one event
	// ring — every conversation step, crash and restart — plus the
	// tail-latency exemplar store; flight is the crash black box that
	// dumps it.
	spans  *telemetry.SpanBuffer
	flight *telemetry.FlightRecorder
}

// Cluster is the distributed core.Store.
var (
	_ core.Store = (*Cluster)(nil)
	_ core.Txn   = (*Txn)(nil)
)

// Config parameterises NewWithConfig, the constructor that covers
// what New cannot express: a durable decision log, remote backends,
// hold policies and tracing.
type Config struct {
	// Sites is the number of participant sites (required, positive).
	Sites int
	// Opts configures every site's scheduler; Opts.Debug also arms the
	// coordinator's ack-table invariant.
	Opts core.Options
	// Route decides object placement (nil means RouteByModulo(Sites)).
	Route Router
	// FaultTolerant is ignored.
	//
	// Deprecated: every cluster is crash-stop.
	FaultTolerant bool
	// Log is the coordinator's decision log; nil means a fresh
	// fault.NewMemLog().
	Log fault.Log
	// StepHook, when non-nil, is fired at every named protocol-step
	// boundary of commit conversations (see StepHook); nil is the
	// zero-overhead passthrough.
	StepHook StepHook
	// Policy bounds the hold convoy (see HoldPolicy). Nil installs
	// DefaultPolicy(); Unbounded{} is the paper's unbounded hold
	// behaviour. Policies are stateless, so one value can configure
	// many clusters.
	Policy HoldPolicy
	// Backends, when non-nil, supplies the participant sites instead of
	// the cluster constructing in-process schedulers (len must equal
	// Sites; Opts is then unused). This is how a coordinator runs over
	// remote participants: wire.RemoteSite implements SiteBackend over a
	// TCP connection. Each backend must also implement CrashRestarter.
	Backends []SiteBackend
	// Spans, when non-nil, enables causal tracing: it mints every
	// transaction a deterministic trace context at Begin, and sampled
	// conversations record span records (begin/hold/decide/release/...)
	// into it, exportable as a Chrome trace and stitched cluster-wide
	// by sccctl; site crashes and restarts land there too, sampled or
	// not. Nil disables the span plane entirely — the zero-overhead
	// default.
	Spans *telemetry.SpanBuffer
	// Flight, when non-nil, is the process's flight recorder over
	// Spans: a dump (SIGQUIT, panic, invariant violation) carries the
	// full black box.
	Flight *telemetry.FlightRecorder
}

// New builds a cluster of n in-process sites, each running its own
// scheduler with the given options. route decides object placement
// (nil means RouteByModulo(n)). Sites are crash-stop: each is a
// fault.Crashable over the coordinator's in-memory decision log, so
// Crash and Restart work on every cluster (see DESIGN.md, "Failure
// model").
func New(n int, opts core.Options, route Router) (*Cluster, error) {
	return NewWithConfig(Config{Sites: n, Opts: opts, Route: route})
}

// NewWithConfig builds a cluster from a Config; see New for the common
// case.
func NewWithConfig(cfg Config) (*Cluster, error) {
	if cfg.Sites <= 0 {
		return nil, ErrBadSites
	}
	route := cfg.Route
	if route == nil {
		route = RouteByModulo(cfg.Sites)
	}
	c := &Cluster{
		route:  route,
		hook:   cfg.StepHook,
		spans:  cfg.Spans,
		flight: cfg.Flight,
	}
	if cfg.Log == nil {
		cfg.Log = fault.NewMemLog()
	}
	policy := cfg.Policy
	if policy == nil {
		policy = DefaultPolicy()
	}
	c.Coordinator.init(cfg.Sites, cfg.Log, policy, cfg.Opts.Debug)
	if cfg.Backends != nil && len(cfg.Backends) != cfg.Sites {
		return nil, fmt.Errorf("dist: %d backends for %d sites", len(cfg.Backends), cfg.Sites)
	}
	for i := 0; i < cfg.Sites; i++ {
		s := &site{
			id:   SiteID(i),
			hub:  delivery.NewHub(),
			txns: make(map[core.TxnID]*Txn),
		}
		if cfg.Backends == nil {
			cr, err := fault.New(cfg.Opts, cfg.Log)
			if err != nil {
				return nil, err
			}
			s.p = cr
		} else if p, ok := cfg.Backends[i].(crashStop); ok {
			s.p = p
		} else {
			return nil, fmt.Errorf("dist: backend %d (%T) must implement CrashRestarter", i, cfg.Backends[i])
		}
		c.sites = append(c.sites, s)
	}
	if c.spans != nil {
		// Remote backends propagate the per-transaction context in their
		// frame headers so site daemons stitch into the same trace.
		for _, s := range c.sites {
			if tl, ok := s.p.(interface {
				SetTraceLookup(func(core.TxnID) telemetry.TraceContext)
			}); ok {
				tl.SetTraceLookup(c.TraceContextOf)
			}
		}
	}
	return c, nil
}

// TraceContextOf resolves a transaction's trace context: the live
// registry entry when the transaction is in flight, else re-derived
// from the span buffer's deterministic sampler (redo of an
// already-unregistered transaction after a restart). Zero when the span
// plane is off.
func (c *Cluster) TraceContextOf(id core.TxnID) telemetry.TraceContext {
	if c.spans == nil {
		return telemetry.TraceContext{}
	}
	if cv := c.Live(id); cv != nil {
		return cv.Owner.(*Txn).Trace()
	}
	return c.spans.Context(uint64(id))
}

// Spans returns the cluster's span buffer (nil unless configured).
func (c *Cluster) Spans() *telemetry.SpanBuffer { return c.spans }

// Flight returns the cluster's flight recorder (nil unless configured).
func (c *Cluster) Flight() *telemetry.FlightRecorder { return c.flight }

// NumSites returns the number of participant sites.
func (c *Cluster) NumSites() int { return len(c.sites) }

// Site exposes one site's backend for registration-time setup and
// state inspection (object states are site-local; route objects with
// the cluster's router).
func (c *Cluster) Site(id SiteID) SiteBackend { return c.sites[id].p }

// SiteOf returns the site that owns the object.
func (c *Cluster) SiteOf(id core.ObjectID) SiteID { return c.route(id) }

// Register creates the object eagerly at its home site. It fails with
// ErrClosed on a closed cluster.
func (c *Cluster) Register(id core.ObjectID, typ adt.Type, class compat.Classifier) error {
	if c.closed.Load() {
		return core.ErrClosed
	}
	return c.sites[c.route(id)].p.Register(id, typ, class)
}

// SetFactory installs a lazy object constructor at every site. Routing
// guarantees an object only ever materialises at its home site.
func (c *Cluster) SetFactory(f func(core.ObjectID) (adt.Type, compat.Classifier)) {
	for _, s := range c.sites {
		s.p.SetFactory(f)
	}
}

// Begin starts a distributed transaction. The coordinator assigns the
// id; sites learn about the transaction lazily on first touch. On a
// closed cluster it returns a transaction failing with ErrClosed.
//
// Begin touches only the transaction's registry shard — no global
// coordinator lock — so concurrent Begins on independent transactions
// scale with cores.
func (c *Cluster) Begin() core.Txn {
	if c.closed.Load() {
		return core.ClosedTxn(core.ErrClosed)
	}
	t := &Txn{
		Conv: Conv{id: core.TxnID(c.nextID.Add(1))},
		c:    c,
		done: make(chan struct{}),
	}
	t.Owner = t
	if c.spans != nil {
		t.tc = c.spans.Context(uint64(t.id))
		t.begin = time.Now()
		c.spans.Record(t.tc, telemetry.SpanBegin, uint64(t.id), -1, 0, 0, 0)
	}
	c.Enlist(&t.Conv)
	if c.closed.Load() {
		// Close raced the registration: withdraw so the draining close
		// does not wait on a transaction that never ran.
		c.Retire(t.id)
		c.maybeDrained()
		return core.ClosedTxn(core.ErrClosed)
	}
	return t
}

// Run executes fn inside a transaction with automatic retry of
// retryable aborts; see core.RunStore.
func (c *Cluster) Run(ctx context.Context, fn func(core.Txn) error) error {
	return core.RunStore(ctx, c, fn)
}

// Close marks the cluster closed: Begin afterwards returns a
// transaction failing with ErrClosed, and Register fails. Transactions
// already begun — including held pseudo-commits awaiting release — are
// unaffected and run to completion. Idempotent.
func (c *Cluster) Close() error {
	c.closed.Store(true)
	return nil
}

// CloseCtx is the draining close: it gates the cluster like Close,
// then waits until every transaction in flight at close time —
// including held pseudo-commits awaiting release — has reached its
// terminal state. A cancelled ctx stops the wait and returns ctx.Err()
// with the gate left in place (force-gate); the in-flight transactions
// still run to completion on their own.
func (c *Cluster) CloseCtx(ctx context.Context) error {
	c.closed.Store(true)
	c.closeMu.Lock()
	if c.reg.count() == 0 {
		c.closeMu.Unlock()
		return nil
	}
	if c.drain == nil {
		c.drain = make(chan struct{})
	}
	drained := c.drain
	c.closeMu.Unlock()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// maybeDrained closes the drain channel if a CloseCtx is waiting and
// the registry has emptied. Callers invoke it after unregistering a
// transaction, outside every other lock; the re-check under closeMu
// pairs with CloseCtx's count-then-wait so the signal cannot be lost.
func (c *Cluster) maybeDrained() {
	if !c.closed.Load() || c.reg.count() != 0 {
		return
	}
	c.closeMu.Lock()
	if c.drain != nil && c.reg.count() == 0 {
		close(c.drain)
		c.drain = nil
	}
	c.closeMu.Unlock()
}

// Stats sums every site's scheduler counters. Each site's snapshot is
// internally consistent (taken under that scheduler's lock), but the
// sum is fuzzy across sites: concurrent transactions may land between
// snapshots. Counters are per-site event counts, so a transaction
// touching k sites contributes k to Commits (its real commit lands at
// each visited participant), k to PseudoCommits when held, and its
// aborts count once per site that undoes it; Executes/Blocks/Grants
// and the edge counters are naturally per-site. Use SiteStats for one
// site's exact view.
func (c *Cluster) Stats() core.Stats {
	var sum core.Stats
	for _, s := range c.sites {
		sum.Add(s.p.StatsSnapshot())
	}
	return sum
}

// SiteStats returns one site's counters, snapshot under that
// scheduler's lock (exact, unlike the cluster-wide sum).
func (c *Cluster) SiteStats(id SiteID) core.Stats {
	return c.sites[id].p.StatsSnapshot()
}

// ackRelease is Coordinator.Ack plus the black-box check on decision
// conservation.
func (c *Cluster) ackRelease(id core.TxnID, sid SiteID) {
	if c.Ack(id, sid) {
		c.checkConservation(id, sid)
	}
}

// checkConservation runs after an ack resolved a decision: every
// resolved decision was first logged by this coordinator or adopted
// from the log. More resolutions than that budget means release
// accounting double-counted — record the excess and dump the flight
// recorder while the evidence is still in the span ring. Resolved is
// loaded first, so a concurrent log-then-resolve cannot read as an
// excess.
func (c *Cluster) checkConservation(id core.TxnID, sid SiteID) {
	if c.flight == nil {
		return
	}
	if r, b := c.tel.DecisionsResolved.Load(), c.tel.DecisionsLogged.Load()+c.tel.DecisionsAdopted.Load(); r > b {
		c.spans.RecordSite(telemetry.SpanViolation, uint64(id), int32(sid), int64(r-b))
		_, _ = c.flight.DumpOnce("conservation-violation")
	}
}

// observe mirrors t's current out-edges at site sid into the union
// graph and reports whether that closed a global cycle through t.
//
// Every export-plus-Observe pair runs under s.mu, here and in
// refreshParked — the per-(site, transaction) report order
// Coordinator.Observe requires — giving the lock order site.mu ->
// Coordinator.mu (never the reverse).
func (c *Cluster) observe(t *Txn, sid SiteID) bool {
	s := c.sites[sid]
	s.mu.Lock()
	defer s.mu.Unlock()
	edges := s.edges(t.id)
	if len(edges) == 0 && !t.anyEdges.Load() {
		return false // fast path: no coordinator involvement
	}
	return c.Observe(sid, t.id, edges)
}

// unobserve re-mirrors t's remaining out-edges at site sid after a
// withdrawal shed its wait-for edges, so the union graph cannot hold a
// stale wait-for edge that would close a phantom cycle (removing edges
// cannot create one, so the verdict is ignored).
func (c *Cluster) unobserve(t *Txn, sid SiteID) {
	s := c.sites[sid]
	s.mu.Lock()
	if t.anyEdges.Load() {
		c.Observe(sid, t.id, s.edges(t.id))
	}
	s.mu.Unlock()
}

// refreshParked re-mirrors the out-edges of every transaction still
// parked at the site. A site-level retry (inside some other call's
// settle) can shed a parked transaction's wait-for edges and re-block
// it behind different holders while its owner goroutine sleeps —
// under unfair scheduling even behind holders it had no edge to when
// it parked. The owner cannot re-observe until it wakes, so whoever
// ran the site operation refreshes on its behalf; otherwise a
// cross-site deadlock through a re-blocked edge would be invisible
// to the union graph forever.
//
// Only transactions still parked (present in the site's hub, checked
// under s.mu) are touched: once granted, the owner's own observe is the
// single writer for the pair, and the s.mu serialisation above keeps
// the two from interleaving stale reads with fresh writes.
//
// A re-mirrored edge can itself close a cross-site cycle between
// transactions that are ALL parked — then no owner's observe will
// ever run the check, so refreshParked must: on a cycle through a
// parked transaction it aborts it at this site and wakes its owner
// with the deadlock verdict (the owner propagates the abort to its
// other sites). Aborting can reshuffle the remaining parked queue, so
// the scan restarts until a pass is quiet.
func (c *Cluster) refreshParked(s *site) {
	for {
		s.mu.Lock()
		// A per-call snapshot: the buffer escapes the site lock, so it
		// cannot be site-owned scratch (concurrent refreshers would
		// race); an empty hub — the fast path — allocates nothing.
		ids := s.hub.AppendIDs(make([]core.TxnID, 0, s.hub.Len()))
		s.mu.Unlock()
		aborted := false
		for _, id := range ids {
			s.mu.Lock()
			if !s.hub.Parked(id) {
				s.mu.Unlock()
				continue // granted or aborted meanwhile; its owner observes
			}
			if c.Observe(s.id, id, s.edges(id)) {
				// Local abort + wake the owner; it runs the global
				// abort when it receives the message.
				eff := s.hub.Effects()
				if err := s.p.AbortInto(eff, id); err == nil {
					s.hub.Deliver(eff)
				}
				s.hub.Fail(id, core.ReasonDeadlock)
				aborted = true
			}
			s.mu.Unlock()
		}
		if !aborted {
			return
		}
	}
}

// run feeds one input to t's conversation and carries out what the
// script (Coordinator.Step) answers — t's own actions, then the release
// cascade its termination sets off. It returns t's outcome (the
// ActFinished it reached) and any participant refusal no crash explains.
func (c *Cluster) run(t *Txn, in Input) (Action, error) {
	var drain []core.TxnID
	fin, bug := c.exec(t, in, &drain)
	c.cascade(drain)
	return fin, bug
}

// exec is the action executor, the one loop every commit conversation
// runs through: fire the action's before-boundary, carry it out (a site
// call under site.mu, the decide pipeline, or local bookkeeping),
// record its span, fire its after-boundary. Replies go straight back
// into Step, which appends what follows to the same stack buffer. A
// transaction retired with union-graph state is appended to drain for
// the caller's cascade.
func (c *Cluster) exec(t *Txn, in Input, drain *[]core.TxnID) (fin Action, bug error) {
	var (
		buf   [8]Action
		phase time.Time // start of the hold phase, then of the release phase it led to
	)
	acts := c.Step(&t.Conv, in, buf[:0])
	for i := 0; i < len(acts); i++ {
		act := acts[i]
		if i == len(acts)-1 {
			acts, i = acts[:0], -1 // nothing else pending: reuse the buffer
		}
		c.step(act.Before, t.id, act.Site)
		took, dur := true, time.Duration(0) // a sampled span's Dur: the site call, or commit → decision
		if act.Kind.AtSite() {
			if act.Kind == ActHold && phase.IsZero() {
				phase = time.Now()
				t.commit = phase
			}
			acts, dur, took = c.atSite(t, act, acts, &bug)
		} else if t.tc.Sampled() {
			dur = time.Since(t.commit)
		}
		if took && t.tc.Sampled() {
			act.RecordSpan(c.spans, t.tc, &t.Conv, int64(dur))
		}
		switch act.Kind {
		case ActDecide:
			// One coordinator critical section decides this conversation
			// and every concurrent one queued in the same wave, their
			// commit decisions forced to the log as one group.
			start := time.Now()
			c.tel.HoldNanos.Observe(uint64(start.Sub(phase)))
			c.decide(&t.req)
			c.tel.DecideNanos.Observe(uint64(time.Since(start)))
			acts = c.Step(&t.Conv, Input{Kind: InVerdict}, acts)
		case ActDecided:
			if !phase.IsZero() {
				phase = time.Now()
			}
		case ActFinished:
			// A held finish (pseudo-committed) ends nothing yet: its
			// release finishes it again, committed.
			switch fin = act; {
			case act.Reason != core.ReasonNone:
				c.finish(t, act.Reason)
			case act.Status != core.PseudoCommitted:
				if !phase.IsZero() {
					c.tel.ReleaseNanos.Observe(uint64(time.Since(phase)))
				}
				c.finish(t, core.ReasonNone)
			}
		case ActRetire:
			if c.Retire(t.id) {
				*drain = append(*drain, t.id)
			}
			c.maybeDrained()
		}
		c.step(act.After, t.id, act.Site)
	}
	return fin, bug
}

// atSite carries out a site verb (Action.At) in one critical section of
// the participant's mutex, delivers the grants it unblocked to parked
// calls, and — the synchronous call being message and reply in one —
// consumes the reply inside it, where a hold's export can be read
// straight out of the site's reusable edge buffer. A release refused
// down or gone is skipped (the restart that redoes the logged commit
// acks and traces it), a violation panics; a refused hold or direct
// commit is a failed reply, a violation there stored for the caller.
// It reports how long the critical section took (for a sampled t; the
// acks and parked-queue refresh after it are not counted) and whether
// the participant accepted the verb.
func (c *Cluster) atSite(t *Txn, act Action, acts []Action, bug *error) ([]Action, time.Duration, bool) {
	s := c.sites[act.Site]
	var start time.Time
	if t.tc.Sampled() {
		start = time.Now()
	}
	s.mu.Lock()
	if act.Kind == ActRevoke || act.Kind == ActAbort {
		s.hub.Withdraw(t.id) // the request t may be parked on goes with it
	}
	if act.Kind != ActHold {
		delete(s.txns, t.id)
	}
	eff := s.hub.Effects()
	in, err := act.At(s.p, eff, t.id)
	switch {
	case err == nil:
		s.hub.Deliver(eff)
		if act.Kind == ActHold {
			in.Edges = s.edges(t.id)
		}
	case Classify(err) != VerbViolation:
		// Down or gone: a failed reply, or a release the restart redoes.
	case act.Kind == ActRelease:
		// The coordinator's dependency accounting is wrong — surface
		// loudly.
		s.mu.Unlock()
		panic(fmt.Sprintf("dist: release of T%d at site %d: %v", t.id, act.Site, err))
	case in.Failed:
		*bug = fmt.Errorf("dist: %v of T%d at site %d: %w", act.Kind, t.id, act.Site, err)
	}
	if in.Kind != InNone {
		acts = c.Step(&t.Conv, in, acts)
	}
	s.mu.Unlock()
	var took time.Duration
	if !start.IsZero() {
		took = time.Since(start)
	}

	if err == nil && (act.Kind == ActRelease || act.Kind == ActCommitDirect && t.logged) {
		c.ackRelease(t.id, act.Site)
	}
	if act.Kind != ActHold {
		c.refreshParked(s)
	}
	return acts, took, err == nil
}

// finish brings t to its terminal state — its real commit landed at
// every visited site, or (reason set) it aborted: the state and reason
// behind Err and the Done signal.
func (c *Cluster) finish(t *Txn, reason core.AbortReason) {
	if reason == core.ReasonNone {
		t.state.Store(txCommitted)
	} else {
		t.reason.Store(int32(reason))
		t.state.Store(txAborted)
	}
	if t.tc.Sampled() {
		// End-to-end latency from Begin drives the tail-based exemplar
		// store, so the slowest conversations survive ring wraparound.
		c.spans.Complete(t.tc, uint64(t.id), int64(time.Since(t.begin)))
	}
	close(t.done)
}

// cascade is ActRetire's drain: the terminated transactions leave the
// mirror, every held transaction whose global dependency set drained as
// a result runs its release (InReady) in the order Drain decided them,
// and the ids those retire are drained in turn. Concurrent cascades
// compose: Drain removes a transaction from the mirror only after its
// release landed.
func (c *Cluster) cascade(ids []core.TxnID) {
	for len(ids) > 0 {
		ready := c.Drain(ids)
		ids = ids[:0]
		for _, cv := range ready {
			c.exec(cv.Owner.(*Txn), Input{Kind: InReady}, &ids)
		}
	}
}

// ---- Crash-stop fault handling ----

// SiteDown reports whether the site is currently crashed.
func (c *Cluster) SiteDown(id SiteID) bool { return c.sites[id].p.Down() }

// Crash fails the site: its scheduler's volatile state is dropped
// atomically, subsequent calls against it return fault.ErrSiteDown,
// every request parked at it is woken with a ReasonSiteFailed verdict,
// the site's contribution to the mirrored union graph is purged, and
// every in-flight transaction that touched the site is doomed — active
// and blocked ones abort with ErrSiteFailed when their owner next
// drives them (or immediately, if parked here), held pseudo-commits
// whose outcome was never logged are revoked at the surviving sites
// (presumed abort). Held transactions whose commit is already logged
// are untouched: their release skips the down site and recovery redoes
// them there.
func (c *Cluster) Crash(id SiteID) error {
	s := c.sites[id]
	s.mu.Lock()
	if err := s.p.Crash(); err != nil {
		s.mu.Unlock()
		return err
	}
	touched := make([]*Conv, 0, len(s.txns))
	for _, t := range s.txns {
		touched = append(touched, &t.Conv)
	}
	clear(s.txns)
	// Wake everyone parked at the dead site with the failure verdict;
	// their owners run the global abort.
	s.hub.FailAll(core.ReasonSiteFailed)
	s.mu.Unlock()

	c.spans.RecordSite(telemetry.SpanCrash, 0, int32(id), 0)
	for _, cv := range c.SiteCrashed(id, touched) {
		c.run(cv.Owner.(*Txn), Input{Kind: InSiteCrashed, Site: id})
	}
	return nil
}

// Restart brings a crashed site back: a fresh scheduler is seeded from
// the site's durable committed snapshots, prepared (in-doubt)
// transactions are resolved against the decision log — logged commits
// are redone into the committed state, the rest presumed aborted — and
// the site starts accepting transactions again (re-registration),
// holding no live transaction, so the mirror has nothing of it to
// rebuild. A refused recovery leaves the site down and records a
// restart-failed site span, so a reconcile that keeps failing shows in
// the span ring.
func (c *Cluster) Restart(id SiteID) (fault.RecoveryReport, error) {
	s := c.sites[id]
	s.mu.Lock()
	rep, err := s.p.Restart()
	if err != nil {
		s.mu.Unlock()
		c.spans.RecordSite(telemetry.SpanRestartFailed, 0, int32(id), 0)
		return rep, err
	}
	s.mu.Unlock()
	c.spans.RecordSite(telemetry.SpanRestart, 0, int32(id), int64(len(rep.Redone)))
	// The redo span re-derives its context from the span buffer — the
	// transaction itself may have been unregistered before the crash.
	for _, txid := range rep.Redone {
		c.spans.Record(c.TraceContextOf(txid), telemetry.SpanRedo, uint64(txid), int32(id), 0, 0, 0)
	}
	if resolved := c.SiteRecovered(id, rep.Redone); len(resolved) > 0 {
		c.checkConservation(resolved[len(resolved)-1], id)
	}
	return rep, nil
}

// CrashSite and RestartSite are the int-typed adapters the workload
// chaos harness drives (it speaks core.Store plus these, without
// importing dist).

// CrashSite is Crash with an untyped site index.
func (c *Cluster) CrashSite(site int) error { return c.Crash(SiteID(site)) }

// RestartSite is Restart with an untyped site index, discarding the
// recovery report.
func (c *Cluster) RestartSite(site int) error {
	_, err := c.Restart(SiteID(site))
	return err
}
