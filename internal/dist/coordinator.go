package dist

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// Conversation states. Writes happen under the coordinator mutex;
// reads are lock-free.
const (
	txActive int32 = iota
	txPseudo
	txReleasing
	txCommitted
	txAborted
	// txRevoking: a hold being unwound — a held pseudo-commit a site
	// crash voided (SiteCrashed moved it out of txPseudo under the
	// coordinator mutex, so Drain cannot select it for release
	// concurrently), or a conversation the hold policy shed.
	txRevoking
)

// Conv is the coordinator's record of one live transaction: what the
// decision half of the commit conversation needs to know about it, and
// nothing about how its driver reaches the sites. A driver creates one
// per transaction attempt (dist.Txn embeds it; the simulator hangs one
// off each logical transaction) and registers it with the Coordinator.
type Conv struct {
	id core.TxnID
	// Owner is the driver's handle for the transaction, so the Conv a
	// decision returns maps back to the thing that carries it out.
	Owner any

	state atomic.Int32

	// visited lists the sites where Begin has run, ascending
	// (conversations iterate it directly, so multi-site rounds stay
	// deterministic). Driver-only until the transaction enters its
	// commit conversation, immutable afterwards.
	visited []SiteID
	// anyEdges is set once the transaction has ever had a dependency
	// edge at any site; while false, commits take the edge-free fast
	// path and never touch the coordinator. Set by the owner's own
	// observes and by refreshParked (a foreign goroutine), hence atomic.
	anyEdges atomic.Bool
	// inMirror is set by filterLive — under the transaction's registry
	// shard lock — when an edge to this transaction enters the union
	// graph. Together with anyEdges it tells Retire whether the
	// mirror holds state to clean up; false on both is what lets the
	// edge-free fast path finalise without the coordinator mutex.
	inMirror atomic.Bool
	// doomed is set by SiteCrashed when a site holding this transaction's
	// operations fails before the commit point: the owner aborts with
	// ReasonSiteFailed at its next step.
	doomed atomic.Bool

	// The conversation cursor, touched only by Coordinator.Step: req
	// collects the hold replies' edge exports and carries the verdict
	// back; direct marks an edge-free direct commit, logged one whose
	// decision LogDirect recorded; k counts the replies of the running
	// fan-out (holds, direct commits, then releases).
	req            DecideReq
	direct, logged bool
	k              int
}

// NewConv returns the record of a transaction about to be Enlisted.
func NewConv(id core.TxnID, owner any) *Conv { return &Conv{id: id, Owner: owner} }

// ID returns the coordinator-assigned transaction id (unique across
// the cluster).
func (cv *Conv) ID() core.TxnID { return cv.id }

// Visited returns the visited sites in ascending order. The slice is
// the record's own; callers must not mutate it.
func (cv *Conv) Visited() []SiteID { return cv.visited }

// VisitedHas reports whether Begin has run at sid. Linear scan: a
// transaction touches a handful of sites.
func (cv *Conv) VisitedHas(sid SiteID) bool {
	for _, s := range cv.visited {
		if s == sid {
			return true
		}
	}
	return false
}

// Decision returns the conversation's decision round: what ActDecide
// runs through DecideWave, and where the verdict is read afterwards.
func (cv *Conv) Decision() *DecideReq { return &cv.req }

// Visit records sid as visited, keeping the slice sorted.
func (cv *Conv) Visit(sid SiteID) {
	cv.visited = append(cv.visited, sid)
	for i := len(cv.visited) - 1; i > 0 && cv.visited[i-1] > cv.visited[i]; i-- {
		cv.visited[i-1], cv.visited[i] = cv.visited[i], cv.visited[i-1]
	}
}

// DecideReq is one commit conversation's decision round: the hold
// phase's per-site edge exports in, the verdict out.
type DecideReq struct {
	Conv *Conv
	// Batch concatenates the per-site exports in Conv.Visited() order;
	// Batch[off:off+Counts[i]] belongs to Visited()[i].
	Batch  []depgraph.Edge
	Counts []int

	// Gdeps is the global dependency count. Zero (and neither flag set)
	// means the commit point was reached: the decision is logged and
	// the driver releases. Positive means held, unless Shed.
	Gdeps int
	// Wave numbers the DecideWave call that processed the request.
	Wave uint64
	// Doomed: a site crash voided the conversation before its commit
	// point; the driver aborts it with ReasonSiteFailed.
	Doomed bool
	// Shed: the hold policy refused to hold the conversation; the
	// driver revokes it everywhere and surfaces a retryable ReasonShed
	// abort. Depth is the commit-dependency chain length the policy was
	// consulted with (zero without a policy).
	Shed  bool
	Depth int
	// Held is the held-set size right after this request's verdict.
	Held int

	done chan struct{} // the Cluster pipeline's completion signal
}

// adoptTable is the restart-adoption rule, keyed {held, logged}: the
// site verb (Action.At) that resolves a transaction a site reports as
// surviving its predecessor coordinator. A logged decision implies the
// transaction's global out-degree was zero when it was logged. A site
// that outlived the verbs retiring its dependencies (a wire daemon
// across a connection loss: an orphan whose abort the loss swallowed,
// an unlogged hold, a logged hold whose release was lost) may still
// hold those edges, so Reconcile orders its verbs by them.
var adoptTable = map[[2]bool]ActKind{
	{false, true}:  ActCommitDirect, // active (or blocked) + logged: the predecessor never delivered it; redo
	{false, false}: ActAbort,        // active (or blocked) + unlogged: an orphan whose client will retry
	{true, true}:   ActRelease,      // held + logged: an in-doubt hold whose commit is logged; land it
	{true, false}:  ActRevoke,       // held + unlogged: an in-doubt hold, presumed abort
}

// AdoptVerdict resolves one surviving transaction: held is its state at
// the reporting site, logged whether the decision log holds its commit
// (ask through ClaimRedo, so the redo wins against a live withdrawal).
func AdoptVerdict(held, logged bool) ActKind {
	return adoptTable[[2]bool{held, logged}]
}

// Survivor is a transaction a restarting participant reports live, and
// whether it is held (pseudo-committed) there.
type Survivor struct {
	Txn  core.TxnID
	Held bool
}

// Reconcile resolves the survivors p reports at its restart, each by
// AdoptVerdict's verb through Action.At, then calls each (if non-nil)
// with the verb and its effects. logged (nil: nothing is) is asked once
// per survivor, before any verb runs. Verbs run in listing order,
// except that a redo or release waits for a later pass until its
// out-edges at p drained (see adoptTable); a pass that resolves
// nothing fails.
func Reconcile(p core.Participant, survivors []Survivor, logged func(core.TxnID) bool, each func(core.TxnID, ActKind, *core.Effects)) (rep fault.RecoveryReport, err error) {
	verb := make(map[core.TxnID]ActKind, len(survivors))
	for _, s := range survivors {
		verb[s.Txn] = AdoptVerdict(s.Held, logged != nil && logged(s.Txn))
	}
	var edges []depgraph.Edge
	var eff core.Effects
	for todo := survivors; len(todo) > 0; {
		var waiting []Survivor
		for _, s := range todo {
			k := verb[s.Txn]
			if k == ActCommitDirect || k == ActRelease { // a redo or release
				if edges = p.OutEdgesAppend(s.Txn, edges); len(edges) > 0 {
					waiting = append(waiting, s)
					continue
				}
			}
			if _, err = (Action{Kind: k, Reason: core.ReasonSiteFailed}).At(p, &eff, s.Txn); err != nil {
				return rep, fmt.Errorf("dist: reconcile: %v of T%d: %w", k, s.Txn, err)
			}
			switch k {
			case ActCommitDirect, ActRelease:
				rep.Redone = append(rep.Redone, s.Txn)
			case ActAbort:
				rep.Aborted = append(rep.Aborted, s.Txn)
			case ActRevoke:
				rep.PresumedAborted = append(rep.PresumedAborted, s.Txn)
			}
			if each != nil {
				each(s.Txn, k, &eff)
			}
		}
		if len(waiting) == len(todo) {
			return rep, fmt.Errorf("dist: reconcile: no verb drains T%d's out-edges", waiting[0].Txn)
		}
		todo = waiting
	}
	return rep, nil
}

// Coordinator is the §6 commit conversation without its IO: it mirrors
// the sites' dependency edges into the union graph, sequences each
// conversation's hold → decide → release fan-out (Step, script.go),
// holds it until its global dependency set drains, forces the commit
// decision, and accounts for the releases the decision owes. It starts
// no goroutines, reads no clock and calls no site or socket — its
// inputs are edge reports, conversation events, decision rounds and
// termination notices, its outputs actions, verdicts, forced log
// records and lists of transactions to release — so the wall-clock
// Cluster (direct calls, goroutines, site mutexes) and the
// deterministic simulator (events on a virtual clock) run the same
// protocol code, and a restarted coordinator process is a new
// Coordinator on the old log plus Adopt.
//
// It is safe for concurrent use. Its state is split into independently
// locked domains so the paths that need one never serialise on the
// others:
//
//	reg   — the sharded live-transaction registry (per-shard locks).
//	        Enlist and the edge-free Retire touch only this.
//	mu    — the union-graph domain: the mirror, the held set and the
//	        policy. Taken only for transactions that actually have
//	        dependency edges (and by SiteCrashed).
//	logMu — the decision-log ack domain.
//
// Lock order: mu -> {registry shard, logMu}.
type Coordinator struct {
	nsites int
	flog   fault.Log // the decision log
	debug  bool      // check the ack-table invariant at every mutation

	reg registry

	mu     sync.Mutex
	mirror *depgraph.Graph
	// holdBatches counts conversations that mirrored their hold exports
	// in one critical section (the batching the counting-observer test
	// pins, together with mirror.Observes); waveSeq numbers the waves.
	holdBatches uint64
	waveSeq     uint64
	// policy, when non-nil, is the bounded-hold release policy
	// (Unbounded is stored as nil, so the decide path neither consults
	// it nor measures chain depth for it).
	policy HoldPolicy
	// heldCount tracks the live held set.
	heldCount int
	// idBuf is logCommitBatch's scratch for a wave's grouped force.
	idBuf []core.TxnID

	// relAcks holds, per logged commit decision, the participants whose
	// release (or restart-time redo) has not yet been confirmed. Opened
	// at the commit point; once the set drains the decision is
	// truncated from the log — presumed abort never needs it again.
	logMu   sync.Mutex
	relAcks map[core.TxnID]map[SiteID]struct{}
	// ackFree holds drained ack sets, cleared, for the next decision to
	// reuse, so a steady stream of decisions allocates no sets.
	ackFree []map[SiteID]struct{}
	// clientGate lists transactions whose commit decision must outlive
	// the participant acks until an external client confirms it learned
	// the outcome (GateDecision/AckDecision). A network front end uses
	// this for exactly-once commits: if the client's connection dies
	// before the commit reply, the decision is still in the log when the
	// client reconnects and asks. Nil until first use.
	clientGate map[core.TxnID]struct{}
	// redoClaims arbitrates the race between restart reconciliation
	// redoing a logged direct commit at a participant and the live
	// conversation withdrawing that decision after its own push failed
	// (ClaimRedo / UndoDirect). Nil until first use.
	redoClaims map[core.TxnID]struct{}
	// adopted lists the predecessor's decisions Adopt found in the log;
	// SiteRecovered acks them site by site.
	adopted []core.TxnID

	// tel is the always-on instrument block (lock-free counters and
	// histograms).
	tel telemetry.DistMetrics
}

// NewCoordinator builds a coordinator over sites participant sites.
// flog is the decision log and must be non-nil; policy optionally
// bounds the hold convoy (nil and Unbounded{} both hold unboundedly —
// the default policy is NewWithConfig's, not the mechanism's); debug
// checks the ack-table invariant at every mutation.
func NewCoordinator(sites int, flog fault.Log, policy HoldPolicy, debug bool) *Coordinator {
	c := new(Coordinator)
	c.init(sites, flog, policy, debug)
	return c
}

func (c *Coordinator) init(sites int, flog fault.Log, policy HoldPolicy, debug bool) {
	c.nsites, c.flog, c.debug = sites, flog, debug
	c.mirror = depgraph.New()
	c.mirror.SetMetrics(&c.tel.Mirror)
	if _, off := policy.(Unbounded); policy != nil && !off {
		c.policy = policy
	}
	c.reg.init()
	c.relAcks = make(map[core.TxnID]map[SiteID]struct{})
}

// Enlist enters a transaction into the live registry. It touches only
// the transaction's registry shard — no coordinator mutex — so
// concurrent Begins on independent transactions scale with cores.
func (c *Coordinator) Enlist(cv *Conv) { c.reg.add(cv) }

// Live returns the registered transaction, or nil.
func (c *Coordinator) Live(id core.TxnID) *Conv { return c.reg.get(id) }

// Retire removes a globally terminated transaction from the
// registry (its shard only) and reports whether it ever grew
// union-graph state, in which case the caller must Drain it. A
// transaction that never had a dependency edge in either direction
// (the sharded fast path) thus never takes the coordinator mutex.
//
// Retire-then-Drain is load-bearing: the mirrored mark is read
// inside the registry shard's critical section, and any concurrent
// filterLive that saw the transaction alive set that mark under the
// same shard lock while holding mu — so either the mark is visible
// here (and Drain's RemoveTxn, serialised after the observer by mu,
// cleans the edge) or the observer saw the unregister and dropped the
// edge. No stale edge survives either way.
func (c *Coordinator) Retire(id core.TxnID) (mirrored bool) {
	_, mirrored = c.reg.unregister(id)
	return mirrored
}

// filterLive drops edges to transactions already finalised: their
// mirror nodes are gone, and re-adding a stale edge would hold the
// source's dependency set open forever. Each kept target is
// simultaneously marked as mirrored (registry.markMirror's shard
// critical section). Filters in place — the mirror copies what it
// keeps. Caller holds mu.
func (c *Coordinator) filterLive(edges []depgraph.Edge) []depgraph.Edge {
	live := edges[:0]
	for _, e := range edges {
		if c.reg.markMirror(e.To) != nil {
			live = append(live, e)
		}
	}
	return live
}

// Observe mirrors the transaction's current out-edges at site into the
// union graph (replacing the pair's previous report, filtering in
// place) and reports whether that closed a global cycle through it —
// the §6 detection of cross-site deadlocks and commit-dependency
// cycles no single site can see. A transaction no longer live is
// ignored.
//
// Reports for one (site, transaction) pair must reach Observe in the
// order the site produced them, or a stale report could clobber a
// fresher one (losing, say, a commit dependency — the transaction
// would then never be released). The driver provides that order: the
// Cluster by holding the site mutex across export and Observe, the
// simulator by FIFO channels.
func (c *Coordinator) Observe(site SiteID, id core.TxnID, edges []depgraph.Edge) (cycle bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cv := c.reg.get(id)
	if cv == nil {
		return false
	}
	c.report(cv, site, edges)
	return c.mirror.HasCycleFrom(id)
}

// report replaces cv's mirrored out-edges at site. Caller holds mu.
func (c *Coordinator) report(cv *Conv, site SiteID, edges []depgraph.Edge) {
	if len(edges) > 0 {
		cv.anyEdges.Store(true)
	}
	c.mirror.Observe(int(site), cv.id, c.filterLive(edges))
}

// DecideWave decides a wave of conversations in one critical section:
// every request's exports are mirrored (one mirror update per touched
// site and one holdBatches round per conversation), each global
// dependency set is summed and the hold policy consulted, and every
// conversation that reached its commit point is forced to the decision
// log as one group — with its release-ack set opened — before anyone
// is released. The doomed re-check runs under the same mutex SiteCrashed
// dooms under, so a crash during the hold phase cannot slip past the
// commit point.
//
// Batching a conversation's exports is safe because the committing
// owner is the only writer for its (site, txn) mirror pairs, and
// staleness against concurrent finalisations is handled by filterLive
// at observe time.
func (c *Coordinator) DecideWave(reqs []*DecideReq) {
	c.tel.WaveSize.Observe(uint64(len(reqs)))
	var releasing []*Conv
	c.mu.Lock()
	c.waveSeq++
	for _, r := range reqs {
		cv := r.Conv
		r.Wave = c.waveSeq
		if cv.doomed.Load() {
			r.Doomed = true
			continue
		}
		off := 0
		for i, sid := range cv.visited {
			c.report(cv, sid, r.Batch[off:off+r.Counts[i]])
			off += r.Counts[i]
		}
		c.holdBatches++
		r.Gdeps = c.mirror.OutDegree(cv.id)
		if r.Gdeps > 0 && c.policy != nil {
			r.Depth = c.mirror.LongestChainFrom(cv.id)
			if !c.policy.AdmitHold(r.Depth) {
				r.Shed = true
			}
		}
		switch {
		case r.Gdeps == 0:
			// The commit point: the decision must be durable before any
			// participant is released (txReleasing also bars SiteCrashed
			// from revoking). The force itself is grouped below.
			cv.state.Store(txReleasing)
			releasing = append(releasing, cv)
		case r.Shed:
			// txRevoking bars SiteCrashed and Drain; the driver runs the
			// revocation.
			cv.state.Store(txRevoking)
			c.tel.Sheds.Inc()
		default:
			cv.state.Store(txPseudo)
			c.heldCount++
			c.tel.Held.Set(int64(c.heldCount))
		}
		r.Held = c.heldCount
	}
	c.logCommitBatch(releasing)
	c.mu.Unlock()
}

// Drain removes globally terminated transactions from the mirror and
// returns the held transactions whose global dependency set drained as
// a result, moved to releasing with their commit decisions forced as
// one group and their ack sets open. The driver releases them in the
// order returned, Retires each, and Drains the released ids in
// turn until nothing comes back.
//
// Site-level finalisation always precedes Drain, so by the time a
// dependant is selected its local out-degrees at its sites have
// drained and its release cannot fail.
//
// Only direct dependants of terminated are examined, and a transaction
// leaves the mirror only after its release landed, so concurrent drains
// compose.
func (c *Coordinator) Drain(terminated []core.TxnID) (ready []*Conv) {
	c.mu.Lock()
	for _, id := range terminated {
		// RemoveTxn's list is graph scratch: nothing below mutates the
		// graph while it is iterated.
		for _, d := range c.mirror.RemoveTxn(id) {
			cv := c.reg.get(d)
			if cv != nil && cv.state.Load() == txPseudo && c.mirror.OutDegree(d) == 0 {
				cv.state.Store(txReleasing)
				c.heldCount--
				ready = append(ready, cv)
			}
		}
	}
	if len(ready) > 0 {
		c.logCommitBatch(ready)
		c.tel.Held.Set(int64(c.heldCount))
		c.tel.ReleaseWidth.Observe(uint64(len(ready)))
	}
	c.mu.Unlock()
	return ready
}

// SiteCrashed is the crash classification: the failed site's contribution
// to the union graph is purged and every live transaction that touched
// it is doomed. A held transaction whose outcome was never logged is
// moved to revoking and returned — the driver revokes it at the
// surviving sites (presumed abort). A releasing one passed its commit
// point and proceeds: its release skips the down site and recovery
// redoes it there. The rest abort when their owner next drives them.
func (c *Coordinator) SiteCrashed(site SiteID, touched []*Conv) (revoke []*Conv) {
	c.tel.Crashes.Inc()
	c.mu.Lock()
	c.mirror.DropSite(int(site))
	for _, cv := range touched {
		cv.doomed.Store(true)
		if cv.state.CompareAndSwap(txPseudo, txRevoking) {
			c.heldCount--
			revoke = append(revoke, cv)
		}
	}
	c.tel.Held.Set(int64(c.heldCount))
	c.mu.Unlock()
	return revoke
}

// HeldCount returns the current held-set size.
func (c *Coordinator) HeldCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.heldCount
}

// PolicyStats views the instrument block: TailAborts is tel.Sheds
// (zero without a policy), HeldPeak tel.Held's high-water mark.
func (c *Coordinator) PolicyStats() PolicyStats {
	return PolicyStats{TailAborts: int(c.tel.Sheds.Load()), HeldPeak: int(c.tel.Held.High())}
}

// PolicyName returns the active hold policy's parseable name, or
// "off" when the coordinator holds unboundedly (nil or Unbounded{}).
func (c *Coordinator) PolicyName() string {
	if c.policy == nil {
		return "off"
	}
	return c.policy.Name()
}

// Telemetry exposes the coordinator's live instrument block for
// lock-free reads (/metrics scrapes, the benchmark's per-layer counters).
func (c *Coordinator) Telemetry() *telemetry.DistMetrics { return &c.tel }

// MirrorEdges reports the dependency mirror's current edge count.
func (c *Coordinator) MirrorEdges() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mirror.EdgeCount()
}

// DecisionLog returns the decision log.
func (c *Coordinator) DecisionLog() fault.Log { return c.flog }

// ---- The decision-log ack table ----

// clientAck is the virtual release-ack member standing for "the client
// has learned this commit outcome" (see GateDecision).
const clientAck SiteID = -2

// checkAcks is the debug invariant of the ack table: every open set is
// a decision this coordinator logged or adopted and has not resolved.
// Caller holds logMu, after the mutation and its counter update.
func (c *Coordinator) checkAcks() {
	if !c.debug {
		return
	}
	logged, adopted, resolved := c.tel.DecisionsLogged.Load(), c.tel.DecisionsAdopted.Load(), c.tel.DecisionsResolved.Load()
	if uint64(len(c.relAcks))+resolved != logged+adopted {
		panic(fmt.Sprintf("dist: ack table holds %d decisions, want logged %d + adopted %d - resolved %d",
			len(c.relAcks), logged, adopted, resolved))
	}
}

// logCommitBatch forces a wave's commit decisions to the decision log
// — one grouped force when the log supports it, per-id records
// otherwise — and opens each transaction's release-ack set. The write
// must succeed before any participant is released; a failed force
// would break the recovery promise, so it is surfaced loudly. Caller
// holds mu: the commit point is serialised against SiteCrashed, and
// idBuf is mu's.
func (c *Coordinator) logCommitBatch(txns []*Conv) {
	if len(txns) == 0 {
		return
	}
	if br, ok := c.flog.(fault.BatchRecorder); ok {
		c.idBuf = c.idBuf[:0]
		for _, cv := range txns {
			c.idBuf = append(c.idBuf, cv.id)
		}
		if err := br.RecordBatch(c.idBuf, fault.OutcomeCommit); err != nil {
			panic(fmt.Sprintf("dist: decision log commit batch %v: %v", c.idBuf, err))
		}
	} else {
		for _, cv := range txns {
			c.record(cv)
		}
	}
	c.openAcks(txns...)
}

// record forces one commit decision to the decision log.
func (c *Coordinator) record(cv *Conv) {
	if err := c.flog.Record(cv.id, fault.OutcomeCommit); err != nil {
		panic(fmt.Sprintf("dist: decision log commit of T%d: %v", cv.id, err))
	}
}

// openAcks opens the release-ack set of each freshly logged decision:
// every visited site, plus the client if the decision is gated.
func (c *Coordinator) openAcks(txns ...*Conv) {
	c.logMu.Lock()
	c.tel.DecisionsLogged.Add(uint64(len(txns)))
	for _, cv := range txns {
		pending := c.ackSet()
		for _, sid := range cv.visited {
			pending[sid] = struct{}{}
		}
		if _, gated := c.clientGate[cv.id]; gated {
			pending[clientAck] = struct{}{}
		}
		c.relAcks[cv.id] = pending
	}
	c.tel.LiveDecisions.Set(int64(len(c.relAcks)))
	c.checkAcks()
	c.logMu.Unlock()
}

// ackSet returns an empty ack set, reusing a drained one when it can.
// Caller holds logMu.
func (c *Coordinator) ackSet() map[SiteID]struct{} {
	if n := len(c.ackFree); n > 0 {
		s := c.ackFree[n-1]
		c.ackFree = c.ackFree[:n-1]
		return s
	}
	return make(map[SiteID]struct{}, c.nsites+1)
}

// resolve closes id's ack set: the decision leaves the table, its set
// is recycled and the resolution counted. Caller holds logMu.
func (c *Coordinator) resolve(id core.TxnID, pending map[SiteID]struct{}) {
	delete(c.relAcks, id)
	delete(c.redoClaims, id)
	clear(pending)
	c.ackFree = append(c.ackFree, pending)
	c.tel.DecisionsResolved.Inc()
	c.tel.LiveDecisions.Set(int64(len(c.relAcks)))
	c.checkAcks()
}

// LogDirect forces a decision record for an edge-free direct commit
// whose outcome a remote client will resolve from the log
// (GateDecision was called). Without it a coordinator crash between
// the site commit and the client reply would presume the transaction
// aborted and the client would re-run committed work. The record is
// written BEFORE the site commit — the same decision-before-effect
// order as the hold path — and the ack set opens with every visited
// site plus the client gate. Ungated transactions (in-process callers
// that never resolve from the log) skip it: for them presumed abort is
// harmless, the caller saw the outcome directly. Reports whether a
// record was written.
func (c *Coordinator) LogDirect(cv *Conv) bool {
	c.logMu.Lock()
	_, gated := c.clientGate[cv.id]
	c.logMu.Unlock()
	if !gated {
		return false
	}
	c.record(cv)
	c.openAcks(cv)
	return true
}

// UndoDirect withdraws a LogDirect record after the site commit
// failed: the transaction is aborting, and a lingering commit record
// would make a restarting coordinator redo it. If restart
// reconciliation already claimed the decision for redo (ClaimRedo),
// the withdrawal loses the race: the commit has landed (or is landing)
// at the recovered participant, so the record stays and the caller
// must treat the transaction as committed. Reports whether the record
// was withdrawn. Only a crash in the narrow window between Record and
// Truncate can leave a stale record behind — a double failure recovery
// resolves toward commit (the at-least-once side of the trade,
// documented in DESIGN.md).
func (c *Coordinator) UndoDirect(id core.TxnID) bool {
	c.logMu.Lock()
	if _, claimed := c.redoClaims[id]; claimed {
		c.logMu.Unlock()
		return false
	}
	if pending, open := c.relAcks[id]; open {
		c.resolve(id, pending)
	}
	c.logMu.Unlock()
	_ = c.flog.Truncate(id)
	return true
}

// ClaimRedo is the restart-reconciliation side of the direct-commit
// arbitration: called before redoing a logged commit at a recovering
// participant, it marks the decision as redo-claimed and reports
// whether the log still holds a commit record for the transaction. A
// live conversation whose own push failed consults the claim in
// UndoDirect: if reconciliation got there first, the decision stands
// and the conversation must report Committed rather than retry. Claims
// are erased when the decision truncates, bounding the map by the set
// of in-flight logged commits.
func (c *Coordinator) ClaimRedo(id core.TxnID) bool {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	o, ok := c.flog.Lookup(id)
	if !ok || o != fault.OutcomeCommit {
		return false
	}
	if c.redoClaims == nil {
		c.redoClaims = make(map[core.TxnID]struct{})
	}
	c.redoClaims[id] = struct{}{}
	return true
}

// Ack confirms that one participant has made the logged commit durable
// in its base state (released it, or redone it during restart
// recovery), or — for an adopted decision — that it holds nothing for
// it. When the last member acks, the decision leaves the log: every
// prepared record for the transaction is resolved, so presumed abort
// can never need it again. Truncation is best-effort — a failed prune
// costs log space, not correctness. Idempotent, and a no-op for
// decisions never logged or already truncated. Reports whether this
// ack resolved the decision.
func (c *Coordinator) Ack(id core.TxnID, sid SiteID) (resolved bool) {
	c.logMu.Lock()
	pending := c.relAcks[id]
	if pending != nil {
		delete(pending, sid)
		if resolved = len(pending) == 0; resolved {
			c.resolve(id, pending)
		}
	}
	c.logMu.Unlock()
	if resolved {
		_ = c.flog.Truncate(id)
	}
	return resolved
}

// AcksPending reports how many participants still owe the decision an
// ack, and whether the client gate is still open on it.
func (c *Coordinator) AcksPending(id core.TxnID) (sites int, client bool) {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	pending := c.relAcks[id]
	_, client = pending[clientAck]
	sites = len(pending)
	if client {
		sites--
	}
	return sites, client
}

// GateDecision marks the transaction's eventual commit decision as
// client-acknowledged: if the commit point is reached, the decision
// stays in the log — even after every participant released — until
// AckDecision confirms the client learned the outcome. Call before
// starting the commit conversation.
func (c *Coordinator) GateDecision(id core.TxnID) {
	c.logMu.Lock()
	if c.clientGate == nil {
		c.clientGate = make(map[core.TxnID]struct{})
	}
	c.clientGate[id] = struct{}{}
	c.logMu.Unlock()
}

// AckDecision confirms the gated client learned the transaction's
// outcome, releasing the decision for truncation once every participant
// has acked too. Safe (and a no-op) for transactions that were never
// gated or never reached the commit point. Reports whether this ack
// resolved the decision.
func (c *Coordinator) AckDecision(id core.TxnID) bool {
	c.logMu.Lock()
	delete(c.clientGate, id)
	c.logMu.Unlock()
	return c.Ack(id, clientAck)
}

// Adopt is a restarting coordinator's first act: every commit decision
// the predecessor left in the log is re-armed — it stays durable until
// every site has confirmed it holds nothing for the transaction
// (SiteRecovered, after the site's reconciliation) and the owning client
// has learned the outcome (AckDecision). Call before any site
// reconciles, so their acks land in the pending sets instead of a
// void. Needs a log that can enumerate outcomes (fault.MemLog and
// fault.FileLog both can). Returns the adopted ids, ascending.
func (c *Coordinator) Adopt() []core.TxnID {
	lister, ok := c.flog.(interface {
		OutcomeIDs(fault.Outcome) []core.TxnID
	})
	if !ok {
		return nil
	}
	ids := lister.OutcomeIDs(fault.OutcomeCommit)
	c.logMu.Lock()
	if c.clientGate == nil {
		c.clientGate = make(map[core.TxnID]struct{})
	}
	for _, id := range ids {
		c.clientGate[id] = struct{}{}
		if c.relAcks[id] != nil {
			continue
		}
		pending := c.ackSet()
		pending[clientAck] = struct{}{}
		for s := 0; s < c.nsites; s++ {
			pending[SiteID(s)] = struct{}{}
		}
		c.tel.DecisionsAdopted.Inc()
		c.relAcks[id] = pending
	}
	c.tel.LiveDecisions.Set(int64(len(c.relAcks)))
	c.adopted = append(c.adopted, ids...)
	c.checkAcks()
	c.logMu.Unlock()
	return ids
}

// SiteRecovered records a site's completed restart reconciliation: each
// redone transaction's commit is now in the site's durable base (its
// release ack), and the site holds nothing for any adopted decision —
// its reconciliation released the hold, or it never had one. Returns
// the decisions these acks resolved.
func (c *Coordinator) SiteRecovered(site SiteID, redone []core.TxnID) (resolved []core.TxnID) {
	c.tel.Restarts.Inc()
	c.logMu.Lock()
	adopted := c.adopted
	c.logMu.Unlock()
	for _, ids := range [2][]core.TxnID{redone, adopted} {
		for _, id := range ids {
			if c.Ack(id, site) {
				resolved = append(resolved, id)
			}
		}
	}
	return resolved
}
