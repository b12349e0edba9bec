package distsim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/dist"
	"repro/internal/telemetry"
)

// startCommit begins the commit conversation: the edge-free
// single-site fast path commits directly at its home site; everything
// else runs the hold conversation over every visited site in ascending
// order, exactly like the fault-tolerant wall-clock cluster (a direct
// multi-site commit would not be atomic under crashes).
func (e *Engine) startCommit(p *sproc) {
	p.commitStart = e.tl.Now()
	if !e.draining {
		e.phExec.Add(e.tl.Now() - p.attemptStart)
	}
	if e.coordGate {
		// The coordinator-failure model gates every decision on the
		// terminal learning the outcome (the wire client plane's
		// exactly-once rule; the gate is acked in realCommit).
		e.co.GateDecision(p.txn)
	}
	visited := p.cv.Visited()
	p.state = spHolding
	if !p.anyEdges && len(visited) == 1 {
		p.direct = true
		p.decideTime = p.commitStart
		sid := int(visited[0])
		// A gated direct commit is logged before it is sent: the record
		// is the only durable trace the commit happened.
		e.co.LogDirect(p.cv)
		e.noteLog()
		e.tracef("commit T%d site=%d (direct)", p.txn, sid)
		at := e.sendToSite(sid, e.lat())
		e.tl.Schedule(at, ev{kind: evCommitArrive, p: p, txn: p.txn, site: sid})
		return
	}
	p.holdK = 0
	p.req = dist.DecideReq{Conv: p.cv}
	e.tracef("hold-start T%d sites=%v", p.txn, visited)
	e.sendHold(p)
}

// sendHold fires the BeforeCommitHold boundary for the next
// participant and sends the prepare. A step-scheduled crash can unwind
// the attempt synchronously; the txn-id recheck catches that.
func (e *Engine) sendHold(p *sproc) {
	sid := int(p.cv.Visited()[p.holdK])
	id := p.txn
	e.stepFired(dist.BeforeCommitHold, p, sid)
	if p.txn != id {
		return // the crash at this boundary doomed the conversation
	}
	at := e.sendToSite(sid, e.lat())
	e.tl.Schedule(at, ev{kind: evHoldArrive, p: p, txn: p.txn, site: sid})
}

// commitArrive lands the direct single-site commit.
func (e *Engine) commitArrive(p *sproc, sid int) {
	s := e.sites[sid]
	if s.down() {
		e.abortAttempt(p, core.ReasonSiteFailed, -1)
		return
	}
	var eff core.Effects
	st, err := s.cr.CommitInto(&eff, p.txn)
	if err != nil {
		if errors.Is(err, core.ErrUnknownTxn) {
			// The site crashed and recovered while the commit flew:
			// the transaction's volatile state died with it.
			e.abortAttempt(p, core.ReasonSiteFailed, -1)
			return
		}
		panic(fmt.Sprintf("distsim: direct commit T%d at site %d: %v", p.txn, sid, err))
	}
	if st != core.Committed {
		panic(fmt.Sprintf("distsim: edge-free T%d pseudo-committed at site %d", p.txn, sid))
	}
	s.cr.Forget(p.txn)
	e.ack(p.txn, sid) // gated model: the site's durable copy (no-op otherwise)
	e.processEffects(s, &eff)
	at := e.sendFromSite(s, e.cfg.SiteTime+e.lat())
	e.tl.Schedule(at, ev{kind: evCommitReply, p: p, txn: p.txn})
}

// holdArrive processes the prepare at participant k: the real
// CommitHoldInto forces the prepare record, the AfterPrepareForce
// boundary fires, and the reply carries the site's dependency-edge
// export back to the coordinator.
func (e *Engine) holdArrive(p *sproc, sid int) {
	s := e.sites[sid]
	if s.down() {
		// The message reached a dead site: no reply will come. The
		// crash that took the site down has already unwound every
		// transaction that visited it — reaching here means the crash
		// happened after this attempt died and a new attempt reused
		// the proc, which the staleness guard rejects; keep the
		// defensive abort for safety.
		e.abortAttempt(p, core.ReasonSiteFailed, -1)
		return
	}
	var eff core.Effects
	if _, err := s.cr.CommitHoldInto(&eff, p.txn); err != nil {
		panic(fmt.Sprintf("distsim: commit-hold T%d at site %d: %v", p.txn, sid, err))
	}
	s.prepTime[p.txn] = e.tl.Now()
	e.tracef("hold T%d site=%d (prepare forced)", p.txn, sid)
	e.span(telemetry.SpanHold, p.txn, sid, 0, 0, 0)
	e.processEffects(s, &eff)
	id := p.txn
	e.stepFired(dist.AfterPrepareForce, p, sid)
	if p.txn != id {
		return // crash at the boundary unwound the conversation
	}
	edges := s.cr.OutEdgesAppend(p.txn, nil)
	at := e.sendFromSite(s, e.cfg.SiteTime+e.lat())
	e.tl.Schedule(at, ev{kind: evHoldReply, p: p, txn: p.txn, site: sid, edges: edges})
}

// holdReply collects one participant's prepare ack at the coordinator:
// either the conversation moves to the next site, or — all sites
// holding — the BeforeDecisionForce boundary fires and the coordinator
// decides (a wave of one: the simulator's coordinator handles one
// message at a time).
func (e *Engine) holdReply(p *sproc, edges []depgraph.Edge) {
	p.req.Batch = append(p.req.Batch, edges...)
	p.req.Counts = append(p.req.Counts, len(edges))
	p.holdK++
	if p.holdK < len(p.cv.Visited()) {
		e.sendHold(p)
		return
	}
	id := p.txn
	e.stepFired(dist.BeforeDecisionForce, p, -1)
	if p.txn != id {
		return // pre-decision crash: prepared records will be presumed aborted
	}
	req := &p.req
	e.co.DecideWave([]*dist.DecideReq{req})
	e.noteLog()
	if req.Shed {
		e.shedHold(p, req)
		return
	}
	if !e.draining {
		e.phHold.Add(e.tl.Now() - p.commitStart)
	}
	if req.Gdeps == 0 {
		e.startRelease(p)
		return
	}
	p.state = spHeld
	p.heldAt = e.tl.Now()
	e.held++
	if !e.draining {
		e.convoy.Add(req.Held)
	}
	e.tracef("held T%d gdeps=%d depth=%d", p.txn, req.Gdeps, req.Held)
	e.freeTerminal(p)
}

// revokeAt revokes the attempt's hold at every live visited site but
// skip (-1: none) — recoverability makes the revocation non-cascading.
func (e *Engine) revokeAt(p *sproc, skip int, reason core.AbortReason) {
	for _, sid := range p.cv.Visited() {
		s := e.sites[sid]
		if int(sid) == skip || s.down() {
			continue
		}
		var eff core.Effects
		if err := s.cr.RevokeInto(&eff, p.txn, reason); err == nil {
			delete(s.prepTime, p.txn)
			s.cr.Forget(p.txn)
			e.processEffects(s, &eff)
		}
	}
}

// shedHold unwinds a conversation the hold policy refused: the holds
// already placed at every participant are revoked — which is what
// makes shedding cheap — and the logical transaction retries after a
// backoff, its terminal still occupied (the shed IS the back-pressure
// the unbounded protocol lacks: the terminal does not move on until the
// transaction lands for real or is held for good).
func (e *Engine) shedHold(p *sproc, req *dist.DecideReq) {
	id := p.txn
	e.revokeAt(p, -1, core.ReasonShed)
	e.aborts++
	e.tracef("shed T%d (%s depth=%d held=%d)", id, e.co.PolicyName(), req.Depth, req.Held)
	if e.spans != nil {
		e.span(telemetry.SpanShed, id, -1, int64(req.Depth), int64(req.Held), 0)
		e.completeSpan(id, e.tl.Now()-p.attemptStart)
	}
	e.retry(p)
}

// startRelease carries out a commit decision the coordinator made
// (DecideWave or Drain forced it to the log and opened its ack set
// before returning): the AfterDecisionBeforeRelease boundary fires and
// the release fan-out starts.
func (e *Engine) startRelease(p *sproc) {
	if p.state == spHeld {
		wait := e.tl.Now() - p.heldAt
		e.heldWaits = append(e.heldWaits, wait)
		if !e.draining {
			e.phHeldWait.Add(wait)
		}
	}
	p.state = spReleasing
	p.decideTime = e.tl.Now()
	e.tracef("decide T%d commit", p.txn)
	e.span(telemetry.SpanDecide, p.txn, -1, 0, 0, int64((e.tl.Now()-p.commitStart)*1e9))
	e.stepFired(dist.AfterDecisionBeforeRelease, p, -1)
	// A crash at the boundary cannot unwind a releasing transaction —
	// its decision is logged; releases skip the down site and recovery
	// redoes them. A coordinator crash at the boundary stops the
	// fan-out here: the replacement coordinator adopts the logged
	// decision and finishes the releases at reconcile.
	if e.coordDown {
		return
	}
	p.relK = 0
	n := 1
	if e.eager {
		// The batched release round: all participants at once (one
		// round-trip, relReply counts acks) instead of one site per
		// round-trip. The FIFO coordinator→site channels carry the
		// subtree's topological decide order to every shared site.
		n = len(p.cv.Visited())
	}
	for k := 0; k < n && e.sendRelease(p, k); k++ {
	}
}

// sendRelease fires the DuringReleaseCascade boundary for participant k
// and sends it the release (the real commit). It reports false when a
// coordinator crash at the boundary stopped the fan-out: reconcile
// finishes it from the logged decision.
func (e *Engine) sendRelease(p *sproc, k int) bool {
	sid := int(p.cv.Visited()[k])
	e.stepFired(dist.DuringReleaseCascade, p, sid)
	if e.coordDown {
		return false
	}
	at := e.sendToSite(sid, e.lat())
	e.tl.Schedule(at, ev{kind: evRelArrive, p: p, txn: p.txn, site: sid})
	return true
}

// relArrive lands the real commit at participant k, or skips a down
// site (recovery will redo it from the prepared record — the decision
// is logged).
func (e *Engine) relArrive(p *sproc, sid int) {
	s := e.sites[sid]
	if s.down() {
		e.tracef("release T%d site=%d skipped (down, redo at restart)", p.txn, sid)
		at := e.sendFromSite(s, e.lat())
		e.tl.Schedule(at, ev{kind: evRelReply, p: p, txn: p.txn, site: sid})
		return
	}
	var eff core.Effects
	if err := s.cr.ReleaseInto(&eff, p.txn); err != nil {
		if errors.Is(err, core.ErrUnknownTxn) {
			// Crashed and already recovered: the restart redid the
			// commit from the prepared record and acked it.
			e.tracef("release T%d site=%d already redone", p.txn, sid)
		} else {
			panic(fmt.Sprintf("distsim: release T%d at site %d: %v", p.txn, sid, err))
		}
	} else {
		delete(s.prepTime, p.txn)
		s.cr.Forget(p.txn)
		e.ack(p.txn, sid)
		e.tracef("release T%d site=%d", p.txn, sid)
		e.span(telemetry.SpanRelease, p.txn, sid, 0, 0, 0)
		e.processEffects(s, &eff)
	}
	at := e.sendFromSite(s, e.cfg.SiteTime+e.lat())
	e.tl.Schedule(at, ev{kind: evRelReply, p: p, txn: p.txn, site: sid})
}

// relReply advances the release fan-out; after the last ack the real
// commit has landed everywhere that is up. Under the eager policy's
// batched round every release is already in flight and relK just
// counts acks.
func (e *Engine) relReply(p *sproc) {
	p.relK++
	if p.relK < len(p.cv.Visited()) {
		if !e.eager {
			e.sendRelease(p, p.relK)
		}
		return
	}
	e.realCommit(p)
}

// realCommit finishes a logical transaction: its promise was honoured
// at every (live) site, conservation counts its steps, and its mirror
// node leaves the union graph — possibly releasing dependants.
func (e *Engine) realCommit(p *sproc) {
	id := p.txn
	e.realCommits++
	if !e.draining {
		e.respReal.Add(e.tl.Now() - p.submitted)
		e.phRelease.Add(e.tl.Now() - p.decideTime)
	}
	for _, st := range p.steps {
		e.committedSteps[st.Object]++
	}
	e.tracef("committed T%d", id)
	e.completeSpan(id, e.tl.Now()-p.submitted)
	// The terminal has the outcome: release the client gate, if the
	// model armed one (the last ack truncates the decision).
	if e.co.AckDecision(id) {
		e.tracef("truncate T%d", id)
	}
	if !p.freed {
		e.freeTerminal(p)
	}
	p.txn = 0
	e.finalize(id)
	if !e.inWindow && e.realCommits >= e.cfg.Warmup {
		e.openWindow()
	}
}

// freeTerminal completes the transaction from its terminal's
// perspective (§4.3: pseudo-commit is completion) and schedules the
// terminal's next submission after a think time.
func (e *Engine) freeTerminal(p *sproc) {
	p.freed = true
	e.pseudoCompl++
	if !e.draining {
		e.respPseudo.Add(e.tl.Now() - p.submitted)
	}
	if p.terminal >= 0 && !e.draining {
		e.tl.Schedule(e.think(), ev{kind: evSubmit, terminal: p.terminal})
	}
}

// ack confirms one participant's durable copy of a logged commit; the
// last ack truncates the decision.
func (e *Engine) ack(id core.TxnID, sid int) {
	if e.co.Ack(id, dist.SiteID(sid)) {
		e.tracef("truncate T%d", id)
	}
}

// stepFired counts a protocol-step boundary and fires any crash the
// schedule placed on it. site -1 (a coordinator-level step) defaults
// the victim to the transaction's first participant.
func (e *Engine) stepFired(step dist.Step, p *sproc, site int) {
	e.stepCount[step]++
	e.tracef("step %s T%d site=%d n=%d", step, p.txn, site, e.stepCount[step])
	if e.draining {
		// The crash schedule covers the measured run only; the drain
		// phase is simulated time the unbounded run never had.
		return
	}
	for i := range e.cfg.Crashes {
		cp := &e.cfg.Crashes[i]
		if e.crashFired[i] || cp.Step != step || e.stepCount[step] != cp.Occurrence {
			continue
		}
		e.crashFired[i] = true
		victim := cp.Site
		if victim < 0 {
			victim = site
			if victim < 0 {
				victim = int(p.cv.Visited()[0])
			}
		}
		e.crash(victim, cp.RestartAfter)
	}
	for i := range e.cfg.CoordCrashes {
		cp := &e.cfg.CoordCrashes[i]
		if e.coordCrashFired[i] || cp.Step != step || e.stepCount[step] != cp.Occurrence {
			continue
		}
		e.coordCrashFired[i] = true
		e.coordCrash(cp.RestartAfter)
	}
}

// crash fails a site at the current virtual instant: volatile state is
// dropped (the real fault.Crashable.Crash) and the coordinator
// classifies every live transaction that touched it — unlogged holds
// are revoked at the surviving sites and their logical transactions
// re-run detached; releasing transactions are past their commit point
// and proceed, skipping the dead site; active, blocked and
// mid-conversation attempts abort (and retry).
func (e *Engine) crash(sid int, restartAfter float64) {
	s := e.sites[sid]
	if s.down() {
		return
	}
	if err := s.cr.Crash(); err != nil {
		panic(fmt.Sprintf("distsim: crash site %d: %v", sid, err))
	}
	e.crashes++
	e.tracef("crash site=%d", sid)
	clear(s.parked)
	var touched []*dist.Conv
	for _, p := range e.procs {
		if p.cv.VisitedHas(dist.SiteID(sid)) {
			touched = append(touched, p.cv)
		}
	}
	slices.SortFunc(touched, func(a, b *dist.Conv) int { return cmp.Compare(a.ID(), b.ID()) })
	revoke := e.co.SiteCrashed(dist.SiteID(sid), touched)
	for _, cv := range touched {
		p := cv.Owner.(*sproc)
		switch {
		case p.txn != cv.ID():
			// An earlier iteration's unwinding already handled it.
		case slices.Contains(revoke, cv):
			e.revokeHeld(p, sid)
		case p.state == spReleasing:
			// Past the commit point: the logged decision lands
			// everywhere, crash or not.
		default: // spActive, spBlocked, spHolding
			e.abortAttempt(p, core.ReasonSiteFailed, -1)
		}
	}
	if restartAfter > 0 {
		e.tl.Schedule(e.tl.Now()+restartAfter, ev{kind: evRestart, site: sid})
	}
}

// revokeHeld unwinds an unlogged held pseudo-commit after a crash:
// the hold is revoked at every surviving site (presumed abort's
// coordinator half), and the logical transaction re-runs detached —
// its terminal already moved on at pseudo-commit time.
func (e *Engine) revokeHeld(p *sproc, crashed int) {
	e.heldAborts++
	e.revokeAt(p, crashed, core.ReasonSiteFailed)
	e.tracef("revoke T%d (site %d failed)", p.txn, crashed)
	e.retry(p)
}

// closeInDoubt ends a prepared record's in-doubt window at the site.
func (e *Engine) closeInDoubt(s *simSite, id core.TxnID) {
	if t0, ok := s.prepTime[id]; ok {
		if !e.draining {
			e.inDoubt.Add(e.tl.Now() - t0)
		}
		delete(s.prepTime, id)
	}
}

// restartSite recovers a crashed site: the real presumed-abort
// recovery runs (redo logged commits, discard the rest), the
// coordinator takes the redos as release acks, and in-doubt windows
// close.
func (e *Engine) restartSite(s *simSite) {
	rep, err := s.cr.Restart()
	if err != nil {
		panic(fmt.Sprintf("distsim: restart site %d: %v", s.idx, err))
	}
	e.restarts++
	for _, id := range rep.Redone {
		e.closeInDoubt(s, id)
		e.span(telemetry.SpanRedo, id, s.idx, 0, 0, 0)
	}
	for _, id := range rep.PresumedAborted {
		e.closeInDoubt(s, id)
	}
	for _, id := range e.co.SiteRecovered(dist.SiteID(s.idx), rep.Redone) {
		e.tracef("truncate T%d", id)
	}
	e.redone += len(rep.Redone)
	e.presumed += len(rep.PresumedAborted)
	e.tracef("restart site=%d redone=%v presumed=%v", s.idx, rep.Redone, rep.PresumedAborted)
	// A coordinator-adopted conversation pending only on this site (its
	// release was redone from the prepared record just now) completes
	// here: the site ack above may have left just the client gate open.
	for _, id := range rep.Redone {
		if p := e.procs[id]; p != nil && p.state == spReleasing {
			e.maybeCompleteAdopted(p)
		}
	}
}

// coordCrash kills the coordinator at the current virtual instant: the
// Coordinator — union graph, registry, ack table — is dropped and a
// fresh one built on the decision log, which survives. The replacement
// sits empty until its restart event (nothing reaches it meanwhile:
// dispatch drops site→coordinator messages), then adopts. Every
// conversation that reached its commit point (spReleasing, or a logged
// direct commit in flight) stays in the session table for the
// replacement to finish; every unlogged hold is presumed aborted;
// everything earlier is orphaned — the terminal (co-located with the
// coordinator) lost its session and retries, and the attempt's
// site-side state waits for the reconcile to abort it away.
func (e *Engine) coordCrash(restartAfter float64) {
	if e.coordDown {
		return
	}
	e.coordDown = true
	e.coordCrashes++
	e.coordRestartAt = e.tl.Now() + restartAfter
	e.tracef("coordcrash")
	e.deadStats = e.policyStats()
	e.co = dist.NewCoordinator(e.cfg.Sites, e.flog, e.cfg.Policy, false)
	e.tl.Schedule(e.coordRestartAt, ev{kind: evCoordRestart})
	ids := make([]core.TxnID, 0, len(e.procs))
	for id := range e.procs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		p := e.procs[id]
		switch {
		case p.state == spReleasing || (p.state == spHolding && p.direct):
			// Decision logged (the direct path logs before sending):
			// survives the crash; the replacement adopts it.
			p.adopted = true
			continue
		case p.state == spHeld:
			// Unlogged hold: presumed abort. The revocation itself must
			// wait for the replacement coordinator (nothing can reach
			// the sites until then); the logical transaction re-runs
			// detached, exactly as after a crash-revoked hold.
			e.heldAborts++
			e.coordRevoked++
			e.tracef("coordcrash-revoke T%d", id)
		default: // spActive, spBlocked, spHolding (hold phase)
			if p.state == spBlocked {
				delete(e.sites[p.blockedSite].parked, id)
			}
			e.aborts++
			e.coordOrphans++
			e.tracef("orphan T%d (coordinator failed)", id)
		}
		e.orphans = append(e.orphans, p.cv)
		e.retry(p)
	}
}

// coordRestart is the replacement coordinator's startup — the
// wire.StartCoordinator sequence on the virtual clock: Adopt re-arms
// every logged commit decision, each one's surviving holds (or
// undelivered direct commit) are finished at the live sites, which then
// ack it; then the orphans are reconciled away. Down sites catch up
// when they restart (restartSite).
func (e *Engine) coordRestart() {
	e.coordDown = false
	e.coordRestarts++
	adopted := e.co.Adopt()
	e.coordAdopted += len(adopted)
	e.tracef("coordrestart adopted=%d", len(adopted))
	for _, id := range adopted {
		p := e.procs[id]
		if p == nil {
			// The terminal learned this outcome before the crash; only a
			// down site's redo kept the decision in the log.
			e.tracef("adopt T%d: no live conversation", id)
			e.co.AckDecision(id)
		}
		for _, s := range e.sites {
			if s.down() {
				continue
			}
			if p != nil && p.cv.VisitedHas(dist.SiteID(s.idx)) {
				e.reconcile(id, s)
			}
			e.ack(id, s.idx)
		}
		if p != nil {
			p.adopted = false
			e.maybeCompleteAdopted(p)
		}
	}
	orphans := e.orphans
	e.orphans = nil
	for _, cv := range orphans {
		for _, sid := range cv.Visited() {
			if s := e.sites[sid]; !s.down() {
				// A down site's volatile state died with it; its restart
				// presumed-aborts any prepared record (no log entry).
				e.reconcile(cv.ID(), s)
			}
		}
	}
}

// adoptVerb names each restart-adoption action in the trace.
var adoptVerb = [...]string{
	dist.AdoptAbort:   "adopt-abort",
	dist.AdoptRedo:    "adopt-commit",
	dist.AdoptRevoke:  "adopt-revoke",
	dist.AdoptRelease: "adopt-release",
}

// reconcile resolves one transaction a live site may still carry from
// before the coordinator crash, by the shipped adoption table: its
// local state and the decision log pick abort, redo, revoke or release.
func (e *Engine) reconcile(id core.TxnID, s *simSite) {
	held := false
	switch s.cr.TxnState(id) {
	case "active", "blocked":
	case "pseudo-committed":
		held = true
	default:
		return // resolved here before (or during) the outage
	}
	act := dist.AdoptVerdict(held, e.co.ClaimRedo(id))
	var eff core.Effects
	var err error
	switch act {
	case dist.AdoptAbort:
		err = s.cr.AbortInto(&eff, id)
	case dist.AdoptRedo:
		_, err = s.cr.CommitInto(&eff, id)
	case dist.AdoptRevoke:
		err = s.cr.RevokeInto(&eff, id, core.ReasonSiteFailed)
	case dist.AdoptRelease:
		err = s.cr.ReleaseInto(&eff, id)
	}
	if err != nil {
		panic(fmt.Sprintf("distsim: %s T%d at site %d: %v", adoptVerb[act], id, s.idx, err))
	}
	e.closeInDoubt(s, id)
	s.cr.Forget(id)
	e.tracef("%s T%d site=%d", adoptVerb[act], id, s.idx)
	e.processEffects(s, &eff)
}

// maybeCompleteAdopted finishes an adopted conversation whose every
// site has acked — only the client gate remains — by counting its real
// commit (which acks the gate and truncates the decision).
func (e *Engine) maybeCompleteAdopted(p *sproc) {
	if sites, client := e.co.AcksPending(p.txn); sites == 0 && client {
		e.realCommit(p)
	}
}
