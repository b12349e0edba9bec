package distsim

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/telemetry"
)

// startCommit hands the attempt to the conversation script
// (dist.Coordinator.Step): from here until it retires, what happens
// next is the shipped coordinator's decision; the engine delivers the
// messages.
func (e *Engine) startCommit(p *sproc) {
	p.commitStart = e.tl.Now()
	p.decideTime = p.commitStart // stands for the direct path, which has no decision round
	e.observe(&e.phExec, p.attemptStart)
	if e.coordGate {
		// The coordinator-failure model gates every decision on the
		// terminal learning the outcome (the wire client plane's
		// exactly-once rule; the gate is acked when the commit lands).
		e.co.GateDecision(p.txn)
	}
	p.state = spHolding
	acts := e.co.Step(p.cv, dist.Input{Kind: dist.InCommit}, nil)
	if acts[0].Kind == dist.ActHold {
		e.tracef("hold-start T%d sites=%v", p.txn, p.cv.Visited())
	}
	e.exec(p, acts)
}

// run feeds one input to the attempt's conversation and executes what
// the script answers.
func (e *Engine) run(p *sproc, in dist.Input) {
	e.exec(p, e.co.Step(p.cv, in, nil))
}

// exec is the coordinator side of the action executor: fire the
// action's before-boundary, then put a site verb on the wire (one
// latency draw on the FIFO coordinator→site channel; it takes effect on
// arrival, in perform), run the decision round (a wave of one: the
// virtual coordinator handles one message at a time), or perform a
// local action on the spot. A boundary whose crash unwound the attempt
// or killed the coordinator ends the execution.
func (e *Engine) exec(p *sproc, acts []dist.Action) {
	id := p.txn
	for i := 0; i < len(acts); i++ {
		act := acts[i]
		if !e.stepFired(act.Before, p, int(act.Site)) {
			return
		}
		switch act.Kind {
		case dist.ActCommitDirect:
			// A gated direct commit was logged before it is sent: the
			// record is the only durable trace the commit happened.
			e.noteLog()
			e.tracef("commit T%d site=%d (direct)", id, act.Site)
			fallthrough
		case dist.ActHold, dist.ActRelease:
			at := e.sendToSite(int(act.Site), e.lat())
			e.tl.Schedule(at, ev{kind: evArrive, p: p, txn: id, act: act})
		case dist.ActDecide:
			e.co.DecideWave([]*dist.DecideReq{p.cv.Decision()})
			e.noteLog()
			acts = e.co.Step(p.cv, dist.Input{Kind: dist.InVerdict}, acts)
		default:
			if !e.perform(p, act) {
				return
			}
		}
	}
}

// perform carries an action out where it takes effect — at the
// participant for a site verb (dist.Action.At, on message arrival), at
// the coordinator for the rest — records its span, fires its
// after-boundary there, and sends the participant's reply (service time
// plus one latency draw on the FIFO site→coordinator channel). A hold
// or direct commit that finds its site dead gets no reply: the
// conversation learns at once, the terminal's timeout collapsed to
// zero. It reports false when the execution ended here.
func (e *Engine) perform(p *sproc, act dist.Action) bool {
	id, sid := p.txn, int(act.Site)
	wait := e.cfg.SiteTime
	var reply dist.Input
	var eff core.Effects
	var err error
	if act.Kind.AtSite() {
		s := e.sites[sid]
		reply, err = act.At(s.cr, &eff, id)
		class := dist.Classify(err)
		switch {
		case reply.Kind == dist.InNone:
			// Revoke, abort: a site that refuses — down, or restarted
			// without the transaction — has nothing left to undo.
			if class == dist.VerbOK {
				delete(s.prepTime, id)
			}
		case class == dist.VerbViolation:
			panic(fmt.Sprintf("distsim: %v T%d at site %d: %v", act.Kind, id, sid, err))
		case reply.Failed:
			// The transaction's volatile state died with the site (gone: it
			// crashed and recovered while the message flew).
			e.run(p, reply)
			return false
		case class == dist.VerbDown:
			// The decision is logged: recovery redoes the release from the
			// prepared record.
			e.tracef("release T%d site=%d skipped (down, redo at restart)", id, sid)
			wait = 0
		case class == dist.VerbGone:
			e.tracef("release T%d site=%d already redone", id, sid)
		case act.Kind == dist.ActHold:
			s.prepTime[id] = e.tl.Now()
			e.tracef("hold T%d site=%d (prepare forced)", id, sid)
		default: // a direct commit or a release landed
			e.ack(id, sid) // the site's durable copy (a no-op for an unlogged direct commit)
			if act.Kind == dist.ActRelease {
				delete(s.prepTime, id)
				e.tracef("release T%d site=%d", id, sid)
			}
		}
	}
	if err == nil {
		var dur int64 // site verbs take effect on arrival; a decision carries the held wait
		if act.Kind == dist.ActDecided {
			dur = int64((e.tl.Now() - p.commitStart) * 1e9)
		}
		act.RecordSpan(e.spans, e.spans.Context(uint64(id)), p.cv, dur)
	}
	switch act.Kind {
	case dist.ActDecided:
		// DecideWave or Drain forced the decision to the log and opened
		// its ack set before the script said so.
		if p.state == spHeld {
			e.heldWaits = append(e.heldWaits, e.tl.Now()-p.heldAt)
			e.observe(&e.phHeldWait, p.heldAt)
		} else {
			e.observe(&e.phHold, p.commitStart)
		}
		p.state = spReleasing
		p.decideTime = e.tl.Now()
		e.tracef("decide T%d commit", id)
	case dist.ActFinished:
		e.finished(p, act)
	case dist.ActRetire:
		e.retire(p, act.Reason != core.ReasonNone)
	default: // a site verb's downstream effects, after its span
		e.processEffects(e.sites[sid], &eff)
	}
	// Past the commit point a site crash at the boundary unwinds nothing
	// (releases skip the down site and recovery redoes them), and a
	// coordinator crash just stops the fan-out: the replacement adopts
	// the logged decision and finishes the releases at reconcile.
	if !e.stepFired(act.After, p, sid) {
		return false
	}
	if reply.Kind != dist.InNone {
		s := e.sites[sid]
		if act.Kind == dist.ActHold {
			reply.Edges = s.cr.OutEdgesAppend(id, nil)
		}
		at := e.sendFromSite(s, wait+e.lat())
		e.tl.Schedule(at, ev{kind: evReply, p: p, txn: id, in: reply})
	}
	return true
}

// finished records the outcome the script reports to the owner.
func (e *Engine) finished(p *sproc, act dist.Action) {
	id, req := p.txn, p.cv.Decision()
	switch {
	case act.Reason == core.ReasonShed:
		// The holds already placed were just revoked — which is what makes
		// shedding cheap — and the logical transaction retries after a
		// backoff, its terminal still occupied (the shed IS the
		// back-pressure the unbounded protocol lacks).
		e.aborts++
		e.tracef("shed T%d (%s depth=%d held=%d)", id, e.co.PolicyName(), req.Depth, req.Held)
		e.completeSpan(id, e.tl.Now()-p.attemptStart)
	case act.Reason != core.ReasonNone && p.state == spHeld:
		// An unlogged held pseudo-commit a crash voided (presumed abort's
		// coordinator half): the logical transaction re-runs detached —
		// its terminal already moved on at pseudo-commit time.
		e.heldAborts++
		e.tracef("revoke T%d (site %d failed)", id, act.Site)
	case act.Reason != core.ReasonNone:
		e.aborts++
		e.tracef("abort T%d (%s)", id, act.Reason)
		delete(e.blockedAt, id)
		e.completeSpan(id, e.tl.Now()-p.attemptStart)
	case act.Status == core.PseudoCommitted:
		e.observe(&e.phHold, p.commitStart)
		if !e.draining {
			e.convoy.Observe(uint64(req.Held))
			e.convoyMax = max(e.convoyMax, req.Held)
		}
		p.state = spHeld
		p.heldAt = e.tl.Now()
		e.tracef("held T%d gdeps=%d depth=%d", id, req.Gdeps, req.Held)
		e.freeTerminal(p)
	default:
		e.landed(p)
	}
}

// landed counts a logical transaction's real commit: its promise was
// honoured at every (live) site and conservation counts its steps.
func (e *Engine) landed(p *sproc) {
	id := p.txn
	e.realCommits++
	e.observe(&e.phRelease, p.decideTime)
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
}

// freeTerminal completes the transaction from its terminal's
// perspective (§4.3: pseudo-commit is completion) and schedules the
// terminal's next submission after a think time.
func (e *Engine) freeTerminal(p *sproc) {
	p.freed = true
	e.pseudoCompl++
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

// stepFired fires one of an action's boundaries (dist.NoStep: there is
// none): it counts the protocol step and fires any crash the schedule
// placed on it. site -1 (a coordinator-level step) defaults the victim
// to the transaction's first participant. It reports whether the
// execution goes on: false when a crash at the boundary unwound the
// attempt or killed the coordinator.
func (e *Engine) stepFired(step dist.Step, p *sproc, site int) bool {
	if step == dist.NoStep {
		return true
	}
	id := p.txn
	e.stepCount[step]++
	e.tracef("step %s T%d site=%d n=%d", step, id, site, e.stepCount[step])
	if e.draining {
		// The crash schedule covers the measured run only; the drain
		// phase is simulated time the unbounded run never had.
		return true
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
	return p.txn == id && !e.coordDown
}

// crash fails a site at the current virtual instant: volatile state is
// dropped (the real fault.Crashable.Crash), the coordinator classifies
// every live transaction that touched it, and the script says what that
// means for each — unlogged holds are revoked at the surviving sites
// and their logical transactions re-run detached; releasing
// transactions are past their commit point and proceed, skipping the
// dead site; active, blocked and mid-conversation attempts abort (and
// retry).
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
	e.co.SiteCrashed(dist.SiteID(sid), touched)
	for _, cv := range touched {
		// (An earlier iteration's unwinding may have ended the attempt.)
		if p := cv.Owner.(*sproc); p.txn == cv.ID() {
			e.unpark(p)
			e.run(p, dist.Input{Kind: dist.InSiteCrashed, Site: dist.SiteID(sid)})
		}
	}
	if restartAfter > 0 {
		e.tl.Schedule(e.tl.Now()+restartAfter, ev{kind: evRestart, site: sid})
	}
}

// closeInDoubt ends a prepared record's in-doubt window at the site.
func (e *Engine) closeInDoubt(s *simSite, id core.TxnID) {
	if t0, ok := s.prepTime[id]; ok {
		e.observe(&e.inDoubt, t0)
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
	e.deadShed = e.tailAborts()
	e.co = dist.NewCoordinator(e.cfg.Sites, e.flog, e.cfg.Policy, false)
	e.tl.Schedule(e.coordRestartAt, ev{kind: evCoordRestart})
	ids := make([]core.TxnID, 0, len(e.procs))
	for id := range e.procs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		p := e.procs[id]
		_, logged := e.flog.Lookup(id)
		switch {
		case logged:
			// Decision logged — releasing, or a direct commit in flight
			// (the direct path logs before sending): it survives the
			// crash; the replacement adopts it.
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
			e.unpark(p)
			e.aborts++
			e.coordOrphans++
			e.tracef("orphan T%d (coordinator failed)", id)
		}
		e.orphans = append(e.orphans, p.cv)
		e.retire(p, true)
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

// reconcile resolves one transaction a live site may still carry from
// before the coordinator crash, by dist's one restart reconcile: its
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
	_, err := dist.Reconcile(s.cr, []dist.Survivor{{Txn: id, Held: held}}, e.co.ClaimRedo, func(id core.TxnID, verb dist.ActKind, eff *core.Effects) {
		e.closeInDoubt(s, id)
		e.tracef("adopt-%s T%d site=%d", verb, id, s.idx)
		e.processEffects(s, eff)
	})
	if err != nil {
		panic(fmt.Sprintf("distsim: reconcile at site %d: %v", s.idx, err))
	}
}

// maybeCompleteAdopted finishes an adopted conversation whose every
// site has acked — only the client gate remains — by counting its real
// commit (which acks the gate and truncates the decision).
func (e *Engine) maybeCompleteAdopted(p *sproc) {
	if sites, client := e.co.AcksPending(p.txn); sites == 0 && client {
		e.landed(p)
		e.retire(p, false)
	}
}
