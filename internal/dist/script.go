package dist

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// The conversation script: Coordinator.Step is the sequencing half of
// the §6 commit conversation as a sans-IO step function. A driver feeds
// it what happened (an Input), gets back what to do next (Actions), and
// executes those — the wall-clock Cluster with direct site calls, the
// simulator as messages on a virtual clock — feeding each result back
// in. An action takes effect at its participant (Action.At, plus the
// decision's Ack); the participant's reply is what advances the script.
// Every rule of the fan-out is decided here and nowhere else: which
// commits go direct, hold order, where the Step boundaries fire, the
// release shape, which verb unwinds which site, the lost-redo-race
// rule, and the release → finished → retire tail of the drain loop.

// InputKind discriminates what a driver reports to Step.
type InputKind uint8

const (
	InNone InputKind = iota // the zero Input: no reply
	// InCommit: the owner asked to commit.
	InCommit
	// InHoldReply: ActHold's participant replied — Edges is its
	// dependency-edge export — or, with Failed, could not hold.
	InHoldReply
	// InDirectReply: ActCommitDirect's participant replied; Failed if
	// the commit did not land through this conversation.
	InDirectReply
	// InVerdict: ActDecide ran; the verdict is on Conv.Decision().
	InVerdict
	// InReleaseAck: ActRelease's participant released, or is down and
	// will redo the logged commit when it restarts.
	InReleaseAck
	// InSiteCrashed: a site the conversation visited crashed
	// (Coordinator.SiteCrashed has classified it).
	InSiteCrashed
	// InReady: Drain selected the held conversation — its decision is
	// logged, release it.
	InReady
	// InAbort: the transaction is to abort with Reason — its owner asked,
	// the union graph closed a cycle through it, or Site's own scheduler
	// already aborted it there.
	InAbort
)

// Input is one event of a conversation, as its driver saw it.
type Input struct {
	Kind   InputKind
	Site   SiteID
	Failed bool
	Reason core.AbortReason
	// Edges need only stay valid for the Step call (Step copies them),
	// so a driver may pass a reusable export buffer.
	Edges []depgraph.Edge
}

// ActKind discriminates what Step asks a driver to do. The site verbs
// come first (AtSite).
type ActKind uint8

const (
	// ActHold: pseudo-commit-and-hold at Site; reply InHoldReply.
	ActHold ActKind = iota
	// ActCommitDirect: commit at Site outright; reply InDirectReply.
	ActCommitDirect
	// ActRelease: land the real commit at Site; reply InReleaseAck.
	ActRelease
	// ActRevoke: revoke the hold at Site with Reason. No reply.
	ActRevoke
	// ActAbort: abort at Site. No hold reply came from there, but one
	// may have been in flight when the conversation was voided, so a
	// participant that refuses (already pseudo-committed) is revoked
	// instead. No reply.
	ActAbort
	// ActDecide: run Conv.Decision() through DecideWave; reply InVerdict.
	ActDecide
	// ActDecided: the commit decision is logged (by DecideWave or Drain)
	// and the releases follow; nothing to send.
	ActDecided
	// ActFinished: the owner has an outcome — aborted with Reason (Site
	// names the participant it failed or first aborted at, if any), else
	// Status:
	// PseudoCommitted (held; ActFinished comes again when it lands) or
	// Committed (landed everywhere).
	ActFinished
	// ActRetire: the transaction terminated globally (aborted, if Reason
	// is set). Retire it and, if that reports union-graph state, Drain it
	// and feed InReady to every conversation Drain returns, in order.
	ActRetire
)

// String names the verb (error messages, test transcripts).
func (k ActKind) String() string {
	return [...]string{"hold", "commit", "release", "revoke", "abort", "decide", "decided", "finished", "retire"}[k]
}

// AtSite reports whether the kind is a site verb, carried out at its
// participant (Action.At); the rest are the coordinator's own.
func (k ActKind) AtSite() bool { return k <= ActAbort }

// Action is one instruction to a conversation's driver. Before fires at
// the coordinator before the action is sent; After fires where the
// action executed, once it has, before any reply leaves.
type Action struct {
	Kind          ActKind
	Before, After Step
	Status        core.CommitStatus
	Reason        core.AbortReason
	Site          SiteID
}

// boundaries attaches to each action the Step boundaries around it and
// the span it records where it takes effect (RecordSpan) — the one
// place either is decided. ActFinished records its outcome's span:
// shed or abort by Reason, none for a commit.
var boundaries = [ActRetire + 1]struct {
	Before, After Step
	Span          telemetry.SpanKind
}{
	ActHold:         {BeforeCommitHold, AfterPrepareForce, telemetry.SpanHold},
	ActCommitDirect: {NoStep, NoStep, telemetry.SpanRelease},
	ActRelease:      {DuringReleaseCascade, NoStep, telemetry.SpanRelease},
	ActDecide:       {BeforeDecisionForce, NoStep, 0},
	ActDecided:      {NoStep, AfterDecisionBeforeRelease, telemetry.SpanDecide},
}

func act(kind ActKind, site SiteID) Action {
	return Action{Kind: kind, Site: site, Before: boundaries[kind].Before, After: boundaries[kind].After}
}

// RecordSpan records the action's span for cv's transaction under tc
// (nil-safe and unsampled-safe, like SpanBuffer.Record). A driver calls
// it once per action, where the action took effect, with its own
// clock's dur. The arguments come from the decision: decide carries
// Gdeps and Wave, shed Depth and Held. An outcome is an instant.
func (a Action) RecordSpan(b *telemetry.SpanBuffer, tc telemetry.TraceContext, cv *Conv, dur int64) {
	kind, r := boundaries[a.Kind].Span, &cv.req
	var arg, wave int64
	switch {
	case kind == telemetry.SpanDecide:
		arg, wave = int64(r.Gdeps), int64(r.Wave)
	case a.Kind != ActFinished || a.Reason == core.ReasonNone:
		// the table's span, if any
	case a.Reason == core.ReasonShed:
		kind, arg, wave, dur = telemetry.SpanShed, int64(r.Depth), int64(r.Held), 0
	default:
		kind, dur = telemetry.SpanAbort, 0
	}
	if kind != 0 {
		b.Record(tc, kind, uint64(cv.id), int32(a.Site), arg, wave, dur)
	}
}

// VerbOutcome is what a participant's answer to a site verb means
// (Classify); every driver switches on it.
type VerbOutcome uint8

const (
	VerbOK        VerbOutcome = iota // the verb took effect
	VerbDown                         // fault.ErrSiteDown: the site crashed; its restart recovers
	VerbGone                         // core.ErrUnknownTxn: it restarted or reconciled without the transaction
	VerbViolation                    // any other refusal: the site and the coordinator's accounting disagree
)

// Classify is the one reading of a participant's error.
func Classify(err error) VerbOutcome {
	switch {
	case err == nil:
		return VerbOK
	case errors.Is(err, fault.ErrSiteDown):
		return VerbDown
	case errors.Is(err, core.ErrUnknownTxn):
		return VerbGone
	}
	return VerbViolation
}

// At carries a site action out at its participant: the call — its
// effects left in eff — and, for every verb but the hold, Forget (the
// conversation is done with the site whatever the answer). It returns
// the reply to feed back to Step (the zero Input for revoke and abort,
// which have none) and the participant's refusal, if any: a release
// refused down or gone is skipped (the site redoes the logged commit
// in recovery), a refused undo has nothing left to undo.
func (a Action) At(p core.Participant, eff *core.Effects, id core.TxnID) (Input, error) {
	reply := Input{Site: a.Site}
	var err error
	switch a.Kind {
	case ActHold:
		reply.Kind = InHoldReply
		_, err = p.CommitHoldInto(eff, id)
		reply.Failed = err != nil
		return reply, err
	case ActCommitDirect:
		reply.Kind = InDirectReply
		var st core.CommitStatus
		if st, err = p.CommitInto(eff, id); err == nil && st != core.Committed {
			panic(fmt.Sprintf("dist: edge-free T%d pseudo-committed at site %d", id, a.Site))
		}
		reply.Failed = err != nil
	case ActRelease:
		reply.Kind = InReleaseAck
		err = p.ReleaseInto(eff, id)
	case ActAbort:
		if err = p.AbortInto(eff, id); err == nil || Classify(err) == VerbDown {
			break
		}
		fallthrough // gone, or refused because held: revoke
	case ActRevoke:
		err = p.RevokeInto(eff, id, a.Reason)
	}
	p.Forget(id)
	return reply, err
}

// Step advances cv's conversation by one input and appends the actions
// that follow to acts. It calls no site and blocks on nothing; of the
// coordinator's locks it takes only the decision log's, and only for a
// direct commit (LogDirect / UndoDirect).
// One driver at a time steps a given conversation: its committing
// owner, then — once held — whoever's Drain or SiteCrashed selected it.
func (c *Coordinator) Step(cv *Conv, in Input, acts []Action) []Action {
	n := len(cv.visited)
	switch in.Kind {
	case InCommit:
		if cv.doomed.Load() {
			// A visited site crashed before the commit point.
			return c.unwind(cv, noSite, core.ReasonSiteFailed, acts)
		}
		// A transaction that never grew a dependency edge has a provably
		// empty global dependency set, so its site commits directly: no
		// hold phase, no decision round, no coordinator mutex. Only
		// single-site transactions qualify — a direct multi-site commit
		// has no prepare records, so a crash between the per-site
		// commits would break atomicity.
		if !cv.anyEdges.Load() && n <= 1 {
			cv.direct = true
			c.tel.FastCommits.Inc()
			cv.logged = c.LogDirect(cv)
			return c.next(cv, ActCommitDirect, acts)
		}
		c.tel.Conversations.Inc()
		cv.req.Conv = cv
		return append(acts, act(ActHold, cv.visited[0]))

	case InSiteCrashed:
		if cv.state.Load() == txReleasing {
			// Past the commit point: the releases proceed, skipping the
			// dead site, and its recovery redoes the logged commit.
			return acts
		}
		if !cv.direct {
			return c.unwind(cv, in.Site, core.ReasonSiteFailed, acts)
		}
		in.Failed = true // the commit in flight to the dead site is lost
		fallthrough
	case InDirectReply:
		if in.Failed {
			if !cv.logged || c.UndoDirect(cv.id) {
				return c.unwind(cv, in.Site, core.ReasonSiteFailed, acts)
			}
			// Restart reconciliation claimed the logged decision and redid
			// the commit at the recovered site before it could be
			// withdrawn: it landed, just not through this conversation.
			// Retrying would apply it twice — it is committed.
			c.Ack(cv.id, in.Site)
		}
		cv.k++
		return c.next(cv, ActCommitDirect, acts)

	case InHoldReply:
		if in.Failed {
			return c.unwind(cv, in.Site, core.ReasonSiteFailed, acts)
		}
		cv.req.Batch = append(cv.req.Batch, in.Edges...)
		cv.req.Counts = append(cv.req.Counts, len(in.Edges))
		if cv.k++; cv.k < n {
			return append(acts, act(ActHold, cv.visited[cv.k]))
		}
		return append(acts, act(ActDecide, noSite))

	case InVerdict:
		switch r := &cv.req; {
		case r.Doomed:
			return c.unwind(cv, noSite, core.ReasonSiteFailed, acts)
		case r.Shed:
			return c.unwind(cv, noSite, core.ReasonShed, acts)
		case r.Gdeps > 0:
			// Held. Nothing is written here: from this point a Drain on
			// another goroutine may already be stepping the release.
			fin := act(ActFinished, noSite)
			fin.Status = core.PseudoCommitted
			return append(acts, fin)
		}
		fallthrough
	case InReady:
		// One participant per ack, ascending.
		cv.k = 0
		return append(acts, act(ActDecided, noSite), act(ActRelease, cv.visited[0]))

	case InAbort:
		return c.unwind(cv, in.Site, in.Reason, acts)

	case InReleaseAck:
		cv.k++
		return c.next(cv, ActRelease, acts)
	}
	panic("dist: unknown conversation input")
}

// next sends the verb (a direct commit or a release) to the next site,
// ascending, or — landed at all of them — finishes and retires.
func (c *Coordinator) next(cv *Conv, verb ActKind, acts []Action) []Action {
	if cv.k < len(cv.visited) {
		return append(acts, act(verb, cv.visited[cv.k]))
	}
	return append(acts, act(ActFinished, noSite), act(ActRetire, noSite))
}

// unwind ends the transaction aborted: its hold is revoked wherever a
// hold reply came from, every other visited site is aborted, and the
// owner learns reason. No site is skipped — one that failed, or already
// aborted the transaction itself, holds nothing and refuses, like any
// down site; recoverability makes none of it cascade.
func (c *Coordinator) unwind(cv *Conv, site SiteID, reason core.AbortReason, acts []Action) []Action {
	held := cv.k
	if cv.direct {
		held = 0
	}
	for i, sid := range cv.visited {
		a := act(ActAbort, sid)
		if i < held {
			a.Kind = ActRevoke
		}
		a.Reason = reason
		acts = append(acts, a)
	}
	fin, ret := act(ActFinished, site), act(ActRetire, noSite)
	fin.Reason, ret.Reason = reason, reason
	return append(acts, fin, ret)
}
