package dist

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/delivery"
	"repro/internal/depgraph"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// Txn is a distributed transaction handle, implementing core.Txn. Like
// core.Handle it must be driven by one goroutine at a time; separate
// transactions are fully concurrent. Operations route to the owning
// site's participant; the coordinator only gets involved when a
// dependency edge appears.
type Txn struct {
	// Conv is the coordinator's record of the transaction: id, state,
	// visited sites, the edge marks and the doomed flag.
	Conv
	c *Cluster

	reason atomic.Int32 // core.AbortReason, stored before state becomes txAborted

	// tc is the transaction's causal trace context, minted by the
	// coordinator's sampler at Begin (nil pointer when the span plane is
	// off). A remote client with its own sampler overrides it through
	// AttachTrace — a foreign goroutine relative to conversation reads,
	// hence the atomic pointer. begin stamps Begin for end-to-end
	// latency; set only when tracing is on, before the handle escapes.
	tc    atomic.Pointer[telemetry.TraceContext]
	begin time.Time

	done chan struct{} // closed at the terminal state (real commit everywhere, or abort)
}

// Trace returns the transaction's trace context (zero when the span
// plane is off).
func (t *Txn) Trace() telemetry.TraceContext {
	if p := t.tc.Load(); p != nil {
		return *p
	}
	return telemetry.TraceContext{}
}

// AttachTrace adopts an externally minted trace context — a remote
// client that roots the trace — overriding the coordinator's own
// sampling decision for this transaction. Invalid contexts and
// repeated attaches of the current context are no-ops.
func (t *Txn) AttachTrace(tc telemetry.TraceContext) {
	if !tc.Valid() || t.Trace() == tc {
		return
	}
	t.tc.Store(&tc)
}

// span records one causal span for this transaction. Nil-safe and
// unsampled-safe at every layer, so call sites stay unguarded; the
// disabled path is two predictable branches and zero allocations.
func (t *Txn) span(kind telemetry.SpanKind, site int32, object, wave, dur int64) {
	t.c.spans.Record(t.Trace(), kind, uint64(t.id), site, object, wave, dur)
}

// sampled reports whether this transaction's spans are being recorded —
// the gate for the extra clock reads that give spans durations.
func (t *Txn) sampled() bool {
	return t.c.spans != nil && t.Trace().Sampled()
}

// Done returns a channel closed when the transaction reaches its
// terminal state: the real commit has landed at every site (for held
// pseudo-commits, once the global dependency set drained) or the
// transaction aborted.
func (t *Txn) Done() <-chan struct{} { return t.done }

// Err reports how the transaction ended: nil after the real commit
// landed everywhere (and while still in flight), a *core.ErrAborted
// after an abort. Meaningful once Done's channel is closed.
func (t *Txn) Err() error {
	if t.state.Load() == txAborted {
		return &core.ErrAborted{Txn: t.id, Reason: core.AbortReason(t.reason.Load())}
	}
	return nil
}

// errState converts a non-active state into the caller-facing error.
func (t *Txn) errState() error {
	if t.state.Load() == txAborted {
		return &core.ErrAborted{Txn: t.id, Reason: core.AbortReason(t.reason.Load())}
	}
	return fmt.Errorf("%w (T%d)", ErrTxnDone, t.id)
}

// Do executes op against obj, blocking until the operation runs at the
// object's home site. It returns a *core.ErrAborted (matching
// core.ErrTxnAborted and the reason sentinels under errors.Is) if a
// site scheduler or the coordinator's union-graph cycle detection
// aborts the transaction instead.
func (t *Txn) Do(obj core.ObjectID, op adt.Op) (adt.Ret, error) {
	return t.do(nil, obj, op)
}

// DoCtx is Do with cancellation: if ctx expires while the request is
// blocked at the object's home site, the request is withdrawn from that
// site's queue (followers parked behind it are retried), the
// transaction's mirrored edges are refreshed so no stale wait-for edge
// survives at the coordinator, the transaction stays active, and
// ctx.Err() is returned. If the grant raced the cancellation, the
// operation's result is returned instead.
func (t *Txn) DoCtx(ctx context.Context, obj core.ObjectID, op adt.Op) (adt.Ret, error) {
	if err := ctx.Err(); err != nil {
		return adt.Ret{}, err
	}
	return t.do(ctx, obj, op)
}

// failSite aborts the transaction everywhere after a participant
// failure and returns the typed error. sid names the site the failure
// surfaced at (a down site, or one that restarted and no longer knows
// the transaction); pass noSite when the failed participant is not
// identifiable from this call — a doomed transaction learns only that
// some site it touched crashed.
func (t *Txn) failSite(sid SiteID) (adt.Ret, error) {
	t.c.abortEverywhere(t, noSite, core.ReasonSiteFailed, core.ReasonSiteFailed.String())
	err := &core.ErrAborted{Txn: t.id, Reason: core.ReasonSiteFailed}
	if sid == noSite {
		return adt.Ret{}, fmt.Errorf("participant crash: %w", err)
	}
	return adt.Ret{}, fmt.Errorf("site %d: %w", sid, err)
}

// siteFailure classifies an error from a participant call as a
// crash-stop failure: the site is down, or it restarted and lost the
// transaction's volatile state (fresh incarnations answer
// ErrUnknownTxn). Only fault-tolerant clusters map these to aborts;
// on a plain cluster they would be bugs and must surface.
func (c *Cluster) siteFailure(err error) bool {
	return c.faulty && (errors.Is(err, fault.ErrSiteDown) || errors.Is(err, core.ErrUnknownTxn))
}

// siteFailure is the per-transaction classification: a doomed
// transaction additionally treats any participant error as the
// crash's fault. The crash reconcile may already have presumed-abort
// revoked it at a participant whose state survived (a remote daemon
// outlives a connection blip), and that participant answers
// ErrTxnTerminated where a fresh in-process incarnation would answer
// ErrUnknownTxn — both must map to the same retryable site-failed
// abort.
func (t *Txn) siteFailure(err error) bool {
	return t.c.siteFailure(err) || (t.c.faulty && t.doomed.Load())
}

// do runs the request; a nil ctx means no cancellation.
func (t *Txn) do(ctx context.Context, obj core.ObjectID, op adt.Op) (adt.Ret, error) {
	if t.state.Load() != txActive {
		return adt.Ret{}, t.errState()
	}
	if t.doomed.Load() {
		// A site holding our operations crashed; finish the abort the
		// crash handler started. The current op's home site is not the
		// one that failed, so no site is named.
		return t.failSite(noSite)
	}
	sid := t.c.route(obj)
	s := t.c.sites[sid]

	if !t.VisitedHas(sid) {
		s.mu.Lock()
		err := s.p.Begin(t.id)
		if err == nil {
			s.txns[t.id] = t
		}
		s.mu.Unlock()
		if err != nil {
			if t.siteFailure(err) {
				return t.failSite(sid)
			}
			return adt.Ret{}, err
		}
		t.Visit(sid)
		t.c.trace(telemetry.EvBegin, uint64(t.id), int32(sid), 0)
		t.span(telemetry.SpanBegin, int32(sid), 0, 0, 0)
	}

	s.mu.Lock()
	eff := s.hub.Effects()
	dec, err := s.p.RequestInto(eff, t.id, obj, op)
	if err != nil {
		s.mu.Unlock()
		if t.siteFailure(err) {
			return t.failSite(sid)
		}
		return adt.Ret{}, err
	}
	var ch chan delivery.Msg
	if dec.Outcome == core.Blocked {
		ch = s.hub.Park(t.id)
	}
	s.hub.Deliver(eff)
	s.mu.Unlock()
	// No refreshParked here: a clean Executed/Blocked request runs no
	// settle, so no parked transaction's edges moved; the Aborted
	// branch refreshes every visited site via abortEverywhere.

	switch dec.Outcome {
	case core.Aborted:
		// The site already finalised us locally; propagate the abort
		// to every other visited site and the coordinator.
		t.c.abortEverywhere(t, sid, dec.Reason, dec.Reason.String())
		return adt.Ret{}, fmt.Errorf("site %d: %w", sid, &core.ErrAborted{Txn: t.id, Reason: dec.Reason})

	case core.Blocked:
		t.c.trace(telemetry.EvBlocked, uint64(t.id), int32(sid), 0)
		t.span(telemetry.SpanBlock, int32(sid), int64(obj), 0, 0)
		var blockStart time.Time
		if t.sampled() {
			blockStart = time.Now()
		}
		// Mirror the wait-for edges before parking: a cross-site
		// deadlock closes in the union graph even though each site's
		// local check passed (§6).
		if t.c.observe(t, sid) {
			// Unpark before recycling: a channel may only re-enter the
			// pool once no id maps to it (Recycle drops it if a grant
			// raced us and the resolution is sitting in the buffer).
			s.mu.Lock()
			s.hub.Withdraw(t.id)
			s.hub.Recycle(ch)
			s.mu.Unlock()
			t.c.abortEverywhere(t, noSite, core.ReasonDeadlock, "cross-site deadlock")
			return adt.Ret{}, fmt.Errorf("cross-site: %w", &core.ErrAborted{Txn: t.id, Reason: core.ReasonDeadlock})
		}
		var msg delivery.Msg
		if ctx == nil {
			msg = <-ch
		} else {
			select {
			case msg = <-ch:
			case <-ctx.Done():
				if t.withdraw(s, ch) {
					return adt.Ret{}, ctx.Err()
				}
				// The resolution raced the cancellation: the message
				// is in the buffer. Honour it.
				msg = <-ch
			}
		}
		t.recycle(s, ch)
		if msg.Aborted {
			t.c.abortEverywhere(t, sid, msg.Reason, msg.Reason.String())
			return adt.Ret{}, fmt.Errorf("site %d: %w", sid, &core.ErrAborted{Txn: t.id, Reason: msg.Reason})
		}
		// Granted: the wait-for edges are gone and commit dependencies
		// may have taken their place — re-mirror and re-check.
		if !blockStart.IsZero() {
			t.span(telemetry.SpanGrant, int32(sid), int64(obj), 0, int64(time.Since(blockStart)))
		}
		if t.c.observe(t, sid) {
			t.c.abortEverywhere(t, noSite, core.ReasonCommitCycle, "cross-site dependency cycle")
			return adt.Ret{}, fmt.Errorf("cross-site: %w", &core.ErrAborted{Txn: t.id, Reason: core.ReasonCommitCycle})
		}
		return msg.Ret, nil

	default: // Executed
		t.span(telemetry.SpanRequest, int32(sid), int64(obj), 0, 0)
		if t.c.observe(t, sid) {
			t.c.abortEverywhere(t, noSite, core.ReasonCommitCycle, "cross-site dependency cycle")
			return adt.Ret{}, fmt.Errorf("cross-site: %w", &core.ErrAborted{Txn: t.id, Reason: core.ReasonCommitCycle})
		}
		return dec.Ret, nil
	}
}

// recycle returns a drained park channel to the site's pool
// (receiver-side recycling: only this goroutine knows the buffered
// message, if any, has been consumed).
func (t *Txn) recycle(s *site, ch chan delivery.Msg) {
	s.mu.Lock()
	s.hub.Recycle(ch)
	s.mu.Unlock()
}

// withdraw pulls t's blocked request out of site s on cancellation,
// reporting whether it was still parked (false means the resolution is
// already in the channel buffer). On success the park channel is
// recycled (no message can arrive once the hub entry is gone), the
// site queue is rescanned for followers, the mirror is refreshed, and
// the transaction remains active.
func (t *Txn) withdraw(s *site, ch chan delivery.Msg) bool {
	s.mu.Lock()
	if !s.hub.Withdraw(t.id) {
		s.mu.Unlock()
		return false
	}
	s.hub.Recycle(ch)
	eff := s.hub.Effects()
	if err := s.p.WithdrawInto(eff, t.id); err == nil {
		s.hub.Deliver(eff)
	}
	s.mu.Unlock()
	// Shed the stale wait-for edges from the union graph and re-mirror
	// any parked transactions the withdrawal's retries re-blocked.
	t.c.unobserve(t, s.id)
	t.c.refreshParked(s)
	return true
}

// noSite is the abortEverywhere sentinel for "no site has finalised
// the transaction yet".
const noSite SiteID = -1

// Commit runs the paper's distributed commit conversation: the
// transaction pseudo-commits-and-holds at every site it visited; if
// its global dependency set (out-degree in the mirrored union graph)
// is empty the coordinator releases the real commit everywhere and
// returns Committed. Otherwise it returns PseudoCommitted — complete
// from the caller's perspective — and the coordinator releases it
// automatically once the transactions it depends on terminate; Done
// observes that.
func (t *Txn) Commit() (core.CommitStatus, error) {
	switch t.state.Load() {
	case txActive:
	case txPseudo, txReleasing:
		return core.PseudoCommitted, nil
	case txCommitted:
		return core.Committed, nil
	default:
		return 0, t.errState()
	}
	if t.doomed.Load() {
		// A site holding our operations crashed before the commit
		// point; the promise cannot be kept.
		_, err := t.failSite(noSite)
		return 0, err
	}

	sids := t.visited
	c := t.c

	// Fast path: a transaction that never grew a dependency edge has a
	// provably empty global dependency set (edges only arise from its
	// own requests, and every request left zero), so each site can
	// commit directly — no hold phase, no coordinator conversation,
	// and (unless someone mirrored a commit dependency on us) no
	// coordinator lock of any kind after Begin: finalisation leaves
	// the sharded registry and stops. This is the path perfectly
	// partitioned traffic takes, and it is what makes sharded
	// throughput scale with cores. On a fault-tolerant cluster only
	// single-site transactions qualify: a direct multi-site commit has
	// no prepare records, so a crash between the per-site commits
	// would break atomicity — multi-site transactions go through the
	// hold conversation even when edge-free.
	if !t.anyEdges.Load() && (!c.faulty || len(sids) <= 1) {
		c.tel.FastCommits.Inc()
		logged := c.LogDirect(&t.Conv)
		for _, sid := range sids {
			s := c.sites[sid]
			s.mu.Lock()
			eff := s.hub.Effects()
			st, err := s.p.CommitInto(eff, t.id)
			if err == nil {
				s.hub.Deliver(eff)
				s.forget(t.id)
			}
			s.mu.Unlock()
			if err != nil {
				if logged && !c.UndoDirect(t.id) {
					// Restart reconciliation claimed the logged decision
					// and redid the commit at the recovered site before
					// we could withdraw it: the push landed, just not
					// through this conversation. Retrying would push
					// twice — report Committed instead.
					c.ackRelease(t.id, sid)
					s.mu.Lock()
					s.forget(t.id)
					s.mu.Unlock()
					c.refreshParked(s)
					continue
				}
				if t.siteFailure(err) {
					_, ferr := t.failSite(sid)
					return 0, ferr
				}
				return 0, fmt.Errorf("dist: commit of T%d at site %d: %w", t.id, sid, err)
			}
			if st != core.Committed {
				panic(fmt.Sprintf("dist: edge-free T%d pseudo-committed at site %d", t.id, sid))
			}
			if logged {
				c.ackRelease(t.id, sid)
			}
			t.span(telemetry.SpanRelease, int32(sid), 0, 0, 0)
			c.refreshParked(s)
		}
		// Others may have mirrored commit dependencies on us; drain them.
		c.landed(t)
		c.finalizeTxn(t)
		return core.Committed, nil
	}

	// Hold at every site, copying the dependency-edge export out of the
	// same critical section (one site round per participant). The
	// exports are then mirrored through the conversation pipeline —
	// one mirror update per touched site, one coordinator lock round
	// per conversation WAVE (concurrent conversations share a round) —
	// instead of re-locking the coordinator once per site. Batching is
	// safe because the committing owner is the only writer for its
	// (site, txn) mirror pairs (it is not parked, so refreshParked
	// never touches it), and staleness against concurrent global
	// finalisations is handled by filterLive at observe time, exactly
	// as on the per-site path.
	c.tel.Conversations.Inc()
	holdStart := time.Now()
	sampled := t.sampled()
	var batch []depgraph.Edge
	var counts []int
	for _, sid := range sids {
		c.step(BeforeCommitHold, t.id, sid)
		var siteStart time.Time
		if sampled {
			siteStart = time.Now()
		}
		s := c.sites[sid]
		s.mu.Lock()
		eff := s.hub.Effects()
		_, err := s.p.CommitHoldInto(eff, t.id)
		if err == nil {
			s.hub.Deliver(eff)
			edges := s.edges(t.id)
			batch = append(batch, edges...)
			counts = append(counts, len(edges))
		}
		s.mu.Unlock()
		if err != nil {
			if t.siteFailure(err) {
				_, ferr := t.failSite(sid)
				return 0, ferr
			}
			return 0, fmt.Errorf("dist: commit-hold of T%d at site %d: %w", t.id, sid, err)
		}
		c.trace(telemetry.EvHold, uint64(t.id), int32(sid), 0)
		if sampled {
			t.span(telemetry.SpanHold, int32(sid), 0, 0, int64(time.Since(siteStart)))
		}
		c.step(AfterPrepareForce, t.id, sid)
	}
	c.tel.HoldNanos.Observe(uint64(time.Since(holdStart)))
	c.step(BeforeDecisionForce, t.id, noSite)

	// The decision round runs through the conversation pipeline: one
	// coordinator critical section mirrors every site's export, sums
	// the global dependency set and decides — for this conversation
	// and every concurrent one queued in the same wave, with their
	// commit decisions forced to the log as one group. The doomed
	// re-check runs under the same lock the crash handler dooms under,
	// so a crash during the hold phase cannot slip past the commit
	// point.
	decideStart := time.Now()
	req := &DecideReq{Conv: &t.Conv, Batch: batch, Counts: counts}
	c.decide(req)
	gdeps := req.Gdeps
	c.tel.DecideNanos.Observe(uint64(time.Since(decideStart)))
	c.trace(telemetry.EvDecide, uint64(t.id), int32(noSite), int64(gdeps))
	if sampled {
		t.span(telemetry.SpanDecide, int32(noSite), int64(gdeps), int64(req.Wave), int64(time.Since(decideStart)))
	}
	if req.Doomed {
		_, err := t.failSite(noSite)
		return 0, err
	}
	if req.Shed {
		c.trace(telemetry.EvShed, uint64(t.id), int32(noSite), int64(gdeps))
		t.span(telemetry.SpanShed, int32(noSite), int64(gdeps), int64(req.Wave), 0)
		// The hold policy refused to grow the convoy: revoke the hold
		// at every participant (recoverability makes this abort
		// non-cascading) and surface a retryable abort — Store.Run and
		// the workload harness restart the transaction under a fresh
		// id, by which time the convoy may have drained.
		c.unwind(t, noSite, core.ReasonShed, core.ReasonShed.String(), true)
		return 0, fmt.Errorf("hold shed: %w", &core.ErrAborted{Txn: t.id, Reason: core.ReasonShed})
	}

	if gdeps > 0 {
		if c.obs != nil {
			c.obs.Held(t.id, gdeps)
		}
		return core.PseudoCommitted, nil
	}

	// Global dependency set empty: land the real commit everywhere.
	c.step(AfterDecisionBeforeRelease, t.id, noSite)
	releaseStart := time.Now()
	c.releaseAt(t)
	c.tel.ReleaseNanos.Observe(uint64(time.Since(releaseStart)))
	c.landed(t)
	c.finalizeTxn(t)
	return core.Committed, nil
}

// CommitCtx is Commit guarded by ctx: if ctx is already done no commit
// conversation is started, ctx.Err() is returned, and the transaction
// remains active — in particular, still abortable.
func (t *Txn) CommitCtx(ctx context.Context) (core.CommitStatus, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return t.Commit()
}

// Abort rolls the transaction back at every site. Aborting an
// already-aborted transaction is a no-op; pseudo-committed transactions
// cannot abort (they have promised to commit).
func (t *Txn) Abort() error {
	switch t.state.Load() {
	case txActive:
	case txAborted:
		return nil // already gone
	default:
		return fmt.Errorf("%w: pseudo-committed transactions cannot abort", ErrTxnDone)
	}
	t.c.abortEverywhere(t, noSite, core.ReasonUser, core.ReasonUser.String())
	return nil
}
