package dist

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/delivery"
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
	// coordinator's span buffer at Begin (zero when the span plane is off):
	// tc.Sampled() gates the clock reads that give spans durations.
	// begin stamps Begin for end-to-end latency; both are set only when
	// tracing is on, before the handle escapes. commit stamps the
	// commit conversation's start (its first hold), where the decide
	// span's Dur starts.
	tc            telemetry.TraceContext
	begin, commit time.Time

	done chan struct{} // closed at the terminal state (real commit everywhere, or abort)
}

// Trace returns the transaction's trace context (zero when the span
// plane is off).
func (t *Txn) Trace() telemetry.TraceContext { return t.tc }

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

// abort unwinds the active transaction everywhere (the script's
// InAbort: skip names a site whose own scheduler already aborted it
// there) — which may release transactions that depended on it, though
// recoverability means the abort itself does not cascade into them —
// and returns the caller-facing error, see abortedErr for at.
func (t *Txn) abort(skip, at SiteID, reason core.AbortReason) (adt.Ret, error) {
	t.c.run(t, Input{Kind: InAbort, Site: skip, Reason: reason})
	return adt.Ret{}, t.abortedErr(at, reason)
}

// abortedErr is the caller-facing error of an abort the cluster
// initiated. at names the site it surfaced at — the one that aborted
// the transaction locally, is down, or restarted without it — and is
// noSite when there is none to name: the union graph closed a cycle,
// or a doomed transaction learns only that some site it touched
// crashed.
func (t *Txn) abortedErr(at SiteID, reason core.AbortReason) error {
	err := &core.ErrAborted{Txn: t.id, Reason: reason}
	switch {
	case reason == core.ReasonShed:
		return fmt.Errorf("hold shed: %w", err)
	case at != noSite:
		return fmt.Errorf("site %d: %w", at, err)
	case reason == core.ReasonSiteFailed:
		return fmt.Errorf("participant crash: %w", err)
	}
	return fmt.Errorf("cross-site: %w", err)
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
		return t.abort(noSite, noSite, core.ReasonSiteFailed)
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
			if Classify(err) != VerbViolation { // down or gone: a crash-stop failure
				return t.abort(noSite, sid, core.ReasonSiteFailed)
			}
			return adt.Ret{}, err
		}
		t.Visit(sid)
	}

	s.mu.Lock()
	eff := s.hub.Effects()
	dec, err := s.p.RequestInto(eff, t.id, obj, op)
	if err != nil {
		s.mu.Unlock()
		if Classify(err) != VerbViolation {
			return t.abort(noSite, sid, core.ReasonSiteFailed)
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
	// branch refreshes every visited site as it unwinds.

	switch dec.Outcome {
	case core.Aborted:
		// The site already finalised us locally; propagate the abort
		// to every other visited site and the coordinator.
		return t.abort(sid, sid, dec.Reason)

	case core.Blocked:
		t.c.spans.Record(t.tc, telemetry.SpanBlock, uint64(t.id), int32(sid), int64(obj), 0, 0)
		var blockStart time.Time
		if t.tc.Sampled() {
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
			return t.abort(noSite, noSite, core.ReasonDeadlock)
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
			return t.abort(sid, sid, msg.Reason)
		}
		// Granted: the wait-for edges are gone and commit dependencies
		// may have taken their place — re-mirror and re-check.
		if !blockStart.IsZero() {
			t.c.spans.Record(t.tc, telemetry.SpanGrant, uint64(t.id), int32(sid), int64(obj), 0, int64(time.Since(blockStart)))
		}
		if t.c.observe(t, sid) {
			return t.abort(noSite, noSite, core.ReasonCommitCycle)
		}
		return msg.Ret, nil

	default: // Executed
		t.c.spans.Record(t.tc, telemetry.SpanRequest, uint64(t.id), int32(sid), int64(obj), 0, 0)
		if t.c.observe(t, sid) {
			return t.abort(noSite, noSite, core.ReasonCommitCycle)
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

// noSite is the "no site" sentinel: a coordinator-level action or
// boundary, an abort no site carried out first.
const noSite SiteID = -1

// Commit runs the paper's distributed commit conversation: the
// transaction pseudo-commits-and-holds at every site it visited; if
// its global dependency set (out-degree in the mirrored union graph)
// is empty the coordinator releases the real commit everywhere and
// returns Committed. Otherwise it returns PseudoCommitted — complete
// from the caller's perspective — and the coordinator releases it once
// the transactions it depends on terminate; Done observes that. A
// transaction that never grew a dependency edge commits at its sites
// directly — the path partitioned traffic takes, and what lets sharded
// throughput scale with cores. The sequencing is Coordinator.Step's;
// this goroutine executes it (Cluster.exec).
func (t *Txn) Commit() (core.CommitStatus, error) {
	switch t.state.Load() {
	case txActive:
		fin, bug := t.c.run(t, Input{Kind: InCommit})
		switch {
		case bug != nil:
			return 0, bug
		case fin.Reason != core.ReasonNone:
			return 0, t.abortedErr(fin.Site, fin.Reason)
		}
		return fin.Status, nil
	case txPseudo, txReleasing:
		return core.PseudoCommitted, nil
	case txCommitted:
		return core.Committed, nil
	}
	return 0, t.errState()
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
	t.abort(noSite, noSite, core.ReasonUser)
	return nil
}
