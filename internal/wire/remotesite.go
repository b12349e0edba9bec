package wire

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// RemoteSite is a dist.SiteBackend whose scheduler lives in another
// process behind a Peer connection. The coordinator drives it exactly
// like an in-process site; every participant call but Begin, which
// rides the transaction's first request, is one RPC, and OutEdgesAppend
// is served from a local edge cache refreshed by the batched edge
// report each mutating response carries — so the commit conversation's
// hold phase costs one round trip per site and the observe path costs
// none.
//
// The cache needs no versioning: dist serializes every participant
// call to a site under that site's mutex, so a response's report is
// always the newest information about the site when it is applied.
//
// RemoteSite is also the cluster's dist.CrashRestarter: a lost
// connection is reported as a crash (calls answer fault.ErrSiteDown),
// and Restart reconciles the re-reachable daemon against the
// coordinator's decision log — orphaned actives are aborted, in-doubt
// holds released when their decision was logged and revoked (presumed
// abort) when it was not.
type RemoteSite struct {
	peer *Peer
	sid  uint16

	// decided reports whether a commit decision for the transaction is
	// in the coordinator's log. Nil is allowed on clusters that never
	// restart sites (plain transport tests); Restart then treats every
	// in-doubt hold as undecided.
	decided func(core.TxnID) bool

	// traceOf resolves a transaction's trace context so participant
	// calls carry it in their frames (the coordinator installs it via
	// SetTraceLookup; nil propagates nothing). Installed before traffic
	// starts, so reads need no lock.
	traceOf func(core.TxnID) telemetry.TraceContext

	mu   sync.Mutex
	down bool
	// adopting marks Restart's reconcile: the site is still down, but
	// the reconcile's participant verbs pass guard. Reads wait for it
	// to end, so none sees a half-reconciled site.
	adopting bool
	cache    map[core.TxnID][]depgraph.Edge
	// owed holds the transactions begun here whose begin has not reached
	// the daemon: it rides their first request. Until then the daemon
	// holds nothing of them, so every other verb answers locally.
	owed map[core.TxnID]struct{}
}

// NewRemoteSite builds a backend for global site sid served by the
// daemon behind peer. decided (may be nil) is the coordinator's
// decision-log lookup, consulted when Restart resolves in-doubt holds.
func NewRemoteSite(peer *Peer, sid uint16, decided func(core.TxnID) bool) *RemoteSite {
	return &RemoteSite{
		peer:    peer,
		sid:     sid,
		decided: decided,
		cache:   make(map[core.TxnID][]depgraph.Edge),
		owed:    make(map[core.TxnID]struct{}),
	}
}

// SiteID returns the global site id this backend addresses.
func (rs *RemoteSite) SiteID() uint16 { return rs.sid }

// SetTraceLookup installs the coordinator's trace-context resolver:
// every participant call addressed to a transaction then carries that
// transaction's context in its frame, which is what lets the remote
// daemon's spans stitch into the coordinator's trace. Call before the
// backend serves traffic.
func (rs *RemoteSite) SetTraceLookup(f func(core.TxnID) telemetry.TraceContext) {
	rs.traceOf = f
}

// tc resolves the transaction's trace context (zero when tracing is
// off or no resolver is installed).
func (rs *RemoteSite) tc(id core.TxnID) telemetry.TraceContext {
	if rs.traceOf == nil {
		return telemetry.TraceContext{}
	}
	return rs.traceOf(id)
}

// mapErr turns transport loss into the sentinel the coordinator's
// failure handling branches on. Typed remote errors pass through
// (decodeErr already rebuilt their chains).
func (rs *RemoteSite) mapErr(err error) error {
	if errors.Is(err, ErrPeerDown) {
		return fmt.Errorf("wire: site %d unreachable: %w", rs.sid, fault.ErrSiteDown)
	}
	return err
}

// req starts a request payload addressed to this site.
func (rs *RemoteSite) req(extra int) []byte {
	b := make([]byte, 0, 2+extra)
	return appendU16(b, rs.sid)
}

// guard fails fast while the site is in the crashed state — between
// the cluster observing the connection loss and Restart completing
// reconciliation, no call but the reconcile's own verbs may reach the
// daemon (it could be back up with unreconciled orphans). It also
// reports whether id's begin is still owed; take settles the debt, for
// the request about to carry the begin.
func (rs *RemoteSite) guard(id core.TxnID, take bool) (owed bool, err error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	_, owed = rs.owed[id]
	if take {
		delete(rs.owed, id)
	}
	return owed, rs.downErr(false)
}

// readErr is guard for the calls that read (or register) rather than
// run a participant verb: they are refused until Restart's reconcile
// ended.
func (rs *RemoteSite) readErr() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.downErr(true)
}

// downErr is guard's and readErr's verdict; rs.mu is held.
func (rs *RemoteSite) downErr(read bool) error {
	if rs.down && (read || !rs.adopting) {
		return fmt.Errorf("wire: site %d crashed: %w", rs.sid, fault.ErrSiteDown)
	}
	return nil
}

// applyReport replaces the edge cache with the response's report of
// every live transaction at the site.
func (rs *RemoteSite) applyReport(sets []edgeSet) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	cache := make(map[core.TxnID][]depgraph.Edge, len(sets))
	for _, s := range sets {
		cache[s.txn] = s.edges
	}
	rs.cache = cache
}

// ---- core.Participant ----

// Begin records the transaction as owed to the site and sends nothing:
// as in the paper's conversation, the daemon first hears of it through
// its first request here, which carries the begin.
func (rs *RemoteSite) Begin(id core.TxnID) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if err := rs.downErr(false); err != nil {
		return err
	}
	rs.owed[id] = struct{}{}
	return nil
}

// RequestInto executes op on obj at the remote site, beginning the
// transaction there first when its begin is owed. A daemon that already
// has a live transaction under this id refuses the begin with
// core.ErrDuplicateTxn; the id then stays owed, so no later verb of
// this transaction can reach the other holder.
func (rs *RemoteSite) RequestInto(eff *core.Effects, id core.TxnID, obj core.ObjectID, op adt.Op) (core.Decision, error) {
	eff.Reset()
	begin, err := rs.guard(id, true)
	if err != nil {
		return core.Decision{}, err
	}
	b := appendRequest(rs.req(33), id, begin, obj, op)
	r, err := rs.peer.call(kRequest, rs.tc(id), b)
	if err != nil {
		if begin && errors.Is(err, core.ErrDuplicateTxn) {
			_ = rs.Begin(id) // owe it again; a site crashed meanwhile owes nothing
		}
		return core.Decision{}, rs.mapErr(err)
	}
	dec := core.Decision{Outcome: core.Outcome(r.u8())}
	dec.Ret = r.ret()
	dec.Reason = core.AbortReason(r.u8())
	r.effects(eff)
	rs.applyReport(r.edgeSets())
	return dec, r.err
}

// CommitInto commits the transaction locally at the remote site.
func (rs *RemoteSite) CommitInto(eff *core.Effects, id core.TxnID) (st core.CommitStatus, err error) {
	err = rs.effectsCall(kCommit, eff, id, func(r *reader) { st = core.CommitStatus(r.u8()) })
	return st, err
}

// CommitHoldInto pseudo-commits and holds at the remote site. The
// response's edge report is what makes the conversation's subsequent
// edge read free: dist calls OutEdgesAppend right after this under the
// same site mutex, and the cache already holds the answer.
func (rs *RemoteSite) CommitHoldInto(eff *core.Effects, id core.TxnID) (int, error) {
	deg := 0
	if err := rs.effectsCall(kCommitHold, eff, id, func(r *reader) { deg = clampLen(r.i64()) }); err != nil {
		return 0, err
	}
	if deg < 0 {
		return 0, fmt.Errorf("wire: site %d: bad out-degree", rs.sid)
	}
	return deg, nil
}

// ReleaseInto really commits a held transaction at the remote site.
func (rs *RemoteSite) ReleaseInto(eff *core.Effects, id core.TxnID) error {
	return rs.effectsCall(kRelease, eff, id, nil)
}

// AbortInto aborts the transaction at the remote site.
func (rs *RemoteSite) AbortInto(eff *core.Effects, id core.TxnID) error {
	return rs.effectsCall(kAbort, eff, id, nil)
}

// WithdrawInto abandons the transaction's blocked request.
func (rs *RemoteSite) WithdrawInto(eff *core.Effects, id core.TxnID) error {
	return rs.effectsCall(kWithdraw, eff, id, nil)
}

// RevokeInto aborts a held pseudo-committed transaction (presumed
// abort) at the remote site.
func (rs *RemoteSite) RevokeInto(eff *core.Effects, id core.TxnID, reason core.AbortReason) error {
	return rs.effectsCall(kRevoke, eff, id, nil, uint8(reason))
}

// effectsCall is the shared shape of every verb after a transaction's
// first request: the txn id (and a revoke's reason) out; the verb's
// own answer fields, read by head when non-nil, then the effects and
// the edge report back. A transaction whose begin is still owed did
// nothing at the daemon, so it answers locally, as an empty one would:
// no effects, no edges, and a commit that commits.
func (rs *RemoteSite) effectsCall(kind uint8, eff *core.Effects, id core.TxnID, head func(*reader), extra ...byte) error {
	eff.Reset()
	if owed, err := rs.guard(id, false); err != nil || owed {
		return err
	}
	b := append(appendU64(rs.req(8+len(extra)), uint64(id)), extra...)
	r, err := rs.peer.call(kind, rs.tc(id), b)
	if err != nil {
		return rs.mapErr(err)
	}
	if head != nil {
		head(r)
	}
	r.effects(eff)
	rs.applyReport(r.edgeSets())
	return r.err
}

// OutEdgesAppend serves the transaction's out-edges from the cache —
// no network. dist reads edges only after a mutating call on the same
// site mutex, so the cache is current by construction.
func (rs *RemoteSite) OutEdgesAppend(id core.TxnID, buf []depgraph.Edge) []depgraph.Edge {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append(buf[:0], rs.cache[id]...)
}

// Forget drops the transaction's bookkeeping. It is fire-and-forget on
// the wire (correlation id 0): nothing downstream depends on its
// completion, so the conversation does not wait on it. Forgetting an
// owed transaction settles the debt and sends nothing.
func (rs *RemoteSite) Forget(id core.TxnID) {
	rs.mu.Lock()
	delete(rs.cache, id)
	rs.mu.Unlock()
	if owed, err := rs.guard(id, true); err != nil || owed {
		return
	}
	rs.peer.oneway(kForget, appendU64(rs.req(8), uint64(id)))
}

// ---- dist.SiteBackend extras ----

// Register installs the object at the remote site. Only the id
// crosses the wire: the daemon resolves the type and classifier from
// its own workload spec (see workload.ParseSpec), because adt.Type
// carries behaviour that cannot be serialised.
func (rs *RemoteSite) Register(id core.ObjectID, typ adt.Type, class compat.Classifier) error {
	if err := rs.readErr(); err != nil {
		return err
	}
	_, _ = typ, class
	r, err := rs.peer.call(kRegister, telemetry.TraceContext{}, appendU64(rs.req(8), uint64(id)))
	if err != nil {
		return rs.mapErr(err)
	}
	return r.err
}

// SetFactory is a documented no-op: remote daemons install their
// factory from the cluster config's workload spec at startup, so both
// processes agree on object types without closures crossing the wire.
func (rs *RemoteSite) SetFactory(f func(core.ObjectID) (adt.Type, compat.Classifier)) {}

// StatsSnapshot fetches the remote scheduler's counters.
func (rs *RemoteSite) StatsSnapshot() core.Stats {
	if err := rs.readErr(); err != nil {
		return core.Stats{}
	}
	r, err := rs.peer.call(kStats, telemetry.TraceContext{}, rs.req(0))
	if err != nil {
		return core.Stats{}
	}
	st := r.stats()
	if r.err != nil {
		return core.Stats{}
	}
	return st
}

// ObjectState fetches the object's current state as a RemoteState
// summary (description plus length).
func (rs *RemoteSite) ObjectState(id core.ObjectID) (adt.State, error) {
	return rs.stateCall(id, false)
}

// CommittedState fetches the object's committed state summary.
func (rs *RemoteSite) CommittedState(id core.ObjectID) (adt.State, error) {
	return rs.stateCall(id, true)
}

func (rs *RemoteSite) stateCall(id core.ObjectID, committed bool) (adt.State, error) {
	if err := rs.readErr(); err != nil {
		return nil, err
	}
	b := appendBool(appendU64(rs.req(9), uint64(id)), committed)
	r, err := rs.peer.call(kStateLen, telemetry.TraceContext{}, b)
	if err != nil {
		return nil, rs.mapErr(err)
	}
	st := &RemoteState{Desc: r.str(), N: int(r.i64())}
	if r.err != nil {
		return nil, r.err
	}
	return st, nil
}

// TxnState fetches the transaction's state string; transport loss
// reads as "site-down", matching fault.Crashable. An owed transaction
// is "active", as it would be after a local Begin.
func (rs *RemoteSite) TxnState(id core.TxnID) string {
	if rs.readErr() != nil {
		return "site-down"
	}
	if owed, _ := rs.guard(id, false); owed {
		return "active"
	}
	r, err := rs.peer.call(kTxnState, telemetry.TraceContext{}, appendU64(rs.req(8), uint64(id)))
	if err != nil {
		return "site-down"
	}
	s := r.str()
	if r.err != nil {
		return "unknown"
	}
	return s
}

// ---- dist.CrashRestarter ----

// Crash marks the site failed: the edge cache and the owed begins are
// dropped and every call answers fault.ErrSiteDown until Restart. The
// cluster invokes it when the peer connection dies (and in tests, to
// simulate a failure).
func (rs *RemoteSite) Crash() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.down, rs.adopting = true, false
	rs.cache = make(map[core.TxnID][]depgraph.Edge)
	clear(rs.owed)
	return nil
}

// Down reports whether the site is in the crashed state.
func (rs *RemoteSite) Down() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.down
}

// Restart reconciles a re-reachable daemon with the coordinator's
// decision log and brings the site back into rotation. The daemon
// reports its live transactions, and dist.Reconcile resolves them, as
// it does in the simulator: orphaned actives are aborted, and in-doubt
// holds are released when their decision was logged (reported in
// Redone, which the cluster acks) and revoked (presumed abort) when it
// was not, a release or redo only once its out-edges drained in the
// response reports. Action.At forgets each at the daemon, and so does
// Restart each transaction the daemon reports as terminated (the loss
// swallowed its forget), so the daemon keeps nothing the reconcile
// settled.
//
// From the adopt snapshot on the site is adopting: the verbs pass
// guard, reads are still refused, and a failure crashes the site
// again. No other verb reaches it meanwhile: dist holds the site mutex
// across every participant call and across Crash and Restart, and the
// daemon refuses older connections once this one adopted.
//
// The same routine serves both reconnect-after-blip (daemon kept its
// state; the coordinator doomed what it had to while the site was
// unreachable) and coordinator startup adoption (the daemon outlived a
// coordinator crash), because resolution is purely log-driven per
// transaction.
func (rs *RemoteSite) Restart() (rep fault.RecoveryReport, err error) {
	if !rs.peer.Up() {
		return rep, fmt.Errorf("wire: site %d still unreachable: %w", rs.sid, fault.ErrSiteDown)
	}
	r, err := rs.peer.call(kAdopt, telemetry.TraceContext{}, rs.req(0))
	if err != nil {
		return rep, rs.mapErr(err)
	}
	n := r.count(9)
	survivors := make([]dist.Survivor, 0, n)
	for ; n > 0; n-- {
		survivors = append(survivors, dist.Survivor{Txn: core.TxnID(r.u64()), Held: r.u8() == adoptHeld})
	}
	sets := r.edgeSets()
	if r.err != nil {
		return rep, r.err
	}
	rs.applyReport(sets)
	rs.mu.Lock()
	rs.adopting = true
	rs.mu.Unlock()
	defer func() {
		if err != nil {
			_ = rs.Crash()
		}
	}()
	// Both lists ascend, and the listing is a subset of the report.
	for i, j := 0, 0; i < len(sets); i++ {
		if j < len(survivors) && survivors[j].Txn == sets[i].txn {
			j++
			continue
		}
		rs.Forget(sets[i].txn)
	}
	if rep, err = dist.Reconcile(rs, survivors, rs.decided, nil); err != nil {
		return rep, fmt.Errorf("wire: site %d: %w", rs.sid, err)
	}
	rs.mu.Lock()
	rs.down, rs.adopting = false, false
	rs.mu.Unlock()
	return rep, nil
}

// RemoteState is the summary form object state crosses the wire in: a
// printable description plus the state's length when it has one (-1
// otherwise). Conservation checks over the wire sum Len.
type RemoteState struct {
	Desc string
	N    int
}

// Clone returns a copy.
func (s *RemoteState) Clone() adt.State { c := *s; return &c }

// Equal compares against another remote summary.
func (s *RemoteState) Equal(o adt.State) bool {
	r, ok := o.(*RemoteState)
	return ok && r.Desc == s.Desc && r.N == s.N
}

// String returns the remote state's own description.
func (s *RemoteState) String() string { return s.Desc }

// Len is the remote state's length (-1 when the type has none).
func (s *RemoteState) Len() int { return s.N }
