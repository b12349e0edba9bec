package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/depgraph"
)

// schedScratch holds the scheduler's reusable buffers. Every holder
// list, affected-object list and queue snapshot the protocol's inner
// loops need lives here, grown once and reused, so a steady-state
// RequestInto+CommitInto of a commuting operation performs zero heap
// allocations. All fields follow the same discipline: a consumer takes
// field[:0], appends, and stores the result back so the grown capacity
// survives.
type schedScratch struct {
	conflicts []TxnID // classifyAgainstLog conflict holders
	recovs    []TxnID // classifyAgainstLog recoverable holders
	fairWaits []TxnID // conflictsWithBlocked waiters

	affected []ObjectID // finalize's touched-object list

	// dependants holds one reusable buffer per finalize recursion
	// depth: a cascading commit at depth d iterates its dependant list
	// while deeper finalizes fill theirs.
	dependants [][]TxnID
	depth      int

	removed   []logEntry      // removeTxnIntentions' extracted entries
	loggedOps []adt.Op        // removeTxnIntentions' pre-removal log, for the abort restore
	undoLater []adt.UndoEntry // removeTxnUndo's suffix buffer

	retrySnap    []*request // retryObject's queue snapshot
	stillBlocked []*request // retryObject's fairness gate
}

// Scheduler is the semantics-based concurrency controller. It is safe
// for concurrent use; every public method runs under one mutex, so calls
// are serialised and deterministic given a call order. For parallelism
// beyond one scheduler, shard objects across several schedulers behind
// the Participant interface (see internal/dist).
type Scheduler struct {
	mu      sync.Mutex
	opts    Options
	store   objectStore
	txns    txnStore
	g       *depgraph.Graph
	nextSeq uint64
	stats   Stats
	sc      schedScratch

	// pendingRetry holds the objects whose blocked queues must be
	// rescanned before the current call returns, ascending and without
	// duplicates (see queueRetry).
	pendingRetry []ObjectID

	// reqFree pools retired blocked-path requests for reuse; reqGrave
	// parks requests retired during the current call until its end, so
	// a pooled request is never handed out while retryObject's queue
	// snapshot may still alias it (stale entries are recognised by
	// pointer identity).
	reqFree  []*request
	reqGrave []*request
}

// NewScheduler returns a scheduler with the given options.
func NewScheduler(opts Options) *Scheduler {
	return &Scheduler{
		opts:  opts,
		store: newObjectStore(opts.Recovery, opts.Predicate),
		txns:  newTxnStore(),
		g:     depgraph.New(),
	}
}

// SetFactory installs a lazy object constructor: the first request
// against an unregistered object id calls it. The simulator uses this so
// a 1000-object database only materialises touched objects.
func (s *Scheduler) SetFactory(f func(ObjectID) (adt.Type, compat.Classifier)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store.setFactory(f)
}

// Register creates the object eagerly with an explicit type and
// classifier. The classifier should be the plain (recoverability-aware)
// table even under PredCommutativity; the scheduler applies the
// predicate itself (composed once at registration, not per request).
func (s *Scheduler) Register(id ObjectID, typ adt.Type, class compat.Classifier) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.register(id, typ, class)
}

// ObjectState returns a snapshot (clone) of the object's materialised
// state, for inspection by examples and tests.
func (s *Scheduler) ObjectState(id ObjectID) (adt.State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.store.get(id)
	if !ok {
		return nil, ErrUnknownObject
	}
	return o.cur.Clone(), nil
}

// CommittedState returns a snapshot of the object's committed (base)
// state under intentions-list recovery; under undo-log recovery it
// returns the materialised state (there is no separate base).
func (s *Scheduler) CommittedState(id ObjectID) (adt.State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.store.get(id)
	if !ok {
		return nil, ErrUnknownObject
	}
	if s.opts.Recovery == RecoveryIntentions {
		return o.base.Clone(), nil
	}
	return o.cur.Clone(), nil
}

// Begin registers a new transaction.
func (s *Scheduler) Begin(id TxnID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.txns.begin(id)
	return err
}

// RequestInto asks to execute op on obj for transaction id,
// implementing Figure 2 of the paper. The Decision reports the
// immediate outcome; eff (reset on entry) receives anything that
// happened downstream (an abort of the requester can unblock other
// transactions and cascade commits). The buffer is caller-owned and
// reusable: the delivery layer passes one Effects per lock domain, so
// the steady-state conversation between a blocking front end and the
// scheduler allocates nothing.
func (s *Scheduler) RequestInto(eff *Effects, id TxnID, obj ObjectID, op adt.Op) (Decision, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	eff.Reset()
	dec, err := s.requestLocked(eff, id, obj, op)
	s.drainRetired()
	return dec, err
}

func (s *Scheduler) requestLocked(eff *Effects, id TxnID, obj ObjectID, op adt.Op) (Decision, error) {
	t, err := s.txns.lookup(id)
	if err != nil {
		return Decision{}, err
	}
	switch t.state {
	case stActive:
	case stBlocked:
		return Decision{}, ErrTxnBlocked
	case stPseudo:
		return Decision{}, ErrPseudoRequest
	default:
		return Decision{}, ErrTxnTerminated
	}
	o, err := s.store.lookup(obj)
	if err != nil {
		return Decision{}, err
	}

	dec, err := s.tryExecute(t, o, op, false, eff)
	if err != nil {
		return Decision{}, err
	}
	if err := s.settle(eff); err != nil {
		return Decision{}, err
	}
	s.assertInvariants()
	return dec, nil
}

// tryExecute runs the Figure-2 decision procedure for one request. When
// retry is true the request is a blocked-queue retry: the fair-admission
// test against *earlier* blocked requests is handled by the caller.
func (s *Scheduler) tryExecute(t *txn, o *object, op adt.Op, retry bool, eff *Effects) (Decision, error) {
	// Fair scheduling: an incoming request that does not commute with
	// a blocked request waits behind it, even if it is compatible
	// with every executed operation (§5.2).
	fairWaits := s.sc.fairWaits[:0]
	if !s.opts.Unfair && !retry {
		fairWaits = o.conflictsWithBlocked(t.id, op, fairWaits)
	}

	conflicts, recovs := o.classifyAgainstLog(t.id, op, s.sc.conflicts, s.sc.recovs)

	// State-dependent refinement (§3.2): a statically conflicting
	// request whose return value is invariant on the live object is
	// demoted to recoverable — commit dependencies instead of
	// blocking. Only consulted when the static tables said conflict,
	// so the common paths pay nothing.
	if len(conflicts) > 0 && s.opts.StateDependent && s.opts.Recovery == RecoveryIntentions &&
		o.stateRecoverable(t.id, op) {
		recovs = mergeTxnLists(recovs, conflicts)
		conflicts = conflicts[:0]
	}

	// Store the (possibly grown) buffers back before any nested
	// finalize runs; the locals keep aliasing them safely because the
	// nested paths only touch the other scratch fields.
	s.sc.fairWaits, s.sc.conflicts, s.sc.recovs = fairWaits, conflicts, recovs

	if len(conflicts) > 0 || len(fairWaits) > 0 {
		// Step 1 of Figure 2: wait-for edges to every holder of a
		// non-recoverable operation (and, under fair scheduling,
		// to the blocked requesters ahead of us), then deadlock
		// detection.
		for _, h := range conflicts {
			s.g.AddEdge(t.id, h, depgraph.WaitFor)
		}
		for _, h := range fairWaits {
			s.g.AddEdge(t.id, h, depgraph.WaitFor)
		}
		s.stats.WaitForEdges += uint64(len(conflicts) + len(fairWaits))
		s.stats.CycleChecks++
		if s.g.HasCycleFrom(t.id) {
			s.stats.DeadlockAborts++
			if err := s.finalize(t, false, ReasonDeadlock, eff); err != nil {
				return Decision{}, err
			}
			return Decision{Outcome: Aborted, Reason: ReasonDeadlock}, nil
		}
		t.state = stBlocked
		t.blocked = s.newRequest(t.id, o.id, op, o.opID(op))
		if !retry {
			o.blocked = append(o.blocked, t.blocked)
			// A retried request that stays blocked never resumed
			// running, so it is not a fresh block for the paper's
			// blocking-ratio metric (the deadlock check above still
			// counted).
			s.stats.Blocks++
			if r := s.opts.Recorder; r != nil {
				r.Blocked(t.id, o.id, op)
			}
		}
		return Decision{Outcome: Blocked}, nil
	}

	if len(recovs) > 0 {
		// Step 3: commit-dependency edges to every holder the
		// operation is recoverable (but not commuting) with, then
		// cycle detection (serializability guard).
		for _, h := range recovs {
			s.g.AddEdge(t.id, h, depgraph.CommitDep)
		}
		s.stats.CommitDepEdges += uint64(len(recovs))
		s.stats.CycleChecks++
		if s.g.HasCycleFrom(t.id) {
			s.stats.CycleAborts++
			if err := s.finalize(t, false, ReasonCommitCycle, eff); err != nil {
				return Decision{}, err
			}
			return Decision{Outcome: Aborted, Reason: ReasonCommitCycle}, nil
		}
	}

	// Step 2/3: execute.
	s.nextSeq++
	ret, err := o.execute(t.id, op, s.nextSeq, s.opts.Recovery)
	if err != nil {
		return Decision{}, err
	}
	t.visited[o.id] = struct{}{}
	s.stats.Executes++
	if r := s.opts.Recorder; r != nil {
		r.Executed(t.id, o.id, op, ret, s.nextSeq)
	}
	return Decision{Outcome: Executed, Ret: ret}, nil
}

// CommitInto finishes transaction id. If it has outstanding commit
// dependencies it pseudo-commits (§4.3); otherwise it commits for real,
// which may unblock waiters and cascade commits of its dependants —
// appended into eff (reset on entry).
func (s *Scheduler) CommitInto(eff *Effects, id TxnID) (CommitStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	eff.Reset()
	st, err := s.commitLocked(eff, id)
	s.drainRetired()
	return st, err
}

func (s *Scheduler) commitLocked(eff *Effects, id TxnID) (CommitStatus, error) {
	t, err := s.txns.lookup(id)
	if err != nil {
		return 0, err
	}
	switch t.state {
	case stActive:
	case stBlocked:
		return 0, ErrTxnBlocked
	case stPseudo:
		return PseudoCommitted, nil
	default:
		return 0, ErrTxnTerminated
	}

	if s.g.OutDegree(id) > 0 {
		t.state = stPseudo
		s.stats.PseudoCommits++
		if r := s.opts.Recorder; r != nil {
			r.PseudoCommitted(id)
		}
		s.assertInvariants()
		return PseudoCommitted, nil
	}

	if err := s.finalize(t, true, ReasonNone, eff); err != nil {
		return 0, err
	}
	if err := s.settle(eff); err != nil {
		return 0, err
	}
	s.assertInvariants()
	return Committed, nil
}

// CommitHoldInto is the distributed variant of CommitInto (phase one
// of the §6 commit conversation): the transaction pseudo-commits even
// if it has no local dependencies, its operations stay in the logs, and
// it is excluded from the automatic cascade — only ReleaseInto (or, for
// the whole cluster, the coordinator) finalises it. It returns the
// transaction's current out-degree so the coordinator can decide
// whether the global dependency set is empty. A hold has no downstream
// effects, but it takes eff like every other participant call so the
// distributed layer treats them uniformly.
func (s *Scheduler) CommitHoldInto(eff *Effects, id TxnID) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	eff.Reset()
	return s.commitHoldLocked(id)
}

func (s *Scheduler) commitHoldLocked(id TxnID) (int, error) {
	t, err := s.txns.lookup(id)
	if err != nil {
		return 0, err
	}
	switch t.state {
	case stActive:
	case stBlocked:
		return 0, ErrTxnBlocked
	case stPseudo:
		return s.g.OutDegree(id), nil
	default:
		return 0, ErrTxnTerminated
	}
	t.state = stPseudo
	t.held = true
	s.stats.PseudoCommits++
	if r := s.opts.Recorder; r != nil {
		r.PseudoCommitted(id)
	}
	s.assertInvariants()
	return s.g.OutDegree(id), nil
}

// ReleaseInto really commits a held, pseudo-committed transaction,
// appending the cascade into eff (reset on entry). The caller (the
// distributed coordinator) must have established that the
// transaction's global dependency set is empty; locally that means an
// out-degree of zero, which ReleaseInto enforces.
func (s *Scheduler) ReleaseInto(eff *Effects, id TxnID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	eff.Reset()
	err := s.releaseLocked(eff, id)
	s.drainRetired()
	return err
}

func (s *Scheduler) releaseLocked(eff *Effects, id TxnID) error {
	t, err := s.txns.lookup(id)
	if err != nil {
		return err
	}
	if t.state != stPseudo || !t.held {
		return fmt.Errorf("core: Release: T%d is %s, not a held pseudo-committed transaction", id, t.state)
	}
	if d := s.g.OutDegree(id); d != 0 {
		return fmt.Errorf("core: Release: T%d still has %d outstanding dependencies", id, d)
	}
	if err := s.finalize(t, true, ReasonNone, eff); err != nil {
		return err
	}
	if err := s.settle(eff); err != nil {
		return err
	}
	s.assertInvariants()
	return nil
}

// AbortInto aborts transaction id at the caller's request, appending
// what follows downstream (grants, retry aborts, cascaded commits) into
// eff (reset on entry).
func (s *Scheduler) AbortInto(eff *Effects, id TxnID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	eff.Reset()
	err := s.abortLocked(eff, id)
	s.drainRetired()
	return err
}

func (s *Scheduler) abortLocked(eff *Effects, id TxnID) error {
	t, err := s.txns.lookup(id)
	if err != nil {
		return err
	}
	switch t.state {
	case stActive, stBlocked:
	case stPseudo:
		// "A transaction which has pseudo-committed will definitely
		// commit" — user aborts are refused.
		return fmt.Errorf("%w: pseudo-committed transactions cannot abort", ErrTxnTerminated)
	default:
		return ErrTxnTerminated
	}

	if err := s.finalize(t, false, ReasonUser, eff); err != nil {
		return err
	}
	if err := s.settle(eff); err != nil {
		return err
	}
	s.assertInvariants()
	return nil
}

// RevokeInto aborts a held, pseudo-committed transaction — the one
// abort the protocol otherwise forbids. Pseudo-commit is a promise to
// commit, but in the crash-stop fault model the promise is conditional
// on every participant surviving to the commit point: when a site
// crashes while holding a transaction's uncommitted operations, the
// coordinator revokes the hold at the surviving sites (presumed abort
// — the outcome was never logged). The transaction's operations are
// undone exactly as in a normal abort; dependants with commit
// dependencies on it may still commit (recoverability means aborts do
// not cascade), and anything blocked behind it is retried.
func (s *Scheduler) RevokeInto(eff *Effects, id TxnID, reason AbortReason) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	eff.Reset()
	err := s.revokeLocked(eff, id, reason)
	s.drainRetired()
	return err
}

func (s *Scheduler) revokeLocked(eff *Effects, id TxnID, reason AbortReason) error {
	t, err := s.txns.lookup(id)
	if err != nil {
		return err
	}
	if t.state != stPseudo || !t.held {
		return fmt.Errorf("core: Revoke: T%d is %s, not a held pseudo-committed transaction", id, t.state)
	}
	// Re-arm finalize's abort path: the held pseudo-commit is being
	// taken back, so the transaction is treated as active again for the
	// duration of the undo.
	t.state = stActive
	t.held = false
	if err := s.finalize(t, false, reason, eff); err != nil {
		return err
	}
	if err := s.settle(eff); err != nil {
		return err
	}
	s.assertInvariants()
	return nil
}

// WithdrawInto abandons transaction id's blocked request: the request
// is dequeued, its wait-for edges are shed, and the transaction returns
// to the active state with its executed operations intact — the
// cancellation path of a context-aware Do. Requests parked behind the
// withdrawn one are retried before the call returns (the same rescan a
// terminating transaction triggers, its effects appended into eff,
// reset on entry), so a withdrawal can never strand a fairness-gated
// follower.
func (s *Scheduler) WithdrawInto(eff *Effects, id TxnID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	eff.Reset()
	err := s.withdrawLocked(eff, id)
	s.drainRetired()
	return err
}

func (s *Scheduler) withdrawLocked(eff *Effects, id TxnID) error {
	t, err := s.txns.lookup(id)
	if err != nil {
		return err
	}
	if t.state != stBlocked || t.blocked == nil {
		return ErrNotBlocked
	}
	r := t.blocked
	if o, ok := s.store.get(r.obj); ok {
		o.dequeueBlocked(t.id)
		// Followers fairness-gated behind the withdrawn request must be
		// rescanned, exactly as when a blocked requester terminates.
		s.queueRetry(o)
	}
	t.blocked = nil
	s.retireRequest(r)
	s.g.RemoveWaitEdges(t.id)
	t.state = stActive
	s.stats.Withdrawals++
	if err := s.settle(eff); err != nil {
		return err
	}
	s.assertInvariants()
	return nil
}

// finalize terminates t: it removes the transaction's operations from
// every object it visited (folding or undoing per the recovery
// strategy), removes its node from the dependency graph, really commits
// any pseudo-committed dependants whose out-degree dropped to zero, and
// schedules blocked-queue retries on the affected objects.
func (s *Scheduler) finalize(t *txn, commit bool, reason AbortReason, eff *Effects) error {
	if t.state == stPseudo && !commit {
		return fmt.Errorf("core: internal: pseudo-committed T%d selected for abort", t.id)
	}
	if t.blocked != nil {
		if o, ok := s.store.get(t.blocked.obj); ok {
			o.dequeueBlocked(t.id)
			// Removing a blocked request can unblock later queue
			// members that were fairness-gated behind it, even when
			// the terminating transaction had no log entries on the
			// object — without a rescan they would wait forever.
			s.queueRetry(o)
		}
		s.retireRequest(t.blocked)
		t.blocked = nil
	}

	// The affected-object pass completes before the cascade below, so
	// one shared buffer serves every recursion depth.
	affected := s.sc.affected[:0]
	for oid := range t.visited {
		affected = append(affected, oid)
	}
	slices.Sort(affected)
	s.sc.affected = affected
	for _, oid := range affected {
		o, _ := s.store.get(oid)
		if err := o.removeTxn(t.id, commit, s.opts.Recovery, s.opts.Debug, &s.sc); err != nil {
			return err
		}
		s.queueRetry(o)
	}

	if commit {
		t.state = stCommitted
		s.stats.Commits++
		if r := s.opts.Recorder; r != nil {
			r.Committed(t.id)
		}
	} else {
		t.state = stAborted
		s.stats.Aborts++
		if r := s.opts.Recorder; r != nil {
			r.Aborted(t.id, reason)
		}
	}

	// Each recursion depth owns one reusable dependants buffer: the
	// list is iterated while deeper cascades fill theirs.
	depth := s.sc.depth
	if depth == len(s.sc.dependants) {
		s.sc.dependants = append(s.sc.dependants, nil)
	}
	dependants := append(s.sc.dependants[depth][:0], s.g.RemoveTxn(t.id)...)
	s.sc.dependants[depth] = dependants
	s.sc.depth++
	for _, d := range dependants {
		dt, ok := s.txns.get(d)
		if !ok {
			continue
		}
		if dt.state == stPseudo && !dt.held && s.g.OutDegree(d) == 0 {
			// Record before recursing so Effects.Committed lists
			// cascaded commits in the order they happen.
			eff.Committed = append(eff.Committed, d)
			if err := s.finalize(dt, true, ReasonNone, eff); err != nil {
				s.sc.depth--
				return err
			}
		}
	}
	s.sc.depth--
	return nil
}

// queueRetry schedules a rescan of o's blocked queue for the current
// call's settle. An object nobody is blocked on is not queued at all, so
// a termination on an uncontended object costs settle nothing. That
// cannot miss a request: a queue only gains a new member from the
// call's initial request, before anything terminates, and a retry only
// re-parks a request on the queue it came from — a queue found empty
// here stays empty until the call returns.
func (s *Scheduler) queueRetry(o *object) {
	if len(o.blocked) == 0 {
		return
	}
	if i, found := slices.BinarySearch(s.pendingRetry, o.id); !found {
		s.pendingRetry = slices.Insert(s.pendingRetry, i, o.id)
	}
}

// settle drains the pending-retry set: for each affected object it
// rescans the blocked queue in FIFO order, granting requests that can
// now run. A retry can itself abort a blocked transaction (new cycle),
// which re-triggers finalization and more retries; settle loops to a
// fixpoint. Objects are processed in ascending id order for
// determinism.
func (s *Scheduler) settle(eff *Effects) error {
	for len(s.pendingRetry) > 0 {
		oid := s.pendingRetry[0]
		s.pendingRetry = slices.Delete(s.pendingRetry, 0, 1)
		o, _ := s.store.get(oid)
		if err := s.retryObject(o, eff); err != nil {
			return err
		}
	}
	return nil
}

// mergeTxnLists appends the members of extra not already in base,
// preserving order. Both lists are short holder lists, so the linear
// scan replaces the map the old version allocated.
func mergeTxnLists(base, extra []TxnID) []TxnID {
	for _, t := range extra {
		base = appendUniqueTxn(base, t)
	}
	return base
}

// retryObject rescans one object's blocked queue in order. Under fair
// scheduling a request stays blocked if it does not commute with an
// earlier request that is itself still blocked. If a retry aborts the
// blocked transaction, the queue has changed under us: the object is
// re-queued for another pass and the scan restarts via settle.
func (s *Scheduler) retryObject(o *object, eff *Effects) error {
	if len(o.blocked) == 0 {
		return nil // drained since it was queued
	}
	queue := append(s.sc.retrySnap[:0], o.blocked...)
	stillBlocked := s.sc.stillBlocked[:0]
	defer func() {
		s.sc.retrySnap = clearRequests(queue)
		s.sc.stillBlocked = clearRequests(stillBlocked)
	}()

scan:
	for _, r := range queue {
		t, ok := s.txns.get(r.txn)
		if !ok || t.state != stBlocked || t.blocked != r {
			continue // stale entry
		}
		if !s.opts.Unfair {
			for _, earlier := range stillBlocked {
				if o.classify(r.opid, r.op, earlier.opid, earlier.op) != compat.Commutes {
					stillBlocked = append(stillBlocked, r)
					continue scan
				}
			}
		}

		// A retry is a fresh request: shed the old wait-for edges,
		// re-classify, and either execute, re-block (fresh edges,
		// fresh deadlock check) or abort on a new cycle.
		s.g.RemoveWaitEdges(r.txn)
		t.state = stActive
		t.blocked = nil
		o.dequeueBlocked(r.txn)
		// Retire r now: if the retry re-blocks, tryExecute parks a
		// fresh request (the graveyard keeps r's pointer unique until
		// this call's queue snapshots are gone).
		s.retireRequest(r)

		dec, err := s.tryExecute(t, o, r.op, true, eff)
		if err != nil {
			return err
		}
		switch dec.Outcome {
		case Executed:
			s.stats.Grants++
			eff.Grants = append(eff.Grants, Grant{Txn: r.txn, Object: o.id, Op: r.op, Ret: dec.Ret})
		case Blocked:
			// Re-insert at the front of the remaining queue
			// positions — i.e. keep FIFO order. tryExecute set
			// t.blocked; put it back in the queue where it was.
			o.blocked = append(o.blocked, nil)
			copy(o.blocked[len(stillBlocked)+1:], o.blocked[len(stillBlocked):])
			o.blocked[len(stillBlocked)] = t.blocked
			stillBlocked = append(stillBlocked, t.blocked)
		case Aborted:
			eff.RetryAborts = append(eff.RetryAborts, RetryAbort{Txn: r.txn, Reason: dec.Reason})
			// finalize (inside tryExecute) re-queued affected
			// objects, possibly including this one; restart the
			// scan from settle's loop.
			s.queueRetry(o)
			return nil
		}
	}
	return nil
}

// clearRequests nils out the buffer's pointers so retired requests can
// be collected, and returns it for reuse.
func clearRequests(buf []*request) []*request {
	for i := range buf {
		buf[i] = nil
	}
	return buf[:0]
}

// newRequest takes a pooled request or allocates one. Only the free
// list is consulted — requests retired during the current call sit in
// the graveyard so their pointers stay unique while retryObject's queue
// snapshots may alias them.
func (s *Scheduler) newRequest(txn TxnID, obj ObjectID, op adt.Op, opid adt.OpID) *request {
	if n := len(s.reqFree); n > 0 {
		r := s.reqFree[n-1]
		s.reqFree[n-1] = nil
		s.reqFree = s.reqFree[:n-1]
		*r = request{txn: txn, obj: obj, op: op, opid: opid}
		return r
	}
	return &request{txn: txn, obj: obj, op: op, opid: opid}
}

// retireRequest parks a request that left every queue in the graveyard;
// drainRetired recycles it once the call's snapshots are gone.
func (s *Scheduler) retireRequest(r *request) {
	s.reqGrave = append(s.reqGrave, r)
}

// drainRetired moves graveyard requests to the free list. Called at the
// end of every public mutating call, when no retry-scan snapshot can
// alias them any longer.
func (s *Scheduler) drainRetired() {
	for i, r := range s.reqGrave {
		*r = request{} // drop the op payload so the pool pins nothing
		s.reqFree = append(s.reqFree, r)
		s.reqGrave[i] = nil
	}
	s.reqGrave = s.reqGrave[:0]
}

// assertInvariants runs debug-only global checks.
func (s *Scheduler) assertInvariants() {
	if !s.opts.Debug {
		return
	}
	if !s.g.Acyclic() {
		panic("core: dependency graph became cyclic")
	}
	for _, o := range s.store.objects {
		if s.opts.Recovery == RecoveryIntentions {
			if err := o.checkReplayMatchesCur(); err != nil {
				panic(err)
			}
		}
	}
}

// StatsSnapshot returns a copy of the cumulative counters, taken under
// the scheduler mutex every increment runs under. CycleChecks reflects
// the scheduler's own count (block-time deadlock checks plus
// recoverable-execution checks).
func (s *Scheduler) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// BlockedDepth counts transactions currently parked on a blocked
// request — the instantaneous queue depth, as opposed to the
// cumulative Blocks counter.
func (s *Scheduler) BlockedDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, t := range s.txns.m {
		if t.state == stBlocked {
			n++
		}
	}
	return n
}

// TxnState returns a human-readable state for tests and tools.
func (s *Scheduler) TxnState(id TxnID) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.txns.get(id); ok {
		return t.state.String()
	}
	return "unknown"
}

// Forget drops a terminated transaction's bookkeeping. Long-running
// users (the simulator) call it to keep the txn map bounded.
func (s *Scheduler) Forget(id TxnID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.txns.forget(id)
}

// ObjectSnapshot is one object's committed state, as exported by
// ExportCommitted — what a site's durable storage holds in the
// crash-stop fault model.
type ObjectSnapshot struct {
	ID    ObjectID
	State adt.State // a clone; the caller owns it
}

// ExportCommitted clones every materialised object's committed state:
// the base state under intentions-list recovery, where uncommitted
// operations live only in the (volatile) intentions log. The fault
// layer uses this as the site's simulated disk image — capturing it at
// crash time is equivalent to having forced each base state at commit
// time, because commits are the only writes to the base. It is not
// meaningful under undo-log recovery (uncommitted effects are folded
// into the materialised state), which the fault layer rejects.
func (s *Scheduler) ExportCommitted() []ObjectSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snaps := make([]ObjectSnapshot, 0, len(s.store.objects))
	for id, o := range s.store.objects {
		st := o.cur
		if s.opts.Recovery == RecoveryIntentions {
			st = o.base
		}
		snaps = append(snaps, ObjectSnapshot{ID: id, State: st.Clone()})
	}
	return snaps
}

// RegisterSeeded is Register with an explicit initial committed state
// (cloned): the recovery path of the fault layer re-creates a restarted
// site's objects from their durable snapshots.
func (s *Scheduler) RegisterSeeded(id ObjectID, typ adt.Type, class compat.Classifier, st adt.State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.registerSeeded(id, typ, class, st)
}

// OutEdgesAppend appends the transaction's current outgoing dependency
// edges at this scheduler (wait-for and commit-dependency) to buf[:0].
// The distributed layer piggybacks these on its coordination calls to
// maintain the global dependency graph (§6 of the paper), reusing one
// buffer per site so the per-coordination-call export allocates
// nothing.
func (s *Scheduler) OutEdgesAppend(id TxnID, buf []depgraph.Edge) []depgraph.Edge {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g.OutEdgesAppend(id, buf)
}
