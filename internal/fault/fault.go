// Package fault adds crash-stop fault tolerance to the §6 distributed
// design: Crashable wraps a per-site scheduler so it can crash (drop
// every piece of volatile state, fail subsequent calls with
// ErrSiteDown) and restart with presumed-abort recovery against the
// coordinator's decision log (Log).
//
// The durability model is the paper's own (§4.4, intentions lists): a
// site's disk holds the committed base state of every object — commits
// are the only writes to it — plus, for each transaction the site has
// pseudo-committed-and-held (the prepare of the distributed commit
// conversation), a forced record of the transaction's operations, the
// redo log. Everything else — execution logs of uncommitted
// operations, blocked queues, the dependency graph, active and blocked
// transactions — is volatile and lost on crash.
//
// Recovery is presumed abort. On Restart the site rebuilds its objects
// from the durable snapshots, then resolves each prepared (in-doubt)
// transaction against the coordinator's decision log: a logged commit
// is redone by replaying its recorded operations into the committed
// state (the coordinator promised the commit before releasing anyone,
// so the effects must reappear); anything else is presumed aborted and
// discarded — which is correct exactly because the coordinator forces
// its commit decision to the log before releasing any participant.
//
// The simulation shortcut: instead of shadow-writing a disk image on
// every commit, Crash captures the committed base states at the crash
// instant. The two are equivalent — the base state at any instant is
// precisely what a forced-at-commit disk would hold — and the shortcut
// keeps the no-crash path free of fault-tolerance overhead.
//
// Crash-stop means crash-stop: no byzantine behaviour, no network
// partitions without a crash, and a restarted site rejoins empty-handed
// except for its disk. See DESIGN.md, "Failure model".
package fault

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/depgraph"
)

// ErrSiteDown is returned by every operation on a crashed site, and by
// Crash itself when the site is already down. The distributed
// coordinator maps it to a ReasonSiteFailed abort of the transactions
// involved.
var ErrSiteDown = errors.New("fault: site is down")

// opRec is one recorded operation of a transaction at this site — the
// redo unit of a prepared record. seq is the site-local observation
// order across all transactions, so interleaved redo reproduces the
// original intentions-log order.
type opRec struct {
	seq uint64
	obj core.ObjectID
	op  adt.Op
}

// reg remembers an explicit registration so a restarted site can
// re-create the object (factory-built objects use the factory).
type reg struct {
	typ   adt.Type
	class compat.Classifier
}

// RecoveryReport says what Restart did with the site's in-doubt
// (prepared) transactions, in ascending id order.
type RecoveryReport struct {
	// Redone transactions had a logged commit outcome: their recorded
	// operations were replayed into the committed state.
	Redone []core.TxnID
	// PresumedAborted transactions had no logged commit outcome: their
	// prepared records were discarded.
	PresumedAborted []core.TxnID
	// Aborted transactions were live (active or blocked) at a restart
	// that reconciled surviving state — a remote site outliving its
	// coordinator — and were rolled back as orphans. Always empty for
	// an in-process Crashable, whose volatile actives die with the
	// crash.
	Aborted []core.TxnID
}

// Crashable is a core.Participant (plus the registration and
// inspection surface a cluster site needs) that can crash and restart.
// It is safe for concurrent use; every call is serialised under one
// mutex, like the scheduler it wraps.
type Crashable struct {
	mu   sync.Mutex
	opts core.Options
	log  Log

	sched *core.Scheduler // nil while down
	down  bool
	inc   uint64 // incarnation, bumped on every restart

	// hist is the volatile per-transaction operation history, the
	// prepare record in waiting. seq orders observations across
	// transactions. histFree pools retired history slices so the
	// no-crash steady state allocates nothing per transaction here.
	hist     map[core.TxnID][]opRec
	histFree [][]opRec
	seq      uint64

	// Simulated durable storage: forced prepare records, the committed
	// object snapshots captured at crash, and the registration DDL.
	prepared map[core.TxnID][]opRec
	disk     []core.ObjectSnapshot
	regs     map[core.ObjectID]reg
	factory  func(core.ObjectID) (adt.Type, compat.Classifier)

	// statsBase accumulates counters of previous incarnations so
	// monitoring survives crashes.
	statsBase core.Stats
}

// Crashable is a Participant.
var _ core.Participant = (*Crashable)(nil)

// New builds an up Crashable site running a fresh scheduler with the
// given options, recovering against log. The crash-stop simulation
// requires intentions-list recovery (the committed base state is the
// simulated disk) and rejects the state-dependent refinement (redo
// admission must be reproducible from the static tables alone).
func New(opts core.Options, log Log) (*Crashable, error) {
	if opts.Recovery != core.RecoveryIntentions {
		return nil, fmt.Errorf("fault: crash-stop sites require intentions-list recovery (the committed base is the simulated disk)")
	}
	if opts.StateDependent {
		return nil, fmt.Errorf("fault: crash-stop sites cannot use the state-dependent refinement (redo admission must be static)")
	}
	if log == nil {
		return nil, fmt.Errorf("fault: crash-stop sites need a decision log")
	}
	return &Crashable{
		opts:     opts,
		log:      log,
		sched:    core.NewScheduler(opts),
		hist:     make(map[core.TxnID][]opRec),
		prepared: make(map[core.TxnID][]opRec),
		regs:     make(map[core.ObjectID]reg),
	}, nil
}

// Down reports whether the site is currently crashed.
func (c *Crashable) Down() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down
}

// Incarnation returns how many times the site has restarted.
func (c *Crashable) Incarnation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inc
}

// Crash atomically drops every piece of volatile state — the
// scheduler with its execution logs, blocked queues, dependency graph
// and transaction table, and the unforced operation histories — and
// marks the site down. The committed base states are captured as the
// simulated disk image (see the package comment for why this is
// equivalent to forcing them at commit time); prepared records, being
// forced at CommitHold time, survive. Crashing a down site returns
// ErrSiteDown.
func (c *Crashable) Crash() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return ErrSiteDown
	}
	c.disk = c.sched.ExportCommitted()
	c.statsBase.Add(c.sched.StatsSnapshot())
	c.sched = nil
	c.down = true
	clear(c.hist)
	return nil
}

// Restart brings a crashed site back with a fresh scheduler: objects
// are rebuilt from the disk snapshots, then every prepared (in-doubt)
// transaction is resolved against the coordinator's decision log — a
// logged commit is redone (its recorded operations replayed, in the
// original site-local order, and really committed), anything else is
// presumed aborted and discarded. Restarting an up site is an error.
func (c *Crashable) Restart() (RecoveryReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.down {
		return RecoveryReport{}, fmt.Errorf("fault: Restart: site is not down")
	}
	sched := core.NewScheduler(c.opts)
	if c.factory != nil {
		sched.SetFactory(c.factory)
	}
	for _, snap := range c.disk {
		typ, class, err := c.typeOf(snap.ID)
		if err != nil {
			return RecoveryReport{}, err
		}
		if err := sched.RegisterSeeded(snap.ID, typ, class, snap.State); err != nil {
			return RecoveryReport{}, fmt.Errorf("fault: Restart: rebuild object %d: %w", snap.ID, err)
		}
	}

	var rep RecoveryReport
	type redoOp struct {
		txn core.TxnID
		r   opRec
	}
	var redo []redoOp // merged redo stream of every logged-commit txn
	for id, ops := range c.prepared {
		if o, ok := c.log.Lookup(id); ok && o == OutcomeCommit {
			rep.Redone = append(rep.Redone, id)
			for _, r := range ops {
				redo = append(redo, redoOp{txn: id, r: r})
			}
		} else {
			rep.PresumedAborted = append(rep.PresumedAborted, id)
		}
		delete(c.prepared, id)
	}
	sort.Slice(rep.Redone, func(i, j int) bool { return rep.Redone[i] < rep.Redone[j] })
	sort.Slice(rep.PresumedAborted, func(i, j int) bool { return rep.PresumedAborted[i] < rep.PresumedAborted[j] })
	// Replay in the original observation order across transactions, so
	// the rebuilt intentions log folds into the base exactly as the
	// pre-crash one would have. Admission is static (New rejects the
	// state-dependent refinement): every pair of operations co-held
	// before the crash was commute-or-recoverable then, so it is now,
	// and the replay can neither block nor deadlock.
	sort.Slice(redo, func(i, j int) bool { return redo[i].r.seq < redo[j].r.seq })
	var eff core.Effects
	for _, id := range rep.Redone {
		if err := sched.Begin(id); err != nil {
			return RecoveryReport{}, fmt.Errorf("fault: Restart: redo T%d: %w", id, err)
		}
	}
	for _, ro := range redo {
		dec, err := sched.RequestInto(&eff, ro.txn, ro.r.obj, ro.r.op)
		if err != nil {
			return RecoveryReport{}, fmt.Errorf("fault: Restart: redo T%d op on %d: %w", ro.txn, ro.r.obj, err)
		}
		if dec.Outcome != core.Executed {
			return RecoveryReport{}, fmt.Errorf("fault: Restart: redo T%d op on %d did not execute (outcome %d)", ro.txn, ro.r.obj, dec.Outcome)
		}
	}
	for _, id := range rep.Redone {
		st, err := sched.CommitInto(&eff, id)
		if err != nil {
			return RecoveryReport{}, fmt.Errorf("fault: Restart: redo commit T%d: %w", id, err)
		}
		// PseudoCommitted here means a commit dependency on another
		// redo transaction: the cascade commits it when that one lands.
		// Verified below once every commit has been issued.
		_ = st
	}
	for _, id := range rep.Redone {
		if st := sched.TxnState(id); st != "unknown" && st != "committed" {
			return RecoveryReport{}, fmt.Errorf("fault: Restart: redo T%d ended %s, want committed", id, st)
		}
		sched.Forget(id)
	}

	c.sched = sched
	c.down = false
	c.inc++
	c.disk = nil
	return rep, nil
}

// record appends one executed operation to the transaction's volatile
// history, reusing a pooled slice for the first entry. Caller holds
// c.mu.
func (c *Crashable) record(id core.TxnID, obj core.ObjectID, op adt.Op) {
	c.seq++
	h, ok := c.hist[id]
	if !ok {
		if n := len(c.histFree); n > 0 {
			h = c.histFree[n-1]
			c.histFree[n-1] = nil
			c.histFree = c.histFree[:n-1]
		}
	}
	c.hist[id] = append(h, opRec{seq: c.seq, obj: obj, op: op})
}

// histDrop retires a transaction's history, returning the slice to the
// pool (op payloads cleared so the pool pins nothing). Caller holds
// c.mu.
func (c *Crashable) histDrop(id core.TxnID) {
	if h, ok := c.hist[id]; ok {
		delete(c.hist, id)
		clear(h)
		c.histFree = append(c.histFree, h[:0])
	}
}

// preparedDrop retires a resolved prepare record, returning its slice
// to the same pool — the hold-release path is the common case, so it
// must refill the pool too. Caller holds c.mu.
func (c *Crashable) preparedDrop(id core.TxnID) {
	if h, ok := c.prepared[id]; ok {
		delete(c.prepared, id)
		clear(h)
		c.histFree = append(c.histFree, h[:0])
	}
}

// absorb folds one scheduler call's effects into the histories:
// granted requests are executed operations of their transactions,
// retry-aborted transactions lose their histories, and cascaded real
// commits are terminal (the committed base now carries their effects).
// Caller holds c.mu.
func (c *Crashable) absorb(eff *core.Effects) {
	for i := range eff.Grants {
		g := &eff.Grants[i]
		c.record(g.Txn, g.Object, g.Op)
	}
	for _, a := range eff.RetryAborts {
		c.histDrop(a.Txn)
	}
	for _, id := range eff.Committed {
		c.histDrop(id)
	}
}

// ---- core.Participant ----

// Begin implements core.Participant.
func (c *Crashable) Begin(id core.TxnID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return ErrSiteDown
	}
	return c.sched.Begin(id)
}

// RequestInto implements core.Participant, recording executed
// operations (immediate and granted) as redo candidates.
func (c *Crashable) RequestInto(eff *core.Effects, id core.TxnID, obj core.ObjectID, op adt.Op) (core.Decision, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return core.Decision{}, ErrSiteDown
	}
	dec, err := c.sched.RequestInto(eff, id, obj, op)
	if err != nil {
		return dec, err
	}
	switch dec.Outcome {
	case core.Executed:
		c.record(id, obj, op)
	case core.Aborted:
		c.histDrop(id)
	}
	c.absorb(eff)
	return dec, nil
}

// CommitInto implements core.Participant. A single-site real commit
// needs no prepare record: the fold into the committed base is the
// durable write.
func (c *Crashable) CommitInto(eff *core.Effects, id core.TxnID) (core.CommitStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return 0, ErrSiteDown
	}
	st, err := c.sched.CommitInto(eff, id)
	if err != nil {
		return st, err
	}
	if st == core.Committed {
		c.histDrop(id)
	}
	c.absorb(eff)
	return st, nil
}

// CommitHoldInto implements core.Participant: the prepare of the
// distributed commit conversation. On success the transaction's
// operation history is forced to the simulated stable store — the redo
// record recovery replays if the coordinator logged a commit.
func (c *Crashable) CommitHoldInto(eff *core.Effects, id core.TxnID) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return 0, ErrSiteDown
	}
	deg, err := c.sched.CommitHoldInto(eff, id)
	if err != nil {
		return deg, err
	}
	if _, ok := c.prepared[id]; !ok {
		c.prepared[id] = c.hist[id]
		delete(c.hist, id)
	}
	c.absorb(eff)
	return deg, nil
}

// ReleaseInto implements core.Participant. The real commit folds the
// transaction into the committed base, so the prepare record is
// obsolete (a real coordinator would piggyback this as the 2PC ack
// that lets the log truncate).
func (c *Crashable) ReleaseInto(eff *core.Effects, id core.TxnID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return ErrSiteDown
	}
	if err := c.sched.ReleaseInto(eff, id); err != nil {
		return err
	}
	c.preparedDrop(id)
	c.absorb(eff)
	return nil
}

// AbortInto implements core.Participant.
func (c *Crashable) AbortInto(eff *core.Effects, id core.TxnID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return ErrSiteDown
	}
	if err := c.sched.AbortInto(eff, id); err != nil {
		return err
	}
	c.histDrop(id)
	c.absorb(eff)
	return nil
}

// RevokeInto implements core.Participant: the coordinator taking back
// a held pseudo-commit after another participant's crash. The prepare
// record is dropped — the same decision a presumed-abort recovery
// would reach, just without waiting for this site to crash too.
func (c *Crashable) RevokeInto(eff *core.Effects, id core.TxnID, reason core.AbortReason) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return ErrSiteDown
	}
	if err := c.sched.RevokeInto(eff, id, reason); err != nil {
		return err
	}
	c.preparedDrop(id)
	c.histDrop(id)
	c.absorb(eff)
	return nil
}

// WithdrawInto implements core.Participant.
func (c *Crashable) WithdrawInto(eff *core.Effects, id core.TxnID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return ErrSiteDown
	}
	if err := c.sched.WithdrawInto(eff, id); err != nil {
		return err
	}
	c.absorb(eff)
	return nil
}

// OutEdgesAppend implements core.Participant. A down site has no
// edges: its volatile dependency state is gone.
func (c *Crashable) OutEdgesAppend(id core.TxnID, buf []depgraph.Edge) []depgraph.Edge {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return buf[:0]
	}
	return c.sched.OutEdgesAppend(id, buf)
}

// Forget implements core.Participant. Forgetting on a down site is a
// no-op (there is nothing to forget); the prepare record, if any, is
// deliberately kept — it is durable state, resolved only by Release,
// Revoke or recovery.
func (c *Crashable) Forget(id core.TxnID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.histDrop(id)
	if !c.down {
		c.sched.Forget(id)
	}
}

// ---- Registration and inspection (the cluster site surface) ----

// Register creates the object eagerly, recording the registration so a
// restarted site can rebuild it. Fails with ErrSiteDown while down.
func (c *Crashable) Register(id core.ObjectID, typ adt.Type, class compat.Classifier) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return ErrSiteDown
	}
	if err := c.sched.Register(id, typ, class); err != nil {
		return err
	}
	c.regs[id] = reg{typ: typ, class: class}
	return nil
}

// SetFactory installs the lazy object constructor, kept across
// restarts (configuration, not volatile state).
func (c *Crashable) SetFactory(f func(core.ObjectID) (adt.Type, compat.Classifier)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.factory = f
	if !c.down {
		c.sched.SetFactory(f)
	}
}

// StatsSnapshot returns the cumulative counters across every
// incarnation (monitoring continuity; the per-incarnation counters are
// volatile, their sum is kept at each crash).
func (c *Crashable) StatsSnapshot() core.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.statsBase
	if !c.down {
		st.Add(c.sched.StatsSnapshot())
	}
	return st
}

// BlockedDepth counts the transactions currently parked on a blocked
// request at the site; a down site has none.
func (c *Crashable) BlockedDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return 0
	}
	return c.sched.BlockedDepth()
}

// ObjectState returns the materialised state of an object, or
// ErrSiteDown while down.
func (c *Crashable) ObjectState(id core.ObjectID) (adt.State, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return nil, ErrSiteDown
	}
	return c.sched.ObjectState(id)
}

// CommittedState returns the committed (base) state of an object, or
// ErrSiteDown while down.
func (c *Crashable) CommittedState(id core.ObjectID) (adt.State, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return nil, ErrSiteDown
	}
	return c.sched.CommittedState(id)
}

// TxnState returns a human-readable local state for tests and tools
// ("site-down" while down).
func (c *Crashable) TxnState(id core.TxnID) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return "site-down"
	}
	return c.sched.TxnState(id)
}

// PreparedIDs returns the ids of the site's current prepared
// (in-doubt) records, in ascending order — durable state, readable
// even while down (tests and tools).
func (c *Crashable) PreparedIDs() []core.TxnID {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]core.TxnID, 0, len(c.prepared))
	for id := range c.prepared {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// typeOf resolves an object's type and classifier from the recorded
// registration or the factory.
func (c *Crashable) typeOf(id core.ObjectID) (adt.Type, compat.Classifier, error) {
	if r, ok := c.regs[id]; ok {
		return r.typ, r.class, nil
	}
	if c.factory != nil {
		typ, class := c.factory(id)
		return typ, class, nil
	}
	return nil, nil, fmt.Errorf("fault: Restart: no registration or factory for object %d", id)
}
