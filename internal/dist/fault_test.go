package dist

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// newFaultCluster builds an n-site cluster with pages 1..objects and
// the span plane on.
func newFaultCluster(t *testing.T, n, objects int) *Cluster {
	t.Helper()
	c, err := NewWithConfig(Config{Sites: n, Opts: core.Options{Debug: true}, Spans: telemetry.NewSpanBuffer(256, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	for id := core.ObjectID(1); id <= core.ObjectID(objects); id++ {
		if err := c.Register(id, adt.Page{}, compat.PageTable()); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestEveryClusterIsCrashStop: the cluster New builds is the
// crash-stop one. A two-site edge-free transaction takes hold → decide
// → release, its decision logged then truncated, as in the simulator,
// and a site crashes and restarts with the commit in its durable state.
func TestEveryClusterIsCrashStop(t *testing.T) {
	c := newPageCluster(t, 2, 4)
	tx := c.Begin()
	if _, err := tx.Do(1, write(1)); err != nil { // site 1
		t.Fatal(err)
	}
	if _, err := tx.Do(2, write(2)); err != nil { // site 0
		t.Fatal(err)
	}
	if st, err := tx.Commit(); err != nil || st != core.Committed {
		t.Fatalf("commit = %v %v", st, err)
	}
	tel := c.Telemetry()
	if conv, fast, logged := tel.Conversations.Load(), tel.FastCommits.Load(), tel.DecisionsLogged.Load(); conv != 1 || fast != 0 || logged != 1 || c.DecisionLog().Len() != 0 {
		t.Errorf("conversations %d, fast commits %d, decisions logged %d, left in the log %d; want 1, 0, 1, 0",
			conv, fast, logged, c.DecisionLog().Len())
	}
	if err := c.Crash(0); err != nil || !c.SiteDown(0) {
		t.Fatalf("Crash = %v, down %v", err, c.SiteDown(0))
	}
	if _, err := c.Restart(0); err != nil || c.SiteDown(0) {
		t.Fatalf("Restart = %v, down %v", err, c.SiteDown(0))
	}
	st, err := c.Site(0).CommittedState(2)
	if err != nil || st.(*adt.PageState).V != 2 {
		t.Fatalf("object 2 after restart = %v %v, want 2", st, err)
	}
}

// TestCrashAbortsInFlight: a cross-site transaction whose participant
// crashes mid-conversation aborts with the typed ErrSiteFailed, and
// its operations at the surviving sites are undone.
func TestCrashAbortsInFlight(t *testing.T) {
	c := newFaultCluster(t, 2, 4)
	tx := c.Begin()
	if _, err := tx.Do(2, write(20)); err != nil { // site 0
		t.Fatal(err)
	}
	if _, err := tx.Do(1, write(10)); err != nil { // site 1
		t.Fatal(err)
	}
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	if !c.SiteDown(1) {
		t.Fatal("site 1 not down")
	}
	_, err := tx.Do(4, write(40)) // routes to site 0, but the txn is doomed
	if !errors.Is(err, core.ErrSiteFailed) || !errors.Is(err, core.ErrTxnAborted) {
		t.Fatalf("Do after crash = %v, want ErrSiteFailed", err)
	}
	var ab *core.ErrAborted
	if !errors.As(err, &ab) || !ab.Retryable() {
		t.Fatalf("site-failure abort not retryable: %v", err)
	}
	<-tx.Done()
	if err := tx.Err(); !errors.Is(err, core.ErrSiteFailed) {
		t.Fatalf("Err = %v, want ErrSiteFailed", err)
	}
	// The survivor undid the write.
	st, err := c.Site(0).ObjectState(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.(*adt.PageState); got.V != 0 {
		t.Fatalf("site 0 state after abort = %d, want 0", got.V)
	}
	if _, err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
}

// TestCrashFailsParkedWaiter: a request parked at the crashing site is
// woken with the site-failure verdict instead of waiting forever.
func TestCrashFailsParkedWaiter(t *testing.T) {
	c := newFaultCluster(t, 2, 4)
	t1, t2 := c.Begin(), c.Begin()
	if _, err := t1.Do(1, write(11)); err != nil { // site 1
		t.Fatal(err)
	}
	res := make(chan error, 1)
	go func() {
		_, err := t2.Do(1, read()) // parks behind T1's write at site 1
		res <- err
	}()
	waitLocalState(t, c.Site(1), t2.ID(), "blocked")
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	if err := <-res; !errors.Is(err, core.ErrSiteFailed) {
		t.Fatalf("parked Do after crash = %v, want ErrSiteFailed", err)
	}
	// T1 is doomed too; its commit must fail the same way.
	if _, err := t1.Commit(); !errors.Is(err, core.ErrSiteFailed) {
		t.Fatalf("doomed commit = %v, want ErrSiteFailed", err)
	}
	if _, err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
}

// TestHeldPresumedAbortOnCrash: an unlogged held pseudo-commit touching
// the crashed site is revoked everywhere — the coordinator-side half of
// presumed abort — and ends with a typed ErrSiteFailed; after restart
// its effects are nowhere.
func TestHeldPresumedAbortOnCrash(t *testing.T) {
	c := newFaultCluster(t, 2, 4)
	t1, t2 := c.Begin(), c.Begin()
	if _, err := t1.Do(2, write(20)); err != nil { // site 0
		t.Fatal(err)
	}
	if _, err := t2.Do(2, write(21)); err != nil { // dep T2->T1 at site 0
		t.Fatal(err)
	}
	if _, err := t2.Do(1, write(12)); err != nil { // site 1
		t.Fatal(err)
	}
	st, err := t2.Commit()
	if err != nil || st != core.PseudoCommitted {
		t.Fatalf("T2 commit = %v %v, want held", st, err)
	}
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	// The hold is revoked synchronously by the crash handler.
	<-t2.Done()
	if err := t2.Err(); !errors.Is(err, core.ErrSiteFailed) {
		t.Fatalf("held T2 after crash: Err = %v, want ErrSiteFailed", err)
	}
	if _, ok := c.flog.Lookup(t2.ID()); ok {
		t.Fatal("revoked transaction has a logged outcome")
	}
	// T1 is unaffected (it never touched site 1) and commits; T2's
	// write at site 0 is gone.
	if st, err := t1.Commit(); err != nil || st != core.Committed {
		t.Fatalf("T1 commit = %v %v", st, err)
	}
	s0, _ := c.Site(0).CommittedState(2)
	if got := s0.(*adt.PageState); got.V != 20 {
		t.Fatalf("site 0 committed = %d, want T1's 20 (T2's 21 revoked)", got.V)
	}
	rep, err := c.Restart(1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rep.PresumedAborted, []core.TxnID{t2.ID()}) {
		t.Fatalf("recovery report %+v, want T2 presumed aborted", rep)
	}
	s1, _ := c.Site(1).CommittedState(1)
	if got := s1.(*adt.PageState); got.V != 0 {
		t.Fatalf("site 1 committed = %d, want 0", got.V)
	}
}

// TestLoggedCommitRedoneAfterCrashedRelease: a site that crashes
// before the release of a logged commit reaches it recovers the
// transaction from its prepared record — the re-release half of
// presumed abort, across the cluster. The crash is injected at the
// fault layer directly, modelling a failure the coordinator has not
// detected yet when the release conversation runs.
func TestLoggedCommitRedoneAfterCrashedRelease(t *testing.T) {
	c := newFaultCluster(t, 2, 4)
	t1, t2 := c.Begin(), c.Begin()
	if _, err := t1.Do(2, write(20)); err != nil { // site 0
		t.Fatal(err)
	}
	if _, err := t2.Do(2, write(21)); err != nil { // dep T2->T1 at site 0
		t.Fatal(err)
	}
	if _, err := t2.Do(1, write(12)); err != nil { // site 1
		t.Fatal(err)
	}
	if st, err := t2.Commit(); err != nil || st != core.PseudoCommitted {
		t.Fatalf("T2 commit = %v %v, want held", st, err)
	}
	// Site 1 dies silently: the coordinator's crash detection has not
	// run, so T2 stays held rather than revoked.
	if err := c.sites[1].p.Crash(); err != nil {
		t.Fatal(err)
	}
	// T1 commits, draining T2's dependency: the coordinator logs T2's
	// commit, releases it at site 0, and skips the dead site 1.
	if st, err := t1.Commit(); err != nil || st != core.Committed {
		t.Fatalf("T1 commit = %v %v", st, err)
	}
	<-t2.Done()
	if err := t2.Err(); err != nil {
		t.Fatalf("logged T2 = %v, want committed", err)
	}
	if o, ok := c.flog.Lookup(t2.ID()); !ok || o != fault.OutcomeCommit {
		t.Fatalf("decision log for T2 = %v %v, want commit", o, ok)
	}
	s0, _ := c.Site(0).CommittedState(2)
	if got := s0.(*adt.PageState); got.V != 21 {
		t.Fatalf("site 0 committed = %d, want 21", got.V)
	}
	// Recovery redoes T2 at site 1 from the prepared record.
	rep, err := c.Restart(1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rep.Redone, []core.TxnID{t2.ID()}) {
		t.Fatalf("recovery report %+v, want T2 redone", rep)
	}
	s1, _ := c.Site(1).CommittedState(1)
	if got := s1.(*adt.PageState); got.V != 12 {
		t.Fatalf("site 1 committed after redo = %d, want 12", got.V)
	}
	// The skipped release left no trace: site 1's release is its redo,
	// and the restart span counts it.
	var redo, release, restart int
	for _, sp := range c.Spans().Snapshot() {
		switch {
		case sp.Kind == telemetry.SpanRestart && sp.Site == 1 && sp.Object == 1:
			restart++
		case sp.Txn != uint64(t2.ID()) || sp.Site != 1:
		case sp.Kind == telemetry.SpanRedo:
			redo++
		case sp.Kind == telemetry.SpanRelease:
			release++
		}
	}
	if redo != 1 || release != 0 || restart != 1 {
		t.Errorf("T2 at site 1: %d redo, %d release and %d restart spans, want one redo and one restart (1 redone)",
			redo, release, restart)
	}
}

// refusingSite is a crash-stop site whose recovery is refused while
// refuse is set, as a daemon's reconcile is on every redial that fails.
type refusingSite struct {
	*fault.Crashable
	refuse bool
}

var errRecoveryRefused = errors.New("recovery refused")

func (s *refusingSite) Restart() (fault.RecoveryReport, error) {
	if s.refuse {
		return fault.RecoveryReport{}, errRecoveryRefused
	}
	return s.Crashable.Restart()
}

// TestRefusedRestartIsRecorded: a site whose recovery keeps failing
// leaves one unsampled restart-failed site span per attempt and stays
// down; the recovery that finally succeeds records its restart span.
func TestRefusedRestartIsRecorded(t *testing.T) {
	flog := fault.NewMemLog()
	backends := make([]SiteBackend, 2)
	for i := range backends {
		cr, err := fault.New(core.Options{}, flog)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = &refusingSite{Crashable: cr, refuse: i == 1}
	}
	c, err := NewWithConfig(Config{Sites: 2, Log: flog, Backends: backends, Spans: telemetry.NewSpanBuffer(64, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := c.Restart(1); !errors.Is(err, errRecoveryRefused) {
			t.Fatalf("Restart = %v, want the backend's refusal", err)
		}
	}
	if !c.SiteDown(1) {
		t.Fatal("site 1 is up after a refused recovery")
	}
	count := func() map[string]int {
		m := map[string]int{}
		for _, sp := range c.Spans().Snapshot() {
			if sp.Trace != 0 || sp.Site != 1 {
				t.Fatalf("site span %+v: want trace 0 at site 1", sp)
			}
			m[sp.KindS]++
		}
		return m
	}
	if got := count(); got["restart-failed"] != 2 || got["restart"] != 0 {
		t.Fatalf("spans after two refused restarts = %v, want 2 restart-failed and no restart", got)
	}
	backends[1].(*refusingSite).refuse = false
	if _, err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	if got := count(); got["restart-failed"] != 2 || got["restart"] != 1 {
		t.Fatalf("spans after the recovery = %v, want 2 restart-failed and 1 restart", got)
	}
}

// TestBeginAtDownSite: a fresh transaction routed to a down site
// aborts retryably and succeeds after the restart.
func TestBeginAtDownSite(t *testing.T) {
	c := newFaultCluster(t, 2, 4)
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	tx := c.Begin()
	_, err := tx.Do(1, write(1)) // site 1 is down
	if !errors.Is(err, core.ErrSiteFailed) {
		t.Fatalf("Do at down site = %v, want ErrSiteFailed", err)
	}
	if _, err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	// Store.Run's retry loop recovers once the site is back.
	if err := c.Run(context.Background(), func(tx core.Txn) error {
		_, err := tx.Do(1, write(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	s1, _ := c.Site(1).CommittedState(1)
	if got := s1.(*adt.PageState); got.V != 1 {
		t.Fatalf("committed = %d, want 1", got.V)
	}
}

// TestMultiSiteEdgeFreeCommitUsesHolds: a multi-site transaction goes through the prepare conversation even
// when edge-free (a direct per-site commit would not be atomic under
// crashes), and its commit is logged at the commit point — observed at
// the AfterDecisionBeforeRelease step boundary, because once every
// participant releases, the release-ack protocol truncates the
// decision. A single-site transaction keeps the fast path (no log
// entry, no conversation steps).
func TestMultiSiteEdgeFreeCommitUsesHolds(t *testing.T) {
	type logged struct {
		o  fault.Outcome
		ok bool
	}
	atDecision := make(map[core.TxnID]logged)
	var c *Cluster
	cfg := Config{Sites: 2}
	cfg.StepHook = func(step Step, id core.TxnID, _ SiteID) {
		if step == AfterDecisionBeforeRelease {
			o, ok := c.flog.Lookup(id)
			atDecision[id] = logged{o: o, ok: ok}
		}
	}
	var err error
	c, err = NewWithConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := core.ObjectID(1); id <= 4; id++ {
		if err := c.Register(id, adt.Page{}, compat.PageTable()); err != nil {
			t.Fatal(err)
		}
	}
	tx := c.Begin()
	if _, err := tx.Do(1, write(1)); err != nil { // site 1
		t.Fatal(err)
	}
	if _, err := tx.Do(2, write(2)); err != nil { // site 0
		t.Fatal(err)
	}
	if st, err := tx.Commit(); err != nil || st != core.Committed {
		t.Fatalf("commit = %v %v", st, err)
	}
	if got := atDecision[tx.ID()]; !got.ok || got.o != fault.OutcomeCommit {
		t.Fatalf("decision log at AfterDecisionBeforeRelease = %v %v, want commit", got.o, got.ok)
	}
	// Both participants released, so the release-ack protocol pruned
	// the decision: presumed abort never needs it again.
	if _, ok := c.flog.Lookup(tx.ID()); ok {
		t.Fatal("fully released commit decision was not truncated")
	}
	if n := c.flog.Len(); n != 0 {
		t.Fatalf("decision log holds %d entries after full release, want 0", n)
	}
	single := c.Begin()
	if _, err := single.Do(2, write(3)); err != nil {
		t.Fatal(err)
	}
	if st, err := single.Commit(); err != nil || st != core.Committed {
		t.Fatalf("single-site commit = %v %v", st, err)
	}
	if _, ok := atDecision[single.ID()]; ok {
		t.Fatal("single-site fast-path commit ran conversation steps")
	}
}

// TestHoldConversationBatchesMirrorUpdates pins the batching of the
// commit conversation's edge exports: a k-site hold phase performs
// exactly k mirror updates in exactly one coordinator critical
// section.
func TestHoldConversationBatchesMirrorUpdates(t *testing.T) {
	c := newPageCluster(t, 3, 6)
	t1, t2 := c.Begin(), c.Begin()
	if _, err := t1.Do(1, write(10)); err != nil { // site 1
		t.Fatal(err)
	}
	if _, err := t2.Do(1, write(11)); err != nil { // dep T2->T1 at site 1
		t.Fatal(err)
	}
	if _, err := t2.Do(2, write(22)); err != nil { // site 2
		t.Fatal(err)
	}
	c.mu.Lock()
	observesBefore, batchesBefore := c.mirror.Observes(), c.holdBatches
	c.mu.Unlock()
	if st, err := t2.Commit(); err != nil || st != core.PseudoCommitted {
		t.Fatalf("T2 commit = %v %v", st, err)
	}
	c.mu.Lock()
	observes, batches := c.mirror.Observes()-observesBefore, c.holdBatches-batchesBefore
	c.mu.Unlock()
	if observes != 2 {
		t.Fatalf("hold conversation performed %d mirror updates, want 2 (one per touched site)", observes)
	}
	if batches != 1 {
		t.Fatalf("hold conversation took %d coordinator rounds, want 1", batches)
	}
	if st, err := t1.Commit(); err != nil || st != core.Committed {
		t.Fatalf("T1 commit = %v %v", st, err)
	}
	<-t2.Done()
	if err := t2.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterCloseCtx: the draining close waits for a slow transaction
// and a cancelled context force-gates.
func TestClusterCloseCtx(t *testing.T) {
	c := newPageCluster(t, 2, 4)
	slow := c.Begin()
	if _, err := slow.Do(1, write(1)); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() {
		closed <- c.CloseCtx(context.Background())
	}()
	// The gate drops immediately, but the close must wait for slow.
	select {
	case err := <-closed:
		t.Fatalf("CloseCtx returned %v with a transaction in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := c.Begin().Do(1, write(2)); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("Begin after CloseCtx = %v, want ErrClosed", err)
	}
	if st, err := slow.Commit(); err != nil || st != core.Committed {
		t.Fatalf("slow commit = %v %v", st, err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("CloseCtx after drain = %v", err)
	}

	// Force-gate: a cancelled context stops the wait.
	c2 := newPageCluster(t, 2, 4)
	hung := c2.Begin()
	if _, err := hung.Do(1, write(1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := c2.CloseCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CloseCtx with hung transaction = %v, want deadline", err)
	}
	// Still gated; the hung transaction can still finish, after which a
	// fresh CloseCtx returns immediately.
	if st, err := hung.Commit(); err != nil || st != core.Committed {
		t.Fatalf("hung commit = %v %v", st, err)
	}
	if err := c2.CloseCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestChaosClusterConservation is the -race chaos stress: RunLoad over
// a 4-site cluster with a periodic crash/restart of one
// site, the liveness watchdog armed, and exact conservation checked
// across the failures — every object's committed stack depth equals
// the push count of transactions whose commit promise was honoured.
func TestChaosClusterConservation(t *testing.T) {
	const sites = 4
	// Debug arms the coordinator's ack-table invariant; the sites are
	// built here, without it, because the scheduler's own debug
	// assertions replay every object per operation.
	flog := fault.NewMemLog()
	backends := make([]SiteBackend, sites)
	for i := range backends {
		cr, err := fault.New(core.Options{}, flog)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = cr
	}
	c, err := NewWithConfig(Config{Sites: sites, Log: flog, Backends: backends, Opts: core.Options{Debug: true}})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.Sharded{
		Inner: workload.Pushes{DBSize: 64},
		Sites: sites, CrossProb: 0.3,
	}
	const workers, txns = 8, 500
	res, err := workload.RunChaos(c, workload.ChaosConfig{
		Load: workload.LoadConfig{
			Workload:      gen,
			Workers:       workers,
			TxnsPerWorker: txns,
			Seed:          1,
			MaxRestarts:   100000,
		},
		CrashEvery:   4 * time.Millisecond,
		RestartAfter: 2 * time.Millisecond,
		Deadline:     2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != workers*txns {
		t.Fatalf("commits = %d, want %d (every logical txn must end committed)", res.Commits, workers*txns)
	}
	if res.Crashes == 0 {
		t.Fatal("chaos run injected no crashes; the schedule is broken")
	}
	for id := core.ObjectID(1); id <= 64; id++ {
		st, err := c.Site(c.SiteOf(id)).CommittedState(id)
		if err != nil {
			if errors.Is(err, core.ErrUnknownObject) && res.CommittedSteps[id] == 0 {
				continue // never touched, never materialised
			}
			t.Fatalf("object %d: %v", id, err)
		}
		if got, want := uint64(st.(*adt.StackState).Len()), res.CommittedSteps[id]; got != want {
			t.Errorf("object %d: committed depth %d, promised pushes %d", id, got, want)
		}
	}
	t.Logf("chaos: %d crashes, %d held aborts, %d aborted attempts, %d ops",
		res.Crashes, res.HeldAborts, res.Aborts, res.Ops)
}
