package dist

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
)

// newStepCluster builds a 2-site page cluster whose
// StepHook crashes site `victim` the first time the given step fires
// for a transaction (any transaction — the tests drive exactly one
// conversation).
func newStepCluster(t *testing.T, step Step, victim SiteID) (*Cluster, *int) {
	t.Helper()
	fired := 0
	var c *Cluster
	cfg := Config{Sites: 2, Opts: core.Options{Debug: true}}
	cfg.StepHook = func(s Step, _ core.TxnID, _ SiteID) {
		if s == step {
			fired++
			if fired == 1 {
				if err := c.Crash(victim); err != nil {
					t.Errorf("crash at %s: %v", s, err)
				}
			}
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
	return c, &fired
}

// TestCrashExactlyAtAfterDecisionBeforeRelease places a crash on the
// protocol-step boundary right after the commit decision is forced and
// before any participant is released — the PR 4 chaos suite could only
// hope a timer landed here; the step hook guarantees it. The logged
// commit must land at the surviving site, skip the dead one, and be
// redone there by recovery; after the redo ack the decision leaves the
// log.
func TestCrashExactlyAtAfterDecisionBeforeRelease(t *testing.T) {
	c, fired := newStepCluster(t, AfterDecisionBeforeRelease, 1)
	tx := c.Begin()
	if _, err := tx.Do(1, write(10)); err != nil { // site 1 (the victim)
		t.Fatal(err)
	}
	if _, err := tx.Do(2, write(20)); err != nil { // site 0
		t.Fatal(err)
	}
	st, err := tx.Commit()
	if err != nil || st != core.Committed {
		t.Fatalf("commit across the crash = %v %v, want Committed (decision was logged)", st, err)
	}
	if *fired == 0 {
		t.Fatal("step hook never fired")
	}
	if err := tx.Err(); err != nil {
		t.Fatalf("Err = %v, want nil", err)
	}
	// Site 0 released; site 1 is down with a prepared record and a
	// logged decision, so the ack set still pins the log entry.
	if c.flog.Len() != 1 {
		t.Fatalf("decision log len = %d, want 1 (site 1's ack outstanding)", c.flog.Len())
	}
	rep, err := c.Restart(1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rep.Redone, []core.TxnID{tx.ID()}) {
		t.Fatalf("recovery report %+v, want T%d redone", rep, tx.ID())
	}
	s1, _ := c.Site(1).CommittedState(1)
	if got := s1.(*adt.PageState); got.V != 10 {
		t.Fatalf("site 1 committed after redo = %d, want 10", got.V)
	}
	s0, _ := c.Site(0).CommittedState(2)
	if got := s0.(*adt.PageState); got.V != 20 {
		t.Fatalf("site 0 committed = %d, want 20", got.V)
	}
	// The redo was the final release ack: the decision is truncated.
	if n := c.flog.Len(); n != 0 {
		t.Fatalf("decision log len after redo ack = %d, want 0", n)
	}
}

// TestCrashExactlyAtBeforeDecisionForce places the crash one step
// earlier: every participant holds a forced prepare record, but the
// decision has not been logged. The conversation must fail with the
// typed site-failure abort, and recovery must presume the prepared
// record aborted — the other deterministic half of the presumed-abort
// protocol.
func TestCrashExactlyAtBeforeDecisionForce(t *testing.T) {
	c, fired := newStepCluster(t, BeforeDecisionForce, 1)
	tx := c.Begin()
	if _, err := tx.Do(1, write(10)); err != nil { // site 1 (the victim)
		t.Fatal(err)
	}
	if _, err := tx.Do(2, write(20)); err != nil { // site 0
		t.Fatal(err)
	}
	_, err := tx.Commit()
	if !errors.Is(err, core.ErrSiteFailed) {
		t.Fatalf("commit across the crash = %v, want ErrSiteFailed (before the commit point)", err)
	}
	if *fired == 0 {
		t.Fatal("step hook never fired")
	}
	// Nothing was logged, so nothing pins the log.
	if _, ok := c.flog.Lookup(tx.ID()); ok {
		t.Fatal("pre-decision crash left a logged outcome")
	}
	rep, err := c.Restart(1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rep.PresumedAborted, []core.TxnID{tx.ID()}) {
		t.Fatalf("recovery report %+v, want T%d presumed aborted", rep, tx.ID())
	}
	// Both sites are clean: the revoked hold at site 0, the presumed
	// abort at site 1.
	s0, _ := c.Site(0).CommittedState(2)
	if got := s0.(*adt.PageState); got.V != 0 {
		t.Fatalf("site 0 committed = %d, want 0 (hold revoked)", got.V)
	}
	s1, _ := c.Site(1).CommittedState(1)
	if got := s1.(*adt.PageState); got.V != 0 {
		t.Fatalf("site 1 committed = %d, want 0 (presumed aborted)", got.V)
	}
}

// TestCrashExactlyAtAfterPrepareForce: the victim crashes right after
// forcing its own prepare record, while the conversation moves to the
// next participant. The commit cannot reach its decision point, the
// caller sees the retryable site-failure abort, and the orphaned
// prepare record is presumed aborted at restart.
func TestCrashExactlyAtAfterPrepareForce(t *testing.T) {
	// Site 1 is visited first (ascending conversation order is by
	// site id; object 1 lives at site 1, object 2 at site 0 — the
	// conversation order is site 0 then site 1, so crash the first
	// prepared site: site 0's AfterPrepareForce fires first).
	c, fired := newStepCluster(t, AfterPrepareForce, 0)
	tx := c.Begin()
	if _, err := tx.Do(1, write(10)); err != nil { // site 1
		t.Fatal(err)
	}
	if _, err := tx.Do(2, write(20)); err != nil { // site 0, prepared first
		t.Fatal(err)
	}
	_, err := tx.Commit()
	if !errors.Is(err, core.ErrSiteFailed) {
		t.Fatalf("commit across the crash = %v, want ErrSiteFailed", err)
	}
	if *fired == 0 {
		t.Fatal("step hook never fired")
	}
	rep, err := c.Restart(0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rep.PresumedAborted, []core.TxnID{tx.ID()}) {
		t.Fatalf("recovery report %+v, want T%d presumed aborted", rep, tx.ID())
	}
}

// TestLogBoundedUnderLoad drives many held cross-site commit
// conversations — the workload whose decision log used to grow without
// bound — and checks that release-ack-keyed truncation leaves the log
// empty once everything drains. Each round builds a deterministic
// hold: T2 pushes onto T1's uncommitted stack (a commit dependency)
// and touches a second site, pseudo-commits-and-holds, then T1's
// commit cascades T2's release; both decisions must then be pruned.
func TestLogBoundedUnderLoad(t *testing.T) {
	c, err := NewWithConfig(Config{Sites: 4, Opts: core.Options{Debug: true}})
	if err != nil {
		t.Fatal(err)
	}
	for id := core.ObjectID(1); id <= 16; id++ {
		if err := c.Register(id, adt.Stack{}, compat.StackTable()); err != nil {
			t.Fatal(err)
		}
	}
	held := 0
	for round := 0; round < 200; round++ {
		obj := core.ObjectID(1 + round%16)
		other := core.ObjectID(1 + (round+1)%16) // a different site for obj%4 != (obj+1)%4
		t1, t2 := c.Begin(), c.Begin()
		if _, err := t1.Do(obj, push(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := t2.Do(obj, push(2)); err != nil { // dep T2 -> T1
			t.Fatal(err)
		}
		if _, err := t2.Do(other, push(3)); err != nil { // second site
			t.Fatal(err)
		}
		st, err := t2.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if st == core.PseudoCommitted {
			held++
		}
		if st, err := t1.Commit(); err != nil || st != core.Committed {
			t.Fatalf("round %d: T1 commit = %v %v", round, st, err)
		}
		<-t2.Done()
		if err := t2.Err(); err != nil {
			t.Fatalf("round %d: held T2 = %v", round, err)
		}
	}
	if held == 0 {
		t.Fatal("no commit conversation was held — the truncation path was not exercised")
	}
	if n := c.flog.Len(); n != 0 {
		t.Fatalf("decision log holds %d entries after %d rounds (%d held) drained, want 0 (truncation leak)", n, 200, held)
	}
}
