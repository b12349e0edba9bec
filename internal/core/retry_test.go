package core

import (
	"testing"

	"repro/internal/adt"
	"repro/internal/compat"
)

// TestRetryAbort builds the one remaining protocol path: a blocked
// request whose retry closes a commit-dependency cycle, so the blocked
// transaction is aborted *during retry* and surfaces in
// Effects.RetryAborts.
//
// Construction (unfair scheduling so T3's push can overtake T2's
// blocked pop):
//
//	T2 write Y                      (executed)
//	T3 write Y   -> dep T3 -> T2    (recoverable)
//	T1 push S                       (executed)
//	T2 pop  S    -> blocked, wait T2 -> T1
//	T3 push S    -> dep T3 -> T1    (unfair: jumps the blocked pop)
//	T1 commit    -> retry T2's pop: it now conflicts with T3's
//	               uncommitted push, so the retry adds wait T2 -> T3;
//	               with dep T3 -> T2 that is a cycle => abort T2.
func TestRetryAbort(t *testing.T) {
	s := NewScheduler(Options{Unfair: true, Debug: true})
	if err := s.Register(1, adt.Stack{}, compat.StackTable()); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(2, adt.Page{}, compat.PageTable()); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, s, 1, 2, 3)

	mustExec(t, s, 2, 2, write(20))
	mustExec(t, s, 3, 2, write(30)) // dep T3 -> T2
	mustExec(t, s, 1, 1, push(1))

	dec, _, err := doRequest(s, 2, 1, pop())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Outcome != Blocked {
		t.Fatalf("T2 pop = %v, want blocked", dec.Outcome)
	}
	mustExec(t, s, 3, 1, push(2)) // dep T3 -> T1, overtakes the pop

	st, eff, err := doCommit(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st != Committed {
		t.Fatalf("T1 commit = %v", st)
	}
	if len(eff.RetryAborts) != 1 || eff.RetryAborts[0].Txn != 2 || eff.RetryAborts[0].Reason != ReasonDeadlock {
		t.Fatalf("retry aborts = %+v, want T2 aborted on retry", eff.RetryAborts)
	}
	if got := s.TxnState(2); got != "aborted" {
		t.Fatalf("T2 state = %s", got)
	}
	// T3 survives; T2's abort dropped T3's dependency on it.
	if st, _, err := doCommit(s, 3); err != nil || st != Committed {
		t.Fatalf("T3 commit = %v, %v", st, err)
	}
	// T2's write on Y was undone underneath T3's (write-chain):
	// final page value is T3's.
	got, err := s.CommittedState(2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(&adt.PageState{V: 30}) {
		t.Fatalf("page Y = %v, want 30", got)
	}
}

// TestWaitEdgesClearedOnGrant: once a blocked request is granted, its
// transient wait-for edges are gone; only commit dependencies remain.
func TestWaitEdgesClearedOnGrant(t *testing.T) {
	s := NewScheduler(Options{Debug: true})
	if err := s.Register(1, adt.Stack{}, compat.StackTable()); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, s, 1, 2)
	mustExec(t, s, 1, 1, push(1))
	if dec, _, _ := doRequest(s, 2, 1, pop()); dec.Outcome != Blocked {
		t.Fatal("pop should block")
	}
	if d := s.g.OutDegree(2); d != 1 {
		t.Fatalf("blocked T2 out-degree = %d, want 1 wait edge", d)
	}
	if _, eff, err := doCommit(s, 1); err != nil || len(eff.Grants) != 1 {
		t.Fatalf("commit effects = %+v, %v", eff, err)
	}
	if d := s.g.OutDegree(2); d != 0 {
		t.Fatalf("granted T2 out-degree = %d, want 0 (wait edges cleared, holder gone)", d)
	}
}

// TestFIFOAcrossRetry: three requests block behind a holder; grants
// come strictly in arrival order even when the retry leaves some
// blocked (the second conflicts with the first under fair scheduling).
func TestFIFOAcrossRetry(t *testing.T) {
	s := NewScheduler(Options{Debug: true})
	if err := s.Register(1, adt.Page{}, compat.PageTable()); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, s, 1, 2, 3, 4)
	mustExec(t, s, 1, 1, write(10))

	// Three blocked requests: read (conflicts with the write), write
	// (fair-blocked behind the read), read (fair-blocked behind the
	// write).
	for _, req := range []struct {
		txn TxnID
		op  adt.Op
	}{{2, read()}, {3, write(30)}, {4, read()}} {
		dec, _, err := doRequest(s, req.txn, 1, req.op)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Outcome != Blocked {
			t.Fatalf("T%d %v = %v, want blocked", req.txn, req.op, dec.Outcome)
		}
	}

	// Holder commits. The retry grants T2's read (value 10), then
	// T3's write (no conflict left: the read executed and write RR
	// read), then T4's read must NOT run (it conflicts with T3's
	// uncommitted write).
	_, eff, err := doCommit(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Grants) != 2 || eff.Grants[0].Txn != 2 || eff.Grants[1].Txn != 3 {
		t.Fatalf("grants = %+v, want T2 then T3", eff.Grants)
	}
	if eff.Grants[0].Ret != (adt.Ret{Code: adt.Value, Val: 10}) {
		t.Fatalf("T2 read = %v", eff.Grants[0].Ret)
	}
	if got := s.TxnState(4); got != "blocked" {
		t.Fatalf("T4 = %s, want still blocked behind T3's write", got)
	}
	// T3's granted write ran over T2's uncommitted read, so T3 picked
	// up a commit dependency on T2 and can only pseudo-commit while
	// T2 is active.
	if st, _, err := doCommit(s, 3); err != nil || st != PseudoCommitted {
		t.Fatalf("T3 commit = %v, %v, want pseudo-committed (depends on T2)", st, err)
	}
	// T2 commits: T3's real commit cascades, releasing its write from
	// the log, which finally grants T4's read with T3's value.
	_, eff, err = doCommit(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Committed) != 1 || eff.Committed[0] != 3 {
		t.Fatalf("cascade after T2 = %+v, want T3", eff.Committed)
	}
	if len(eff.Grants) != 1 || eff.Grants[0].Txn != 4 || eff.Grants[0].Ret != (adt.Ret{Code: adt.Value, Val: 30}) {
		t.Fatalf("grants after T2 = %+v", eff.Grants)
	}
}

// TestCommitDepAcrossObjectsOrdersCascade: dependencies gathered on
// different objects all gate the real commit.
func TestCommitDepAcrossObjectsOrdersCascade(t *testing.T) {
	s := NewScheduler(Options{Debug: true})
	for _, id := range []ObjectID{1, 2} {
		if err := s.Register(id, adt.Page{}, compat.PageTable()); err != nil {
			t.Fatal(err)
		}
	}
	mustBegin(t, s, 1, 2, 3)
	mustExec(t, s, 1, 1, write(10)) // X: T1
	mustExec(t, s, 2, 2, write(20)) // Y: T2
	mustExec(t, s, 3, 1, write(31)) // X: T3 -> dep on T1
	mustExec(t, s, 3, 2, write(32)) // Y: T3 -> dep on T2

	if st, _, _ := doCommit(s, 3); st != PseudoCommitted {
		t.Fatal("T3 should pseudo-commit")
	}
	// Committing only T1 must not release T3 (still depends on T2).
	if _, eff, err := doCommit(s, 1); err != nil || len(eff.Committed) != 0 {
		t.Fatalf("after T1: effects %+v, %v", eff, err)
	}
	if got := s.TxnState(3); got != "pseudo-committed" {
		t.Fatalf("T3 = %s", got)
	}
	_, eff, err := doCommit(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Committed) != 1 || eff.Committed[0] != 3 {
		t.Fatalf("after T2: effects %+v, want T3's real commit", eff)
	}
}

// TestUndoRecoveryStateViews: under undo-log recovery CommittedState
// falls back to the materialised state.
func TestUndoRecoveryStateViews(t *testing.T) {
	s := NewScheduler(Options{Recovery: RecoveryUndo})
	if err := s.Register(1, adt.Stack{}, compat.StackTable()); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, s, 1)
	mustExec(t, s, 1, 1, push(5))
	a, err := s.ObjectState(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.CommittedState(1)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) || !a.Equal(adt.NewStackState(5)) {
		t.Fatalf("views differ under undo recovery: %v vs %v", a, b)
	}
	if _, err := s.CommittedState(9); err == nil {
		t.Error("unknown object accepted")
	}
}
