package core

import (
	"errors"
	"testing"

	"repro/internal/adt"
	"repro/internal/compat"
)

func push(v int) adt.Op  { return adt.Op{Name: adt.StackPush, Arg: v, HasArg: true} }
func pop() adt.Op        { return adt.Op{Name: adt.StackPop} }
func read() adt.Op       { return adt.Op{Name: adt.PageRead} }
func write(v int) adt.Op { return adt.Op{Name: adt.PageWrite, Arg: v, HasArg: true} }
func sins(v int) adt.Op  { return adt.Op{Name: adt.SetInsert, Arg: v, HasArg: true} }
func smem(v int) adt.Op  { return adt.Op{Name: adt.SetMember, Arg: v, HasArg: true} }

// newStackSched builds a scheduler with one stack object (id 1).
func newStackSched(t *testing.T, opts Options) *Scheduler {
	t.Helper()
	opts.Debug = true
	s := NewScheduler(opts)
	if err := s.Register(1, adt.Stack{}, compat.StackTable()); err != nil {
		t.Fatal(err)
	}
	return s
}

func mustExec(t *testing.T, s *Scheduler, id TxnID, obj ObjectID, op adt.Op) adt.Ret {
	t.Helper()
	dec, _, err := doRequest(s, id, obj, op)
	if err != nil {
		t.Fatalf("T%d %v: %v", id, op, err)
	}
	if dec.Outcome != Executed {
		t.Fatalf("T%d %v: outcome %v, want executed", id, op, dec.Outcome)
	}
	return dec.Ret
}

func mustBegin(t *testing.T, s *Scheduler, ids ...TxnID) {
	t.Helper()
	for _, id := range ids {
		if err := s.Begin(id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTwoPushesRunConcurrently is the paper's headline example: two
// pushes do not commute but are recoverable, so the second executes
// without waiting; the invoker merely picks up a commit dependency.
func TestTwoPushesRunConcurrently(t *testing.T) {
	s := newStackSched(t, Options{})
	mustBegin(t, s, 1, 2)

	mustExec(t, s, 1, 1, push(4))
	mustExec(t, s, 2, 1, push(2)) // executes immediately despite T1's uncommitted push

	if d := s.g.OutDegree(2); d != 1 {
		t.Fatalf("T2 out-degree = %d, want 1 (commit dependency on T1)", d)
	}

	// T2 commits first: it can only pseudo-commit.
	st, eff, err := doCommit(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st != PseudoCommitted || !eff.Empty() {
		t.Fatalf("T2 commit = %v (effects %+v), want pseudo-committed", st, eff)
	}

	// T1 commits: real commit, cascading T2's real commit.
	st, eff, err = doCommit(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st != Committed {
		t.Fatalf("T1 commit = %v", st)
	}
	if len(eff.Committed) != 1 || eff.Committed[0] != 2 {
		t.Fatalf("cascaded commits = %v, want [2]", eff.Committed)
	}

	// Final committed state preserves execution order: [4 2].
	got, err := s.CommittedState(1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(adt.NewStackState(4, 2)) {
		t.Fatalf("final stack = %v, want stack[4 2]", got)
	}
}

// TestAbortDoesNotCascade: the earlier pusher aborts; the later one
// still commits and only its element survives — recoverability's whole
// point.
func TestAbortDoesNotCascade(t *testing.T) {
	for _, rec := range []Recovery{RecoveryIntentions, RecoveryUndo} {
		t.Run(rec.String(), func(t *testing.T) {
			s := newStackSched(t, Options{Recovery: rec})
			mustBegin(t, s, 1, 2)
			mustExec(t, s, 1, 1, push(4))
			mustExec(t, s, 2, 1, push(2))

			if _, err := doAbort(s, 1); err != nil {
				t.Fatal(err)
			}
			// T2 is unaffected and now has no dependencies.
			if d := s.g.OutDegree(2); d != 0 {
				t.Fatalf("T2 out-degree after T1 abort = %d, want 0", d)
			}
			st, _, err := doCommit(s, 2)
			if err != nil {
				t.Fatal(err)
			}
			if st != Committed {
				t.Fatalf("T2 commit = %v, want real commit", st)
			}
			got, err := s.CommittedState(1)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(adt.NewStackState(2)) {
				t.Fatalf("final stack = %v, want stack[2]", got)
			}
		})
	}
}

// TestCommutativityBaselineBlocks: under the commutativity-only
// predicate the second push must wait for the first to terminate.
func TestCommutativityBaselineBlocks(t *testing.T) {
	s := newStackSched(t, Options{Predicate: PredCommutativity})
	mustBegin(t, s, 1, 2)
	mustExec(t, s, 1, 1, push(4))

	dec, _, err := doRequest(s, 2, 1, push(2))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Outcome != Blocked {
		t.Fatalf("push under commutativity = %v, want blocked", dec.Outcome)
	}

	// T1 commits; T2's push is granted.
	st, eff, err := doCommit(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st != Committed {
		t.Fatalf("T1 commit = %v", st)
	}
	if len(eff.Grants) != 1 || eff.Grants[0].Txn != 2 || eff.Grants[0].Ret != adt.RetOK {
		t.Fatalf("grants = %+v, want T2's push", eff.Grants)
	}
	if st, _, _ := doCommit(s, 2); st != Committed {
		t.Fatalf("T2 commit = %v", st)
	}
}

// TestPaperSequence3 replays sequence (3) of §3.2: stack S and set X;
// T2's operations (push, insert) are recoverable relative to T1's
// uncommitted (push, member), so they run immediately, and T2 commits
// only after T1.
func TestPaperSequence3(t *testing.T) {
	s := NewScheduler(Options{Debug: true})
	if err := s.Register(1, adt.Stack{}, compat.StackTable()); err != nil { // S
		t.Fatal(err)
	}
	if err := s.Register(2, adt.Set{}, compat.SetTable()); err != nil { // X
		t.Fatal(err)
	}
	mustBegin(t, s, 1, 2)

	mustExec(t, s, 1, 1, push(4))                             // S: (push(4), T1, ok)
	if r := mustExec(t, s, 1, 2, smem(3)); r.Code != adt.No { // X: (member(3), T1, no)
		t.Fatalf("member = %v", r)
	}
	mustExec(t, s, 2, 1, push(2)) // S: (push(2), T2, ok) — no waiting
	mustExec(t, s, 2, 2, sins(3)) // X: (insert(3), T2, ok) — no waiting

	st2, _, err := doCommit(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st2 != PseudoCommitted {
		t.Fatalf("T2 before T1 terminates: %v, want pseudo-committed", st2)
	}
	st1, eff, err := doCommit(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != Committed || len(eff.Committed) != 1 || eff.Committed[0] != 2 {
		t.Fatalf("T1 commit %v effects %+v", st1, eff)
	}
}

// TestReadWriteDeadlock: T1 and T2 each write one page then try to read
// the other's — reads after uncommitted writes conflict, producing a
// wait-for cycle; the second blocker is the victim.
func TestReadWriteDeadlock(t *testing.T) {
	s := NewScheduler(Options{Debug: true})
	for _, id := range []ObjectID{1, 2} {
		if err := s.Register(id, adt.Page{}, compat.PageTable()); err != nil {
			t.Fatal(err)
		}
	}
	mustBegin(t, s, 1, 2)
	mustExec(t, s, 1, 1, write(10))
	mustExec(t, s, 2, 2, write(20))

	dec, _, err := doRequest(s, 1, 2, read())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Outcome != Blocked {
		t.Fatalf("T1 read obj2 = %v, want blocked", dec.Outcome)
	}
	dec, eff, err := doRequest(s, 2, 1, read())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Outcome != Aborted || dec.Reason != ReasonDeadlock {
		t.Fatalf("T2 read obj1 = %v/%v, want deadlock abort", dec.Outcome, dec.Reason)
	}
	// T2's abort releases obj2: T1's read must be granted with the
	// committed (pre-T2) value.
	if len(eff.Grants) != 1 || eff.Grants[0].Txn != 1 {
		t.Fatalf("grants after deadlock abort = %+v", eff.Grants)
	}
	if got := eff.Grants[0].Ret; got != (adt.Ret{Code: adt.Value, Val: 0}) {
		t.Fatalf("T1's granted read = %v, want value(0) — T2's write undone", got)
	}
}

// TestCommitDependencyCycleAborts: commit dependencies in opposite
// directions across two pages form a cycle; the closing transaction is
// aborted to preserve serializability (Lemma 4).
func TestCommitDependencyCycleAborts(t *testing.T) {
	s := NewScheduler(Options{Debug: true})
	for _, id := range []ObjectID{1, 2} {
		if err := s.Register(id, adt.Page{}, compat.PageTable()); err != nil {
			t.Fatal(err)
		}
	}
	mustBegin(t, s, 1, 2)
	mustExec(t, s, 1, 1, write(10))              // X: T1
	mustExec(t, s, 2, 1, write(11))              // X: T2 after T1 -> dep T2->T1
	mustExec(t, s, 2, 2, write(20))              // Y: T2
	dec, _, err := doRequest(s, 1, 2, write(21)) // Y: T1 after T2 -> dep T1->T2: cycle
	if err != nil {
		t.Fatal(err)
	}
	if dec.Outcome != Aborted || dec.Reason != ReasonCommitCycle {
		t.Fatalf("cycle-closing write = %v/%v, want commit-cycle abort", dec.Outcome, dec.Reason)
	}
	// T2 survives and commits for real (T1's entries are gone).
	if st, _, err := doCommit(s, 2); err != nil || st != Committed {
		t.Fatalf("T2 commit = %v, %v", st, err)
	}
	got, _ := s.CommittedState(1)
	if !got.Equal(&adt.PageState{V: 11}) {
		t.Fatalf("X = %v, want 11 (T1's write undone beneath T2's)", got)
	}
}

// TestPseudoCommitChain: three stacked writers commit in reverse order;
// real commits cascade strictly in dependency order.
func TestPseudoCommitChain(t *testing.T) {
	s := NewScheduler(Options{Debug: true})
	if err := s.Register(1, adt.Page{}, compat.PageTable()); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, s, 1, 2, 3)
	mustExec(t, s, 1, 1, write(10))
	mustExec(t, s, 2, 1, write(20))
	mustExec(t, s, 3, 1, write(30))

	if st, _, _ := doCommit(s, 3); st != PseudoCommitted {
		t.Fatal("T3 should pseudo-commit")
	}
	if st, _, _ := doCommit(s, 2); st != PseudoCommitted {
		t.Fatal("T2 should pseudo-commit")
	}
	st, eff, err := doCommit(s, 1)
	if err != nil || st != Committed {
		t.Fatalf("T1 commit: %v, %v", st, err)
	}
	if len(eff.Committed) != 2 || eff.Committed[0] != 2 || eff.Committed[1] != 3 {
		t.Fatalf("cascade order = %v, want [2 3]", eff.Committed)
	}
	got, _ := s.CommittedState(1)
	if !got.Equal(&adt.PageState{V: 30}) {
		t.Fatalf("final page = %v, want 30", got)
	}
}

// TestPseudoCommittedSurviveDependencyAbort: T2 pseudo-commits depending
// on T1; T1 aborts; T2 must still really commit (commit dependencies
// only order commits "if both commit").
func TestPseudoCommittedSurviveDependencyAbort(t *testing.T) {
	s := newStackSched(t, Options{})
	mustBegin(t, s, 1, 2)
	mustExec(t, s, 1, 1, push(4))
	mustExec(t, s, 2, 1, push(2))
	if st, _, _ := doCommit(s, 2); st != PseudoCommitted {
		t.Fatal("T2 should pseudo-commit")
	}
	eff, err := doAbort(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Committed) != 1 || eff.Committed[0] != 2 {
		t.Fatalf("T2 should really commit when T1 aborts; effects %+v", eff)
	}
	got, _ := s.CommittedState(1)
	if !got.Equal(adt.NewStackState(2)) {
		t.Fatalf("final stack = %v, want stack[2]", got)
	}
}

// TestFairSchedulingBlocksBehindBlockedRequest: under recoverability an
// incoming write would normally run over an executed write, but with a
// blocked read ahead of it fair scheduling parks it behind the read —
// the paper's defence against starvation.
func TestFairSchedulingBlocksBehindBlockedRequest(t *testing.T) {
	newPageSched := func(unfair bool) *Scheduler {
		s := NewScheduler(Options{Unfair: unfair, Debug: true})
		if err := s.Register(1, adt.Page{}, compat.PageTable()); err != nil {
			t.Fatal(err)
		}
		mustBegin(t, s, 1, 2, 3)
		mustExec(t, s, 1, 1, write(10))
		dec, _, err := doRequest(s, 2, 1, read())
		if err != nil || dec.Outcome != Blocked {
			t.Fatalf("read should block: %v %v", dec, err)
		}
		return s
	}

	// Fair: T3's write waits behind T2's blocked read.
	s := newPageSched(false)
	dec, _, err := doRequest(s, 3, 1, write(30))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Outcome != Blocked {
		t.Fatalf("fair: T3 write = %v, want blocked behind T2's read", dec.Outcome)
	}
	// T1 commits: FIFO grants — T2's read first (sees 10), then T3's
	// write.
	_, eff, err := doCommit(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Grants) != 2 || eff.Grants[0].Txn != 2 || eff.Grants[1].Txn != 3 {
		t.Fatalf("grants = %+v, want T2 then T3", eff.Grants)
	}
	if eff.Grants[0].Ret != (adt.Ret{Code: adt.Value, Val: 10}) {
		t.Fatalf("T2 read %v, want value(10)", eff.Grants[0].Ret)
	}

	// Unfair: T3's write jumps the queue (preferential treatment of
	// writes under recoverability, §5.5.1).
	s = newPageSched(true)
	dec, _, err = doRequest(s, 3, 1, write(30))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Outcome != Executed {
		t.Fatalf("unfair: T3 write = %v, want executed", dec.Outcome)
	}
}

// TestBlockedAbortByUser: a blocked transaction can be aborted by the
// caller (the simulator does this on restart policies); its queue slot
// disappears.
func TestBlockedAbortByUser(t *testing.T) {
	s := NewScheduler(Options{Debug: true})
	if err := s.Register(1, adt.Page{}, compat.PageTable()); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, s, 1, 2)
	mustExec(t, s, 1, 1, write(10))
	dec, _, _ := doRequest(s, 2, 1, read())
	if dec.Outcome != Blocked {
		t.Fatal("read should block")
	}
	if _, err := doAbort(s, 2); err != nil {
		t.Fatal(err)
	}
	// T1 commits with nothing to grant.
	_, eff, err := doCommit(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Grants) != 0 {
		t.Fatalf("grants = %+v, want none", eff.Grants)
	}
}

// TestMisuseErrors covers the scheduler's error surface.
func TestMisuseErrors(t *testing.T) {
	s := newStackSched(t, Options{})
	if err := s.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(1); !errors.Is(err, ErrDuplicateTxn) {
		t.Errorf("duplicate begin: %v", err)
	}
	if err := s.Register(1, adt.Stack{}, compat.StackTable()); !errors.Is(err, ErrDuplicateObj) {
		t.Errorf("duplicate register: %v", err)
	}
	if _, _, err := doRequest(s, 9, 1, push(1)); !errors.Is(err, ErrUnknownTxn) {
		t.Errorf("unknown txn: %v", err)
	}
	if _, _, err := doRequest(s, 1, 9, push(1)); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("unknown object: %v", err)
	}
	if _, err := s.ObjectState(9); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("unknown object state: %v", err)
	}

	// Blocked transactions cannot issue requests or commit.
	mustBegin(t, s, 2)
	mustExec(t, s, 1, 1, push(1))
	if dec, _, _ := doRequest(s, 2, 1, pop()); dec.Outcome != Blocked {
		t.Fatal("pop after push should block")
	}
	if _, _, err := doRequest(s, 2, 1, push(2)); !errors.Is(err, ErrTxnBlocked) {
		t.Errorf("request while blocked: %v", err)
	}
	if _, _, err := doCommit(s, 2); !errors.Is(err, ErrTxnBlocked) {
		t.Errorf("commit while blocked: %v", err)
	}

	// Terminated transactions are terminated.
	if _, _, err := doCommit(s, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := doCommit(s, 1); !errors.Is(err, ErrTxnTerminated) {
		t.Errorf("commit after commit: %v", err)
	}
	if _, err := doAbort(s, 1); !errors.Is(err, ErrTxnTerminated) {
		t.Errorf("abort after commit: %v", err)
	}

	// Pseudo-committed transactions cannot issue requests or abort.
	mustBegin(t, s, 3, 4)
	mustExec(t, s, 3, 1, push(7))
	mustExec(t, s, 4, 1, push(8))
	if st, _, _ := doCommit(s, 4); st != PseudoCommitted {
		t.Fatal("T4 should pseudo-commit")
	}
	if _, _, err := doRequest(s, 4, 1, push(9)); !errors.Is(err, ErrPseudoRequest) {
		t.Errorf("request while pseudo-committed: %v", err)
	}
	if _, err := doAbort(s, 4); err == nil {
		t.Error("abort of pseudo-committed transaction must be refused")
	}
	if st, _, err := doCommit(s, 4); err != nil || st != PseudoCommitted {
		t.Errorf("re-commit of pseudo-committed: %v, %v", st, err)
	}
}

// TestUndoRecoveryRequiresUndoer: registering a non-Undoer type under
// undo-log recovery fails.
type noUndoType struct{ adt.Page }

func (noUndoType) Name() string { return "no-undo" }

func TestUndoRecoveryRequiresUndoer(t *testing.T) {
	// adt.Page implements Undoer; wrap it in a struct that hides the
	// methods by embedding only Type.
	type plain struct{ adt.Type }
	s := NewScheduler(Options{Recovery: RecoveryUndo})
	err := s.Register(1, plain{adt.Page{}}, compat.PageTable())
	if !errors.Is(err, ErrNeedsUndoer) {
		t.Errorf("got %v, want ErrNeedsUndoer", err)
	}
}

func TestStatsAndIntrospection(t *testing.T) {
	s := newStackSched(t, Options{})
	mustBegin(t, s, 1, 2)
	mustExec(t, s, 1, 1, push(1))
	mustExec(t, s, 1, 1, push(2))
	mustExec(t, s, 2, 1, push(3))
	if st := s.TxnState(1); st != "active" {
		t.Errorf("TxnState(1) = %q", st)
	}
	if st := s.TxnState(99); st != "unknown" {
		t.Errorf("TxnState(99) = %q", st)
	}
	stats := s.StatsSnapshot()
	if stats.Executes != 3 || stats.CommitDepEdges == 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stv, e := s.ObjectState(1); e != nil || !stv.Equal(adt.NewStackState(1, 2, 3)) {
		t.Errorf("ObjectState = %v, %v", stv, e)
	}

	if _, _, err := doCommit(s, 1); err != nil {
		t.Fatal(err)
	}
	s.Forget(1)
	if st := s.TxnState(1); st != "unknown" {
		t.Errorf("after Forget, TxnState(1) = %q", st)
	}
	// Forget must not drop live transactions.
	s.Forget(2)
	if st := s.TxnState(2); st != "active" {
		t.Errorf("Forget dropped a live transaction: %q", st)
	}
}

// TestSetParameterConflicts: delete of the same element as an
// uncommitted insert blocks, a different element commutes.
func TestSetParameterConflicts(t *testing.T) {
	s := NewScheduler(Options{Debug: true})
	if err := s.Register(1, adt.Set{}, compat.SetTable()); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, s, 1, 2)
	mustExec(t, s, 1, 1, sins(3))

	del3 := adt.Op{Name: adt.SetDelete, Arg: 3, HasArg: true}
	dec, _, err := doRequest(s, 2, 1, del3)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Outcome != Blocked {
		t.Fatalf("delete(3) after uncommitted insert(3) = %v, want blocked", dec.Outcome)
	}
	_, eff, err := doCommit(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Grants) != 1 || eff.Grants[0].Ret != adt.RetOK {
		t.Fatalf("granted delete = %+v, want ok (element present after commit)", eff.Grants)
	}
}
