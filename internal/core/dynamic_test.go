package core

import (
	"testing"

	"repro/internal/adt"
	"repro/internal/compat"
)

// newDynStackSched builds a state-dependent scheduler over one stack
// seeded with the given values (committed).
func newDynStackSched(t *testing.T, vals ...int) *Scheduler {
	t.Helper()
	s := NewScheduler(Options{StateDependent: true, Debug: true})
	if err := s.Register(1, adt.Stack{}, compat.StackTable()); err != nil {
		t.Fatal(err)
	}
	if len(vals) > 0 {
		mustBegin(t, s, 1000)
		for _, v := range vals {
			mustExec(t, s, 1000, 1, push(v))
		}
		if st, _, err := doCommit(s, 1000); err != nil || st != Committed {
			t.Fatalf("seed commit: %v %v", st, err)
		}
		s.Forget(1000)
	}
	return s
}

// TestDynamicPopsEqualTops is the paper's own example: two pops commute
// when the top two elements are the same. With the refinement, the
// second pop runs (with a commit dependency); without it, it blocks.
func TestDynamicPopsEqualTops(t *testing.T) {
	s := newDynStackSched(t, 9, 7, 7)
	mustBegin(t, s, 1, 2, 3)

	if r := mustExec(t, s, 1, 1, pop()); r != (adt.Ret{Code: adt.Value, Val: 7}) {
		t.Fatalf("T1 pop = %v", r)
	}
	// Top two were equal: T2's pop is state-recoverable.
	if r := mustExec(t, s, 2, 1, pop()); r != (adt.Ret{Code: adt.Value, Val: 7}) {
		t.Fatalf("T2 pop = %v", r)
	}
	if d := s.g.OutDegree(2); d != 1 {
		t.Fatalf("T2 out-degree = %d, want a commit dependency on T1", d)
	}
	// "it cannot be allowed to execute concurrently with them unless
	// the top three elements of the stack are the same" — they are
	// not (9 ≠ 7), so the third pop blocks.
	dec, _, err := doRequest(s, 3, 1, pop())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Outcome != Blocked {
		t.Fatalf("T3 pop = %v, want blocked", dec.Outcome)
	}

	// Abort T1: T2's pop return is unaffected (soundness), T3 still
	// cannot run until T2 terminates.
	if _, err := doAbort(s, 1); err != nil {
		t.Fatal(err)
	}
	if st, _, err := doCommit(s, 2); err != nil || st != Committed {
		t.Fatalf("T2 commit = %v, %v", st, err)
	}
	// T2's commit releases T3's pop, which sees the remaining 9.
	// (After T1's abort and T2's commit exactly one 7 was removed.)
	got, err := s.CommittedState(1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(adt.NewStackState(9, 7)) {
		t.Fatalf("stack = %v, want stack[9 7]", got)
	}
}

// TestDynamicThreeEqualTops: with three equal top elements all three
// pops proceed.
func TestDynamicThreeEqualTops(t *testing.T) {
	s := newDynStackSched(t, 4, 4, 4)
	mustBegin(t, s, 1, 2, 3)
	for _, id := range []TxnID{1, 2, 3} {
		if r := mustExec(t, s, id, 1, pop()); r != (adt.Ret{Code: adt.Value, Val: 4}) {
			t.Fatalf("T%d pop = %v", id, r)
		}
	}
	// Commit in invocation order; all real by cascade.
	if st, _, _ := doCommit(s, 3); st != PseudoCommitted {
		t.Fatal("T3 should pseudo-commit")
	}
	if st, _, _ := doCommit(s, 2); st != PseudoCommitted {
		t.Fatal("T2 should pseudo-commit")
	}
	st, eff, err := doCommit(s, 1)
	if err != nil || st != Committed || len(eff.Committed) != 2 {
		t.Fatalf("T1 commit: %v %+v %v", st, eff, err)
	}
	got, _ := s.CommittedState(1)
	if !got.Equal(adt.NewStackState()) {
		t.Fatalf("stack = %v, want empty", got)
	}
}

// TestDynamicDisabledBlocks: the same schedule blocks without the
// refinement.
func TestDynamicDisabledBlocks(t *testing.T) {
	s := NewScheduler(Options{Debug: true})
	if err := s.Register(1, adt.Stack{}, compat.StackTable()); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, s, 1000)
	mustExec(t, s, 1000, 1, push(7))
	mustExec(t, s, 1000, 1, push(7))
	if _, _, err := doCommit(s, 1000); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, s, 1, 2)
	mustExec(t, s, 1, 1, pop())
	dec, _, err := doRequest(s, 2, 1, pop())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Outcome != Blocked {
		t.Fatalf("static pop/pop = %v, want blocked", dec.Outcome)
	}
}

// TestDynamicTopOverUncommittedPushesOfSameValue: top over an
// uncommitted push is statically a conflict, but if the pushed value
// equals the committed top the answer cannot change.
func TestDynamicTopOverSameValuePush(t *testing.T) {
	s := newDynStackSched(t, 5)
	mustBegin(t, s, 1, 2)
	mustExec(t, s, 1, 1, push(5)) // same value as the committed top
	if r := mustExec(t, s, 2, 1, adt.Op{Name: adt.StackTop}); r != (adt.Ret{Code: adt.Value, Val: 5}) {
		t.Fatalf("top = %v", r)
	}
	// A different value would have blocked.
	mustBegin(t, s, 3, 4)
	mustExec(t, s, 3, 1, push(6))
	dec, _, err := doRequest(s, 4, 1, adt.Op{Name: adt.StackTop})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Outcome != Blocked {
		t.Fatalf("top over push(6) = %v, want blocked", dec.Outcome)
	}
}

// TestDynamicRandomRunsStaySound: the randomized protocol property
// suite with the refinement enabled — soundness and serializability
// must survive the extra concurrency. (Mirrors property_test.go; kept
// here because the dynamic path needs Options access.)
func TestDynamicRandomRunsStaySound(t *testing.T) {
	// Reuse the package-level scenario helpers via a small local
	// drive: a set of transactions popping/pushing a shared stack
	// with the dynamic check on, then full verification by replay.
	s := newDynStackSched(t, 1, 1, 1, 2, 2)
	mustBegin(t, s, 1, 2, 3)
	mustExec(t, s, 1, 1, pop())   // 2
	mustExec(t, s, 2, 1, pop())   // 2 (equal tops: state-recoverable)
	mustExec(t, s, 3, 1, push(9)) // push RR pop: deps T3 -> {T1, T2}
	if _, err := doAbort(s, 1); err != nil {
		t.Fatal(err)
	}
	if st, _, _ := doCommit(s, 2); st != Committed {
		t.Fatal("T2 should commit for real (its dependency aborted)")
	}
	if st, _, _ := doCommit(s, 3); st != Committed {
		t.Fatal("T3 should commit")
	}
	got, _ := s.CommittedState(1)
	// From [1 1 1 2 2]: T2's pop removed one 2; T1's pop+push undone;
	// T3 pushed 9.
	if !got.Equal(adt.NewStackState(1, 1, 1, 2, 9)) {
		t.Fatalf("stack = %v, want stack[1 1 1 2 9]", got)
	}
}

// TestDynamicNeedsIntentions: the refinement silently disables itself
// under undo-log recovery (no base state to replay from).
func TestDynamicNeedsIntentions(t *testing.T) {
	s := NewScheduler(Options{StateDependent: true, Recovery: RecoveryUndo, Debug: true})
	if err := s.Register(1, adt.Stack{}, compat.StackTable()); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, s, 1000)
	mustExec(t, s, 1000, 1, push(7))
	mustExec(t, s, 1000, 1, push(7))
	if _, _, err := doCommit(s, 1000); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, s, 1, 2)
	mustExec(t, s, 1, 1, pop())
	dec, _, err := doRequest(s, 2, 1, pop())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Outcome != Blocked {
		t.Fatalf("dynamic under undo recovery = %v, want blocked (disabled)", dec.Outcome)
	}
}
