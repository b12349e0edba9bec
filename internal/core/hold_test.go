package core

import (
	"strings"
	"testing"
)

// TestCommitHoldBasics: a held transaction with no dependencies stays
// pseudo-committed (it is not auto-cascaded) until Release finalises
// it.
func TestCommitHoldBasics(t *testing.T) {
	s := newStackSched(t, Options{})
	mustBegin(t, s, 1)
	mustExec(t, s, 1, 1, push(5))

	deps, eff, err := doCommitHold(s, 1)
	if err != nil || deps != 0 || !eff.Empty() {
		t.Fatalf("CommitHold = %d, %+v, %v", deps, eff, err)
	}
	if st := s.TxnState(1); st != "pseudo-committed" {
		t.Fatalf("state = %s", st)
	}
	// Idempotent while pseudo.
	if deps, _, err := doCommitHold(s, 1); err != nil || deps != 0 {
		t.Fatalf("second CommitHold = %d, %v", deps, err)
	}
	// The held transaction's operations still gate others.
	mustBegin(t, s, 2)
	if dec, _, _ := doRequest(s, 2, 1, pop()); dec.Outcome != Blocked {
		t.Fatal("pop should block behind the held push")
	}

	eff, err = doRelease(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Grants) != 1 || eff.Grants[0].Txn != 2 {
		t.Fatalf("release grants = %+v", eff.Grants)
	}
	if st := s.TxnState(1); st != "committed" {
		t.Fatalf("state after release = %s", st)
	}
}

// TestCommitHoldReportsDeps: the returned out-degree is the local
// dependency count the distributed coordinator sums.
func TestCommitHoldReportsDeps(t *testing.T) {
	s := newStackSched(t, Options{})
	mustBegin(t, s, 1, 2)
	mustExec(t, s, 1, 1, push(1))
	mustExec(t, s, 2, 1, push(2)) // dep T2 -> T1

	deps, _, err := doCommitHold(s, 2)
	if err != nil || deps != 1 {
		t.Fatalf("CommitHold(2) = %d, %v, want 1 dependency", deps, err)
	}
	// Release is refused while dependencies remain.
	if _, err := doRelease(s, 2); err == nil || !strings.Contains(err.Error(), "outstanding") {
		t.Fatalf("Release with deps = %v", err)
	}
	// T1 terminates; the held T2 must NOT auto-commit (that is the
	// whole point of holding).
	if _, eff, err := doCommit(s, 1); err != nil || len(eff.Committed) != 0 {
		t.Fatalf("T1 commit effects = %+v, %v — held T2 must not cascade", eff, err)
	}
	if st := s.TxnState(2); st != "pseudo-committed" {
		t.Fatalf("T2 = %s, want still pseudo-committed (held)", st)
	}
	if _, err := doRelease(s, 2); err != nil {
		t.Fatal(err)
	}
	if st := s.TxnState(2); st != "committed" {
		t.Fatalf("T2 = %s", st)
	}
}

// TestCommitHoldErrors covers the error surface.
func TestCommitHoldErrors(t *testing.T) {
	s := newStackSched(t, Options{})
	if _, _, err := doCommitHold(s, 9); err == nil {
		t.Error("unknown txn accepted")
	}
	if _, err := doRelease(s, 9); err == nil {
		t.Error("release of unknown txn accepted")
	}
	mustBegin(t, s, 1, 2)
	// Release of a plain active transaction is refused.
	if _, err := doRelease(s, 1); err == nil {
		t.Error("release of an active transaction accepted")
	}
	// Blocked transactions cannot hold.
	mustExec(t, s, 1, 1, push(1))
	if dec, _, _ := doRequest(s, 2, 1, pop()); dec.Outcome != Blocked {
		t.Fatal("setup")
	}
	if _, _, err := doCommitHold(s, 2); err != ErrTxnBlocked {
		t.Errorf("CommitHold while blocked = %v", err)
	}
	// Terminated transactions cannot hold or release.
	if _, err := doAbort(s, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := doCommitHold(s, 1); err != ErrTxnTerminated {
		t.Errorf("CommitHold after abort = %v", err)
	}
	// A Release on a non-held pseudo-committed transaction is refused.
	s2 := newStackSched(t, Options{})
	mustBegin(t, s2, 1, 2)
	mustExec(t, s2, 1, 1, push(1))
	mustExec(t, s2, 2, 1, push(2))
	if st, _, _ := doCommit(s2, 2); st != PseudoCommitted {
		t.Fatal("setup")
	}
	if _, err := doRelease(s2, 2); err == nil || !strings.Contains(err.Error(), "held") {
		t.Errorf("Release of unheld pseudo = %v", err)
	}
}
