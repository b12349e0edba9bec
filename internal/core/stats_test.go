package core

import (
	"testing"

	"repro/internal/adt"
	"repro/internal/compat"
)

// TestStatsSnapshotExact pins the scheduler's counters: after a run
// through a block, a withdrawal, an abort, a recoverable push and a
// pseudo-commit released by a real commit, every one of the 12
// counters reads exactly what that run did.
func TestStatsSnapshotExact(t *testing.T) {
	s := newStackSched(t, Options{})
	if err := s.Register(2, adt.Page{}, compat.PageTable()); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, s, 1, 2, 3)

	// Page conflict: T1 writes, T2's read blocks, then T2 withdraws
	// and aborts (Blocks, WaitForEdges, Withdrawals, Aborts).
	mustExec(t, s, 1, 2, write(10))
	if dec, _, err := doRequest(s, 2, 2, read()); err != nil || dec.Outcome != Blocked {
		t.Fatalf("read: %+v, %v", dec, err)
	}
	if _, err := doWithdraw(s, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := doAbort(s, 2); err != nil {
		t.Fatal(err)
	}

	// Recoverable non-commuting pushes: a commit dependency and a
	// pseudo-commit, released by T1's real commit (CommitDepEdges,
	// PseudoCommits, Commits, CycleChecks).
	mustExec(t, s, 1, 1, push(1))
	mustExec(t, s, 3, 1, push(2))
	if st, _, err := doCommit(s, 3); err != nil || st != PseudoCommitted {
		t.Fatalf("T3 commit = %v, %v; want pseudo-committed", st, err)
	}
	if st, _, err := doCommit(s, 1); err != nil || st != Committed {
		t.Fatalf("T1 commit = %v, %v; want committed", st, err)
	}

	want := Stats{
		Executes:       3, // T1's write and push, T3's push
		Blocks:         1, // T2's read
		Aborts:         1, // T2
		Withdrawals:    1, // T2's read
		Commits:        2, // T1, then the held T3 it released
		PseudoCommits:  1, // T3
		CycleChecks:    2, // the deadlock check at the block, the serializability check at T3's push
		CommitDepEdges: 1, // T3 -> T1
		WaitForEdges:   1, // T2 -> T1
	}
	if st := s.StatsSnapshot(); st != want {
		t.Fatalf("StatsSnapshot = %+v\nwant            %+v", st, want)
	}
}
