package core

import (
	"testing"

	"repro/internal/adt"
	"repro/internal/compat"
)

// TestStatsSnapshotDerivesFromTelemetry pins the unified stats
// surface: the plain Stats snapshot is a view over the live telemetry
// counters, not separate bookkeeping, so the two must agree
// field-for-field after a run that moves every exercised counter.
func TestStatsSnapshotDerivesFromTelemetry(t *testing.T) {
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

	st := s.StatsSnapshot()
	tel := s.Telemetry()
	want := Stats{
		Executes:       tel.Executes.Load(),
		Blocks:         tel.Blocks.Load(),
		Grants:         tel.Grants.Load(),
		Aborts:         tel.Aborts.Load(),
		DeadlockAborts: tel.DeadlockAborts.Load(),
		CycleAborts:    tel.CycleAborts.Load(),
		Withdrawals:    tel.Withdrawals.Load(),
		Commits:        tel.Commits.Load(),
		PseudoCommits:  tel.PseudoCommits.Load(),
		CycleChecks:    tel.CycleChecks.Load(),
		CommitDepEdges: tel.CommitDepEdges.Load(),
		WaitForEdges:   tel.WaitForEdges.Load(),
	}
	if st != want {
		t.Fatalf("StatsSnapshot %+v disagrees with telemetry view %+v", st, want)
	}
	if st.Executes == 0 || st.Blocks == 0 || st.Withdrawals != 1 ||
		st.Commits == 0 || st.PseudoCommits != 1 || st.CommitDepEdges == 0 || st.WaitForEdges == 0 {
		t.Fatalf("expected every exercised counter non-zero: %+v", st)
	}
	// One deadlock check at the block, one serializability check at the
	// recoverable push, one edge of each kind.
	if st.CycleChecks != 2 || st.WaitForEdges != 1 || st.CommitDepEdges != 1 {
		t.Fatalf("cycle checks %d, wait-for edges %d, commit-dep edges %d; want 2, 1, 1",
			st.CycleChecks, st.WaitForEdges, st.CommitDepEdges)
	}
}
