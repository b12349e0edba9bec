package distsim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/core"
)

// checkConservation verifies, after the run, that each object's
// committed stack depth equals the push steps of logical transactions
// whose commit promise was honoured — the invariant every crash
// flavour must preserve.
func checkConservation(t *testing.T, eng *Engine, res Result, db int) {
	t.Helper()
	for obj := core.ObjectID(1); obj <= core.ObjectID(db); obj++ {
		var depth uint64
		st, err := eng.Site(eng.route(obj)).CommittedState(obj)
		if err == nil {
			depth = uint64(st.(*adt.StackState).Len())
		}
		if want := res.CommittedSteps[obj]; depth != want {
			t.Errorf("obj %d: committed depth %d, want %d (conservation violated)", obj, depth, want)
		}
	}
}

// TestCoordCrashMidConversation: the coordinator dies at a
// BeforeDecisionForce boundary — prepared holds, no logged decision.
// The replacement must orphan the stranded actives, presumed-abort any
// unlogged holds, and still carry the run to its completion target
// with conservation intact, deterministically.
func TestCoordCrashMidConversation(t *testing.T) {
	cfg := CoordCrash(11)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CoordCrashes != 1 || res.CoordRestarts != 1 {
		t.Fatalf("coord crashes/restarts = %d/%d, want 1/1", res.CoordCrashes, res.CoordRestarts)
	}
	if res.CoordOrphans == 0 {
		t.Fatal("the conversation at the crash boundary was not orphaned")
	}
	if res.RealCommits != cfg.Completions {
		t.Fatalf("real commits = %d, want %d (cluster did not recover)", res.RealCommits, cfg.Completions)
	}
	checkConservation(t, eng, res, 16)
	again := run(t, CoordCrash(11))
	if again.TraceHash != res.TraceHash {
		t.Fatalf("coord-crash scenario not deterministic: %016x vs %016x", res.TraceHash, again.TraceHash)
	}
}

// TestCoordCrashAdoptRelease: one boundary later the decision is in
// the log but no release was sent. The replacement coordinator must
// adopt the logged commit and finish its releases — the §6 promise
// survives the coordinator itself failing.
func TestCoordCrashAdoptRelease(t *testing.T) {
	cfg := CoordCrashRelease(11)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CoordCrashes != 1 || res.CoordRestarts != 1 {
		t.Fatalf("coord crashes/restarts = %d/%d, want 1/1", res.CoordCrashes, res.CoordRestarts)
	}
	if res.CoordAdopted == 0 {
		t.Fatal("crash after the commit point adopted no logged decision")
	}
	if res.RealCommits != cfg.Completions {
		t.Fatalf("real commits = %d, want %d", res.RealCommits, cfg.Completions)
	}
	checkConservation(t, eng, res, 16)
	again := run(t, CoordCrashRelease(11))
	if again.TraceHash != res.TraceHash {
		t.Fatalf("adopt scenario not deterministic: %016x vs %016x", res.TraceHash, again.TraceHash)
	}
}

// TestGoldenCoordCrashTrace pins the CoordCrashRelease scenario's full
// event trace: the coordinator crash, the adoption of the logged
// decision, and the reconcile that finishes its releases must replay
// line-for-line identically — the same restart sequence the
// multi-process cluster runs when sccd's coordinator is kill -9'd.
// Run with UPDATE_GOLDEN=1 to regenerate after an intentional change.
func TestGoldenCoordCrashTrace(t *testing.T) {
	cfg := CoordCrashRelease(11)
	cfg.RecordTrace = true
	res := run(t, cfg)
	got := strings.Join(res.Trace, "\n") + "\n"

	// Structural checks first, so a stale golden file cannot mask a
	// scenario that stopped exercising the restart sequence.
	if !strings.Contains(got, "coordcrash") {
		t.Fatal("trace has no coordinator crash")
	}
	if !strings.Contains(got, "coordrestart adopted=") {
		t.Fatal("trace has no coordinator restart adoption")
	}
	if !strings.Contains(got, "adopt-release T") {
		t.Fatal("trace is missing the adopted release reconcile")
	}
	if !strings.Contains(got, "orphan T") {
		t.Fatal("trace is missing the orphaned attempts")
	}

	path := filepath.Join("testdata", "coord_crash_seed11.trace")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden trace updated: %d lines", len(res.Trace))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden trace missing (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("trace diverges at line %d:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("trace length changed: got %d lines, want %d", len(gotLines), len(wantLines))
}
