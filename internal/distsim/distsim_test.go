package distsim

import (
	"testing"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/workload"
)

// run executes a config and fails the test on error.
func run(t *testing.T, cfg Config) Result {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// small returns a quick mixed config with real cross-site traffic.
func small(seed int64) Config {
	cfg := Default(workload.Sharded{
		Inner:     workload.Pushes{DBSize: 32},
		Sites:     4,
		CrossProb: 0.3,
	}, 4, 8, seed)
	cfg.Completions = 300
	cfg.Warmup = 30
	cfg.ThinkTime = 0.02
	return cfg
}

// TestRunCompletes: the engine reaches its completion target and the
// headline numbers are sane.
func TestRunCompletes(t *testing.T) {
	res := run(t, small(1))
	if res.RealCommits != 300 {
		t.Fatalf("windowed real commits = %d, want 300", res.RealCommits)
	}
	if res.SimTime <= 0 {
		t.Fatalf("SimTime = %v", res.SimTime)
	}
	if res.Held == 0 {
		t.Fatal("cross-site pushes produced no held conversations")
	}
	if res.Stats.Commits == 0 {
		t.Fatal("site schedulers recorded no commits")
	}
}

// TestDeterminism: same seed, same scenario — bit-identical trace hash
// and identical measurements, twice over; a different seed diverges.
func TestDeterminism(t *testing.T) {
	a := run(t, small(7))
	b := run(t, small(7))
	if a.TraceHash != b.TraceHash || a.TraceLines != b.TraceLines {
		t.Fatalf("same seed, different traces: %016x/%d vs %016x/%d",
			a.TraceHash, a.TraceLines, b.TraceHash, b.TraceLines)
	}
	if a.String() != b.String() {
		t.Fatalf("same seed, different results:\n%s\n%s", a, b)
	}
	if a.ConvoyDepth != b.ConvoyDepth || a.PhaseHeldWait != b.PhaseHeldWait {
		t.Fatalf("same seed, different distributions: convoy %s vs %s, held wait %+v vs %+v",
			a.ConvoySummary(), b.ConvoySummary(), a.PhaseHeldWait, b.PhaseHeldWait)
	}
	c := run(t, small(8))
	if c.TraceHash == a.TraceHash {
		t.Fatal("different seeds produced identical traces — the seed is not reaching the run")
	}
}

// TestConservation: on the all-push workload, after every site has
// recovered, each object's committed stack depth equals exactly the
// number of push steps of logical transactions whose commit promise
// was honoured — crashes included.
func TestConservation(t *testing.T) {
	for _, crashed := range []bool{false, true} {
		cfg := small(3)
		if crashed {
			cfg.Crashes = []CrashPoint{
				{Step: dist.AfterPrepareForce, Occurrence: 3, Site: -1, RestartAfter: 0.3},
				{Step: dist.AfterDecisionBeforeRelease, Occurrence: 9, Site: -1, RestartAfter: 0.3},
				{Step: dist.BeforeDecisionForce, Occurrence: 21, Site: -1, RestartAfter: 0.3},
				{Step: dist.DuringReleaseCascade, Occurrence: 30, Site: -1, RestartAfter: 0.3},
			}
		}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if crashed && res.Crashes == 0 {
			t.Fatal("crash schedule never fired")
		}
		for obj := core.ObjectID(1); obj <= 32; obj++ {
			var depth uint64
			st, err := eng.Site(eng.route(obj)).CommittedState(obj)
			if err == nil {
				depth = uint64(st.(*adt.StackState).Len())
			}
			if want := res.CommittedSteps[obj]; depth != want {
				t.Errorf("crashed=%v obj %d: committed depth %d, want %d (conservation violated)",
					crashed, obj, depth, want)
			}
		}
	}
}

// TestCrashAtAfterDecisionBeforeRelease: the crash lands after the
// commit point, so recovery must redo at least the victim's prepared
// record — deterministically, on every run of the scenario.
func TestCrashAtAfterDecisionBeforeRelease(t *testing.T) {
	res := run(t, CrashRedo(11))
	if res.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", res.Crashes)
	}
	if res.Redone == 0 {
		t.Fatalf("crash at AfterDecisionBeforeRelease redid nothing (presumed=%d)", res.PresumedAborted)
	}
	// Determinism of the scenario itself.
	again := run(t, CrashRedo(11))
	if again.TraceHash != res.TraceHash {
		t.Fatalf("redo scenario not deterministic: %016x vs %016x", res.TraceHash, again.TraceHash)
	}
}

// TestCrashAtBeforeDecisionForce: one boundary earlier the decision is
// never logged, so the victim's prepared record must be presumed
// aborted — and nothing may be redone for that conversation.
func TestCrashAtBeforeDecisionForce(t *testing.T) {
	res := run(t, CrashPresume(11))
	if res.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", res.Crashes)
	}
	if res.PresumedAborted == 0 {
		t.Fatalf("crash at BeforeDecisionForce presumed nothing aborted (redone=%d)", res.Redone)
	}
	if res.HeldAborts == 0 && res.Aborts == 0 {
		t.Fatal("the doomed conversation produced no abort")
	}
}

// TestLogBounded: release-ack truncation keeps the decision log's peak
// at the in-flight hold population, not the commit count, and drains
// it once the run quiesces.
func TestLogBounded(t *testing.T) {
	cfg := small(5)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := res.RealCommits + cfg.Warmup
	if res.LogHighWater >= total/2 {
		t.Fatalf("log high water %d vs %d commits — truncation is not keeping up", res.LogHighWater, total)
	}
}
