package distsim

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestGoldenRedoTrace pins the CrashRedo scenario's full event trace:
// the crash at AfterDecisionBeforeRelease, the skipped release, the
// restart and the redo must replay line-for-line identically. Run with
// UPDATE_GOLDEN=1 to regenerate after an intentional model change.
func TestGoldenRedoTrace(t *testing.T) {
	cfg := CrashRedo(11)
	cfg.RecordTrace = true
	res := run(t, cfg)
	got := strings.Join(res.Trace, "\n") + "\n"

	// Structural checks first, so a stale golden file cannot mask a
	// scenario that stopped exercising redo recovery.
	if res.Redone == 0 {
		t.Fatal("redo scenario redid nothing")
	}
	if !strings.Contains(got, "step AfterDecisionBeforeRelease") {
		t.Fatal("trace has no AfterDecisionBeforeRelease boundary")
	}
	if !strings.Contains(got, "crash site=") || !strings.Contains(got, "redone=[") {
		t.Fatal("trace is missing the crash or the recovery record")
	}
	if !strings.Contains(got, "skipped (down, redo at restart)") {
		t.Fatal("trace is missing the skipped release that forces the redo")
	}
	// The redone record's in-doubt window, recorded before the
	// distributions moved onto telemetry histograms.
	if n, mean := res.InDoubt.Count, res.InDoubt.Mean()/1e9; n != 1 || math.Abs(mean-0.519019) > 1e-6 {
		t.Errorf("in-doubt windows n=%d mean=%.6fs, want n=1 mean=0.519019s", n, mean)
	}

	path := filepath.Join("testdata", "crash_redo_seed11.trace")
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

// TestConvoyCollapse reproduces the ROADMAP hold-convoy collapse
// deterministically: under the all-recoverable 40%-cross-site
// workload, terminals freed at pseudo-commit pile holds on faster than
// release cascades drain them, so the held set grows into the hundreds
// and real-commit throughput sits well below the terminal-perceived
// rate. The asserted floor is the fixed baseline a future bounded-hold
// policy must beat.
func TestConvoyCollapse(t *testing.T) {
	res := run(t, Convoy(42))
	if res.Held == 0 {
		t.Fatal("no conversation was held — not the convoy regime")
	}
	if res.ConvoyMax < 100 {
		t.Fatalf("max convoy depth = %d, want >= 100 (collapse not reproduced)", res.ConvoyMax)
	}
	if rt, pt := res.RealThroughput(), res.PseudoThroughput(); rt >= 0.8*pt {
		t.Fatalf("real throughput %.1f/s vs pseudo %.1f/s — no collapse gap", rt, pt)
	}
	if res.PhaseHeldWait.Mean() < 10*res.PhaseRelease.Mean() {
		t.Fatalf("held wait (%.3fs mean) should dwarf the release round (%.3fs mean) in a convoy",
			res.PhaseHeldWait.Mean()/1e9, res.PhaseRelease.Mean()/1e9)
	}
	// The whole point: the collapse is reproducible bit-for-bit.
	again := run(t, Convoy(42))
	if again.TraceHash != res.TraceHash {
		t.Fatalf("convoy scenario not deterministic: %016x vs %016x", res.TraceHash, again.TraceHash)
	}
	if again.ConvoyMax != res.ConvoyMax || again.RealCommits != res.RealCommits {
		t.Fatal("convoy metrics differ across same-seed runs")
	}
}

// TestConvoyBaseline42 pins the Convoy baseline run bit-for-bit. The
// constants below were recorded before the coordinator rewrite (the
// interned mirror, the sharded registry and the batched commit
// conversation), so this test is the proof that the many-core work
// changed no observable protocol behaviour: the seed-42 event trace
// hashes identically, and the convoy depth and real/pseudo throughput
// gap — the fixed baseline a future bounded-hold policy must beat —
// are exactly what they were. An intentional model change must update
// the constants in the same commit that explains it.
func TestConvoyBaseline42(t *testing.T) {
	const (
		baseHash   = uint64(0x71872824acbf006c)
		baseDepth  = 237
		baseReal   = 400
		basePseudo = 604
		baseHeld   = 684
		baseGap    = 36.4693 - 24.1519 // pseudo - real throughput, txn/s
	)
	res := run(t, Convoy(42))
	if res.TraceHash != baseHash {
		t.Fatalf("Convoy(42) trace hash = %016x, want %016x (event trace no longer bit-identical to the checked-in baseline)",
			res.TraceHash, baseHash)
	}
	if got := res.ConvoyMax; got != baseDepth {
		t.Errorf("max convoy depth = %d, want %d", got, baseDepth)
	}
	if res.RealCommits != baseReal || res.PseudoCompletions != basePseudo {
		t.Errorf("commits = %d real / %d pseudo, want %d / %d",
			res.RealCommits, res.PseudoCompletions, baseReal, basePseudo)
	}
	if res.Held != baseHeld {
		t.Errorf("held conversations = %d, want %d", res.Held, baseHeld)
	}
	if gap := res.PseudoThroughput() - res.RealThroughput(); gap > baseGap+0.01 {
		t.Errorf("pseudo-real throughput gap = %.4f txn/s, baseline %.4f — convoy got worse", gap, baseGap)
	}
	// The phase distributions, recorded before they moved onto
	// telemetry histograms: exact counts, means to a virtual µs.
	for _, ph := range []struct {
		name string
		got  telemetry.HistSnapshot
		n    uint64
		mean float64 // virtual seconds
	}{
		{"exec", res.PhaseExec, 689, 0.212698},
		{"hold", res.PhaseHold, 687, 0.087557},
		{"held-wait", res.PhaseHeldWait, 449, 3.498812},
		{"release", res.PhaseRelease, 450, 0.087354},
	} {
		if mean := ph.got.Mean() / 1e9; ph.got.Count != ph.n || math.Abs(mean-ph.mean) > 1e-6 {
			t.Errorf("%s phase n=%d mean=%.6fs, want n=%d mean=%.6fs", ph.name, ph.got.Count, mean, ph.n, ph.mean)
		}
	}
}

// TestSweepScale: one latency×cross sweep cell at simulated scale —
// 200 sites, far beyond what the wall-clock harness can host — runs to
// completion deterministically.
func TestSweepScale(t *testing.T) {
	cfg := SweepPoint(200, 100, 0.01, 0.2, 5)
	cfg.Completions = 300
	cfg.Warmup = 30
	res := run(t, cfg)
	if res.Sites != 200 {
		t.Fatalf("sites = %d", res.Sites)
	}
	if res.RealCommits != 300 {
		t.Fatalf("real commits = %d, want 300", res.RealCommits)
	}
	again := run(t, cfg)
	if again.TraceHash != res.TraceHash {
		t.Fatal("scale run not deterministic")
	}
}

// TestSeedMatrix is the CI determinism matrix: every checked-in
// scenario runs twice per seed and must hash identically; across
// seeds, hashes must differ.
func TestSeedMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is the long determinism sweep")
	}
	type mk struct {
		name string
		mk   func(int64) Config
	}
	scenarios := []mk{
		{"small", small},
		{"redo", CrashRedo},
		{"presume", CrashPresume},
		{"coordcrash", CoordCrash},
		{"coordrelease", CoordCrashRelease},
	}
	for _, sc := range scenarios {
		seen := map[uint64]int64{}
		for _, seed := range []int64{1, 2, 3} {
			a := run(t, sc.mk(seed))
			b := run(t, sc.mk(seed))
			if a.TraceHash != b.TraceHash {
				t.Errorf("%s seed %d: non-deterministic (%016x vs %016x)", sc.name, seed, a.TraceHash, b.TraceHash)
			}
			if prev, ok := seen[a.TraceHash]; ok {
				t.Errorf("%s: seeds %d and %d collide on %016x", sc.name, prev, seed, a.TraceHash)
			}
			seen[a.TraceHash] = seed
		}
	}
}
