package distsim

import (
	"regexp"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/dist"
)

// canonicalPolicies returns the depth bounds the perf study pins: the
// cluster default and a bound well under the baseline's 237-deep convoy.
func canonicalPolicies() []dist.HoldPolicy {
	return []dist.HoldPolicy{
		dist.DefaultPolicy(),
		dist.DepthBound{Max: 16},
	}
}

// convoyShort is the Convoy regime at reduced length — long enough for
// every policy to fire, short enough for property tests to run it many
// times.
func convoyShort(seed int64, p dist.HoldPolicy) Config {
	cfg := ConvoyPolicy(seed, p)
	cfg.Completions = 150
	cfg.Warmup = 20
	return cfg
}

// TestConvoyPolicy42 is TestConvoyBaseline42's sibling: the same
// seed-42 convoy run with each depth bound installed, pinned
// bit-for-bit. The acceptance bars come from the baseline constants in
// TestConvoyBaseline42 — every policy must cut the max convoy depth to
// ≤120 (baseline 237), close at least half the 12.32 txn/s pseudo/real
// throughput gap, and pay for it with zero real-throughput regression.
// The exact pins (trace hash, depth, counters) catch any accidental
// behaviour change; an intentional model change must update them in
// the same commit that explains it.
func TestConvoyPolicy42(t *testing.T) {
	const (
		baseDepth  = 237
		baseRealTP = 24.1519           // baseline real commits/s at seed 42
		baseGap    = 36.4693 - 24.1519 // baseline pseudo-real gap, txn/s
		baseDrain  = 11.747            // baseline time-to-drain, virtual s
		baseP99    = 11.331            // baseline held-wait p99, virtual s
	)
	cases := []struct {
		policy dist.HoldPolicy
		hash   uint64
		depth  int // max convoy depth
		real   int
		pseudo int
		shed   int // TailAborts
	}{
		// What a cluster installs when no policy is named.
		{dist.DefaultPolicy(), 0x1325da263ca16066, 13, 400, 394, 220},
		{dist.DepthBound{Max: 16}, 0x1194222b01bdcb30, 54, 400, 414, 169},
	}
	for _, tc := range cases {
		t.Run(tc.policy.Name(), func(t *testing.T) {
			res := run(t, ConvoyPolicy(42, tc.policy))
			if res.TraceHash != tc.hash {
				t.Errorf("trace hash = %016x, want %016x (policy run no longer bit-identical to the checked-in pin)",
					res.TraceHash, tc.hash)
			}
			if got := res.ConvoyMax; got != tc.depth {
				t.Errorf("max convoy depth = %d, want %d", got, tc.depth)
			}
			if res.RealCommits != tc.real || res.PseudoCompletions != tc.pseudo {
				t.Errorf("commits = %d real / %d pseudo, want %d / %d",
					res.RealCommits, res.PseudoCompletions, tc.real, tc.pseudo)
			}
			if res.TailAborts != tc.shed {
				t.Errorf("shed holds = %d, want %d", res.TailAborts, tc.shed)
			}
			if res.Policy != tc.policy.Name() {
				t.Errorf("result policy = %q, want %q", res.Policy, tc.policy.Name())
			}
			// The three acceptance axes against the unbounded baseline.
			if got := res.ConvoyMax; got > 120 {
				t.Errorf("max convoy depth = %d, want <= 120 (baseline %d)", got, baseDepth)
			}
			if gap := res.PseudoThroughput() - res.RealThroughput(); gap > baseGap/2 {
				t.Errorf("pseudo-real gap = %.4f txn/s, want <= %.4f (half of baseline %.4f)",
					gap, baseGap/2, baseGap)
			}
			if rt := res.RealThroughput(); rt < baseRealTP {
				t.Errorf("real throughput = %.4f txn/s, below the %.4f baseline — the policy made it worse",
					rt, baseRealTP)
			}
			// The promise-latency metrics must improve too: bounding the
			// convoy is pointless if held commits wait just as long.
			if res.HeldWaitP99 >= baseP99/2 {
				t.Errorf("held-wait p99 = %.4f, want < %.4f (half of baseline %.4f)",
					res.HeldWaitP99, baseP99/2, baseP99)
			}
			if res.TimeToDrain >= baseDrain/2 {
				t.Errorf("time-to-drain = %.4f, want < %.4f (half of baseline %.4f)",
					res.TimeToDrain, baseDrain/2, baseDrain)
			}
		})
	}
}

// TestPolicyDeterminism: a policy run is as deterministic as a plain
// one — same seed and same policy hash bit-identically, and each
// policy's trace differs from the baseline's and from the other
// policies' (the policy demonstrably changed the event sequence).
func TestPolicyDeterminism(t *testing.T) {
	base := run(t, convoyShort(9, nil))
	hashes := map[uint64]string{base.TraceHash: "baseline"}
	for _, p := range canonicalPolicies() {
		a := run(t, convoyShort(9, p))
		b := run(t, convoyShort(9, p))
		if a.TraceHash != b.TraceHash || a.TraceLines != b.TraceLines {
			t.Errorf("%s: same seed, different traces: %016x/%d vs %016x/%d",
				p.Name(), a.TraceHash, a.TraceLines, b.TraceHash, b.TraceLines)
		}
		if a.String() != b.String() {
			t.Errorf("%s: same seed, different results:\n%s\n%s", p.Name(), a, b)
		}
		if prev, ok := hashes[a.TraceHash]; ok {
			t.Errorf("%s: trace hash %016x collides with %s — the policy changed nothing",
				p.Name(), a.TraceHash, prev)
		}
		hashes[a.TraceHash] = p.Name()
	}
}

// TestPolicyConservation: every policy preserves exact per-object
// conservation — after the run (crash schedule included), each
// object's committed stack depth equals the push count of logical
// transactions whose commit promise was honoured. Shed holds are
// revoked before any promise is honoured, so they must not leave a
// single committed push behind.
func TestPolicyConservation(t *testing.T) {
	for _, p := range canonicalPolicies() {
		for _, crashed := range []bool{false, true} {
			cfg := convoyShort(3, p)
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
				t.Fatalf("%s crashed=%v: %v", p.Name(), crashed, err)
			}
			if crashed && res.Crashes == 0 {
				t.Fatalf("%s: crash schedule never fired", p.Name())
			}
			if res.TailAborts == 0 {
				t.Fatalf("%s crashed=%v: policy never fired — not exercising the shed path", p.Name(), crashed)
			}
			for obj := core.ObjectID(1); obj <= 128; obj++ {
				var depth uint64
				st, err := eng.Site(eng.route(obj)).CommittedState(obj)
				if err == nil {
					depth = uint64(st.(*adt.StackState).Len())
				}
				if want := res.CommittedSteps[obj]; depth != want {
					t.Errorf("%s crashed=%v obj %d: committed depth %d, want %d (conservation violated)",
						p.Name(), crashed, obj, depth, want)
				}
			}
		}
	}
}

// txnEventRE matches every per-transaction terminal event in the
// trace: once "committed T<id>" appears, no abort-flavoured event may
// mention the same id again — a policy must never revoke a transaction
// whose real commit already landed.
var txnEventRE = regexp.MustCompile(`(committed|retry-abort|abort|shed|revoke|cycle) T(\d+)`)

// TestPolicyNeverAbortsCommitted scans each policy's full event trace
// (crash schedule included, so crash-revokes are in play too): a
// really-committed transaction id must never be shed, revoked or
// aborted afterwards. Recoverability lets a policy revoke *held*
// pseudo-commits without cascading; touching a real commit would be a
// durability violation.
func TestPolicyNeverAbortsCommitted(t *testing.T) {
	for _, p := range canonicalPolicies() {
		cfg := convoyShort(4, p)
		cfg.RecordTrace = true
		cfg.Crashes = []CrashPoint{
			{Step: dist.AfterPrepareForce, Occurrence: 5, Site: -1, RestartAfter: 0.3},
			{Step: dist.DuringReleaseCascade, Occurrence: 12, Site: -1, RestartAfter: 0.3},
		}
		res := run(t, cfg)
		if len(res.Trace) == 0 {
			t.Fatalf("%s: no trace recorded", p.Name())
		}
		committed := make(map[int]bool)
		sheds := 0
		for i, line := range res.Trace {
			m := txnEventRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			id, err := strconv.Atoi(m[2])
			if err != nil {
				t.Fatalf("%s: bad txn id in trace line %q", p.Name(), line)
			}
			switch m[1] {
			case "committed":
				committed[id] = true
			case "shed":
				sheds++
				fallthrough
			default:
				if committed[id] {
					t.Fatalf("%s: trace line %d %q aborts T%d after its real commit",
						p.Name(), i+1, line, id)
				}
			}
		}
		if len(committed) == 0 {
			t.Fatalf("%s: trace has no real commits", p.Name())
		}
		if sheds == 0 {
			t.Fatalf("%s: depth bound shed nothing — scenario not adversarial enough", p.Name())
		}
	}
}
