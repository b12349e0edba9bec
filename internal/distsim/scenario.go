package distsim

import (
	"repro/internal/dist"
	"repro/internal/workload"
)

// Convoy is the checked-in hold-convoy collapse scenario: an
// all-recoverable workload (every operation a stack push — recoverable
// with, but not commuting past, other pushes) with 40% cross-site
// steps, the regime where the wall-clock harness collapses to the
// coordinator's release-cascade rate (~160 txn/s on the 1-core dev
// container, ROADMAP). Held commits chain: every new transaction
// acquires commit dependencies on held ones and holds too, so real
// commits drain only as fast as release conversations cascade, while
// terminals — freed at pseudo-commit — keep piling new holds on. The
// simulator reproduces the collapse deterministically and measures
// what the wall clock cannot: the convoy-depth histogram and the
// pseudo/real throughput gap. This is the fixed baseline a future
// bounded-hold policy must beat.
func Convoy(seed int64) Config {
	cfg := Default(workload.Sharded{
		Inner:     workload.Pushes{DBSize: 128},
		Sites:     8,
		CrossProb: 0.4,
	}, 8, 32, seed)
	cfg.ThinkTime = 0.02  // eager terminals: holds pile up
	cfg.Completions = 400 // the collapse signature is visible early
	cfg.Warmup = 50
	return cfg
}

// ConvoyPolicy is the Convoy scenario with a bounded-hold policy
// installed — same seed, same workload, same timing; the only change
// is the coordinator's answer when a conversation would be held. The
// checked-in TestConvoyPolicy42 pins each policy's win over the
// unbounded baseline.
func ConvoyPolicy(seed int64, p dist.HoldPolicy) Config {
	cfg := Convoy(seed)
	cfg.Policy = p
	return cfg
}

// CrashRedo is the golden redo scenario: a small 2-site cluster whose
// first conversation to pass AfterDecisionBeforeRelease crashes its
// first participant — after the commit point, so the release skips the
// dead site and restart recovery must redo the logged commit from the
// prepared record.
func CrashRedo(seed int64) Config {
	cfg := smallCrashBase(seed)
	cfg.Crashes = []CrashPoint{{
		Step:         dist.AfterDecisionBeforeRelease,
		Occurrence:   1,
		Site:         -1,
		RestartAfter: 0.5,
	}}
	return cfg
}

// CrashPresume is the matching presumed-abort scenario: the crash
// lands one boundary earlier, at BeforeDecisionForce — every
// participant holds a forced prepare record but no decision is logged,
// so restart recovery must presume the record aborted and the logical
// transaction re-runs.
func CrashPresume(seed int64) Config {
	cfg := smallCrashBase(seed)
	cfg.Crashes = []CrashPoint{{
		Step:         dist.BeforeDecisionForce,
		Occurrence:   1,
		Site:         -1,
		RestartAfter: 0.5,
	}}
	return cfg
}

// smallCrashBase: 2 sites, 4 terminals, cross-site pushes — small
// enough for a golden trace, cross enough that hold conversations are
// guaranteed.
func smallCrashBase(seed int64) Config {
	cfg := Default(workload.Sharded{
		Inner:     workload.Pushes{DBSize: 16},
		Sites:     2,
		CrossProb: 0.5,
	}, 2, 4, seed)
	cfg.ThinkTime = 0.02
	cfg.Completions = 40
	cfg.Warmup = 0
	return cfg
}

// CoordCrash is the coordinator-failure scenario, mid-conversation
// flavour: the coordinator dies at a BeforeDecisionForce boundary —
// conversations have prepared holds but no logged decision. The
// replacement coordinator must presumed-abort the unlogged holds
// (CoordRevoked), abort the orphaned actives (CoordOrphans), and carry
// the cluster to the completion target with conservation intact.
func CoordCrash(seed int64) Config {
	cfg := smallCrashBase(seed)
	cfg.CoordCrashes = []CoordCrashPoint{{
		Step:         dist.BeforeDecisionForce,
		Occurrence:   4,
		RestartAfter: 0.5,
	}}
	return cfg
}

// CoordCrashRelease is the adoption flavour: the coordinator dies one
// boundary later, at AfterDecisionBeforeRelease — the decision is in
// the log but no release was sent. The replacement coordinator adopts
// the logged commit and finishes its releases (CoordAdopted); the
// paper's promise survives the coordinator itself failing. This is the
// same restart sequence the multi-process cluster runs when sccd's
// coordinator is kill -9'd (wire.StartCoordinator), pinned on the
// virtual clock.
func CoordCrashRelease(seed int64) Config {
	cfg := smallCrashBase(seed)
	cfg.CoordCrashes = []CoordCrashPoint{{
		Step:         dist.AfterDecisionBeforeRelease,
		Occurrence:   2,
		RestartAfter: 0.5,
	}}
	return cfg
}

// SweepPoint parameterises one cell of the message-latency ×
// cross-site-probability sweep at the given scale. Sites can be
// hundreds: every site is one real scheduler, so simulated scale costs
// memory, not goroutines.
func SweepPoint(sites, terminals int, latency, cross float64, seed int64) Config {
	cfg := Default(workload.Sharded{
		Inner:     workload.Pushes{DBSize: sites * 16},
		Sites:     sites,
		CrossProb: cross,
	}, sites, terminals, seed)
	cfg.MsgTime = latency
	cfg.ThinkTime = 0.02
	cfg.Completions = 600
	cfg.Warmup = 60
	return cfg
}
