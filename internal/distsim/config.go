// Package distsim is a seeded, deterministic discrete-event simulation
// of the §6 distributed cluster: every participant site runs the real
// concurrency-control machinery (a fault.Crashable wrapping a
// core.Scheduler), the coordinator is the shipped dist.Coordinator —
// the decision half of the commit conversation, the same value
// dist.Cluster embeds — over the real decision log (fault.Log), and
// everything advances on a virtual clock (internal/sim's Timeline) —
// no goroutines, no wall time, no races.
//
// What the wall-clock cluster (internal/dist) resolves with mutexes,
// parked goroutines and timers, the simulator models as messages with
// seeded latency: requests travel from terminals to the object's home
// site, dependency-edge reports travel from sites to the coordinator's
// mirror, and commit conversations (hold, decide, release) are
// per-site message rounds. Crash injection is exact: a schedule places
// Crash/Restart on named protocol-step boundaries (dist.Step — the
// same vocabulary the wall-clock StepHook fires), so "crash site 2 the
// first time a conversation passes AfterDecisionBeforeRelease" is one
// scenario line, reproducible bit-for-bit from its seed.
//
// The model, and its limits: message channels between the coordinator
// side and each site are FIFO and lossless (latency jitters, order per
// direction holds, nothing is dropped or partitioned); abort
// propagation to surviving sites is immediate (the wall-clock cluster
// runs it synchronously too); terminals are co-located with the
// coordinator. The coordinator itself can be crashed on a protocol
// step (CoordCrashPoint): the Coordinator value — union-graph mirror,
// registry, release-ack table — is dropped, the durable decision log
// survives, and a new Coordinator on that log Adopts the logged commits
// and reconciles every site against the log, exactly what the
// wall-clock wire.StartCoordinator does. What the engine itself models
// is time, message order and the hold/release fan-out sequencing. See
// DESIGN.md, "Simulation model".
package distsim

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/workload"
)

// CrashPoint places one crash exactly on a protocol-step boundary: the
// Occurrence-th global firing of Step crashes Site.
type CrashPoint struct {
	// Step is the protocol-step boundary (dist.Step names).
	Step dist.Step
	// Occurrence selects the n-th (1-based) global firing of Step
	// across the whole run.
	Occurrence int
	// Site is the site to crash; -1 means the step's own site (for the
	// coordinator-level steps BeforeDecisionForce and
	// AfterDecisionBeforeRelease, the transaction's lowest visited
	// site — the first participant of its conversation).
	Site int
	// RestartAfter is the virtual downtime before the site restarts
	// with presumed-abort recovery; <= 0 means the site stays down
	// until the end of the run (the engine restarts every down site
	// after the completion target is met, so final states are always
	// fully recovered).
	RestartAfter float64
}

// CoordCrashPoint places one coordinator crash on a protocol-step
// boundary: the Occurrence-th global firing of Step kills the
// coordinator. Volatile coordinator state (the mirror, the release-ack
// table) is lost; the decision log survives. After RestartAfter virtual
// seconds a new coordinator starts on the same log: it adopts every
// logged commit, aborts orphaned actives, redoes logged holds and
// direct commits, and presumed-aborts unlogged holds — the
// wire.StartCoordinator sequence, pinned on the virtual clock.
type CoordCrashPoint struct {
	// Step is the protocol-step boundary (dist.Step names).
	Step dist.Step
	// Occurrence selects the n-th (1-based) global firing of Step.
	Occurrence int
	// RestartAfter is the virtual downtime before the replacement
	// coordinator starts; must be > 0 (a cluster whose coordinator
	// never returns cannot finish the run).
	RestartAfter float64
}

// Config parameterises one deterministic multi-site simulation.
type Config struct {
	// Sites is the number of participant sites; objects route home by
	// id modulo Sites (dist.RouteByModulo's rule).
	Sites int
	// Terminals is the closed-loop population: each terminal keeps one
	// logical transaction in flight (think, submit, retry on abort)
	// and is released at completion — pseudo-commit included, as in
	// the §5 model.
	Terminals int
	// MinLength/MaxLength bound the uniform transaction length.
	MinLength, MaxLength int
	// Workload draws transactions (typically workload.Sharded for
	// home-partitioned traffic with a cross-site probability).
	Workload workload.Generator
	// Predicate selects recoverability (default) or the commutativity
	// baseline at every site.
	Predicate core.Predicate
	// Seed drives all randomness; same seed, bit-identical run.
	Seed int64

	// SiteTime is the service time a site spends processing one
	// operation or conversation message before replying.
	SiteTime float64
	// MsgTime is the mean one-way message latency between the
	// coordinator/terminal side and a site.
	MsgTime float64
	// MsgJitter spreads each latency draw uniformly over
	// MsgTime*(1±MsgJitter); 0 means constant latency.
	MsgJitter float64
	// ThinkTime is the mean of the exponential terminal think time.
	ThinkTime float64
	// RestartDelay is the base virtual backoff before an aborted
	// logical transaction is resubmitted (doubling per attempt, capped,
	// with a seeded jitter factor).
	RestartDelay float64

	// Completions is how many logical transactions must really commit
	// (the promise honoured at every site) after warm-up.
	Completions int
	// Warmup is how many real commits to discard before the
	// measurement window opens.
	Warmup int
	// MaxEvents guards against stalls; 0 picks a generous default.
	MaxEvents int

	// Crashes is the protocol-step crash schedule.
	Crashes []CrashPoint
	// CoordCrashes is the coordinator crash schedule. Non-empty
	// schedules arm the coordinator-failure model (direct commits are
	// logged and gated like the wire client plane does); an empty
	// schedule keeps the classic coordinator-never-fails model and its
	// bit-identical baseline traces.
	CoordCrashes []CoordCrashPoint
	// Policy, when non-nil, is the bounded-hold release policy the
	// simulated coordinator consults (the same dist.HoldPolicy values
	// the wall-clock cluster takes); same seed + same policy means a
	// bit-identical run. Nil preserves the unbounded baseline.
	Policy dist.HoldPolicy
	// RecordTrace keeps the full event-trace lines in the Result (the
	// trace hash is always computed).
	RecordTrace bool
	// Spans, when positive, records deterministic causal spans into a
	// ring of this capacity, stamped from the VIRTUAL clock: the same
	// seed yields bit-identical span timelines, and the trace hash is
	// untouched (span emission never draws randomness or trace lines).
	Spans int
	// Log is the coordinator's decision log; nil means a fresh
	// fault.NewMemLog.
	Log fault.Log
}

// Default returns a laptop-friendly multi-site configuration: the
// paper's nominal transaction lengths, an operation service time of
// 5 ms, 10 ms mean message latency with ±50% jitter, 100 ms think
// time, 2000 measured real commits with 10% warm-up.
func Default(w workload.Generator, sites, terminals int, seed int64) Config {
	return Config{
		Sites:        sites,
		Terminals:    terminals,
		MinLength:    4,
		MaxLength:    12,
		Workload:     w,
		Seed:         seed,
		SiteTime:     0.005,
		MsgTime:      0.010,
		MsgJitter:    0.5,
		ThinkTime:    0.1,
		RestartDelay: 0.02,
		Completions:  2000,
		Warmup:       200,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Workload == nil:
		return errors.New("distsim: config needs a workload")
	case c.Sites <= 0:
		return errors.New("distsim: Sites must be positive")
	case c.Terminals <= 0:
		return errors.New("distsim: Terminals must be positive")
	case c.MinLength <= 0 || c.MaxLength < c.MinLength:
		return fmt.Errorf("distsim: bad length bounds [%d,%d]", c.MinLength, c.MaxLength)
	case c.SiteTime < 0 || c.MsgTime < 0 || c.ThinkTime < 0 || c.RestartDelay < 0:
		return errors.New("distsim: times must be >= 0")
	case c.MsgJitter < 0 || c.MsgJitter > 1:
		return errors.New("distsim: MsgJitter must be in [0,1]")
	case c.Completions <= 0:
		return errors.New("distsim: Completions must be positive")
	case c.Warmup < 0:
		return errors.New("distsim: Warmup must be >= 0")
	}
	for i, cp := range c.Crashes {
		if cp.Occurrence <= 0 {
			return fmt.Errorf("distsim: crash %d: Occurrence must be >= 1", i)
		}
		if cp.Step == dist.NoStep || int(cp.Step) >= dist.NumSteps {
			return fmt.Errorf("distsim: crash %d: unknown step", i)
		}
		if cp.Site >= c.Sites {
			return fmt.Errorf("distsim: crash %d: site %d out of range", i, cp.Site)
		}
	}
	for i, cp := range c.CoordCrashes {
		if cp.Occurrence <= 0 {
			return fmt.Errorf("distsim: coord crash %d: Occurrence must be >= 1", i)
		}
		if cp.Step == dist.NoStep || int(cp.Step) >= dist.NumSteps {
			return fmt.Errorf("distsim: coord crash %d: unknown step", i)
		}
		if cp.RestartAfter <= 0 {
			return fmt.Errorf("distsim: coord crash %d: RestartAfter must be > 0", i)
		}
	}
	return nil
}

// maxEvents returns the stall guard.
func (c Config) maxEvents() int {
	if c.MaxEvents > 0 {
		return c.MaxEvents
	}
	n := (c.Completions + c.Warmup) * 10_000
	if n < 2_000_000 {
		n = 2_000_000
	}
	return n
}
