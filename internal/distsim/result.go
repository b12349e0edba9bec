package distsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Result is what one deterministic multi-site run measured. The
// windowed counters (SimTime, RealCommits, PseudoCompletions, Aborts,
// HeldAborts) cover the measurement window (after Warmup real
// commits). Held and the distributions sample from the start of the
// run up to the completion target, warm-up included, and InDoubt also
// the end-of-run restarts; the other counters cover the whole run.
type Result struct {
	Sites int

	// SimTime is the virtual seconds the measurement window lasted.
	SimTime float64
	// RealCommits counts logical transactions whose real commit landed
	// (at every visited site) inside the window — the conservation
	// currency, and the convoy study's honest throughput.
	RealCommits int
	// PseudoCompletions counts terminal-level completions inside the
	// window: a transaction is complete for its terminal at
	// pseudo-commit (§4.3), which is what makes convoys possible —
	// terminals submit new work while holds pile up.
	PseudoCompletions int
	// Aborts counts aborted attempts (each resubmitted).
	Aborts int
	// HeldAborts counts held pseudo-commits revoked by a site crash
	// before their commit point (each logical transaction re-run).
	HeldAborts int

	// Held counts commit conversations that ended held (ConvoyDepth's n).
	Held int
	// Crashes / Restarts count injected failures (whole run; restarts
	// include the end-of-run recovery of still-down sites).
	Crashes, Restarts int
	// Redone / PresumedAborted count prepared records resolved by
	// restart recovery (whole run).
	Redone, PresumedAborted int

	// Coordinator-failure counters (whole run; all zero unless
	// Config.CoordCrashes armed the model). CoordAdopted counts logged
	// commit decisions the replacement coordinator adopted at restart;
	// CoordOrphans counts attempts stranded mid-flight by a coordinator
	// crash (each aborted and retried); CoordRevoked counts unlogged
	// holds presumed-aborted because the coordinator that held them
	// died.
	CoordCrashes, CoordRestarts int
	CoordAdopted                int
	CoordOrphans, CoordRevoked  int

	// ConvoyDepth samples the held-set size at each hold — the joining
	// transaction included, so the first hold of an idle cluster
	// records depth 1. ConvoyMax is its exact maximum, the convoy depth
	// the wall-clock harness can only guess at.
	ConvoyDepth telemetry.HistSnapshot
	ConvoyMax   int
	// The durations below are in virtual nanoseconds. InDoubt measures
	// prepare-to-resolution windows of prepared records that lived
	// through a crash (resolved by restart recovery).
	InDoubt telemetry.HistSnapshot
	// Per-phase latency breakdown of the transaction lifecycle:
	// execution (first submit-side issue to conversation start), the
	// hold conversation (start to decision-or-held), the held wait
	// (held to decision), and the release fan-out (decision to real
	// commit everywhere).
	PhaseExec, PhaseHold, PhaseHeldWait, PhaseRelease telemetry.HistSnapshot

	// LogHighWater is the decision log's peak live size — with
	// release-ack truncation it tracks in-flight holds, not history.
	LogHighWater int
	// CommittedSteps counts, per object, the operations of logical
	// transactions whose real commit landed — the expected side of a
	// conservation check against the final committed states.
	CommittedSteps map[core.ObjectID]uint64

	// Policy names the hold policy the run used ("" = off, the
	// unbounded baseline).
	Policy string
	// TailAborts counts holds shed by the depth bound (whole run; each
	// shed is also counted in Aborts and retried).
	TailAborts int
	// HeldWaitP99 is the 99th-percentile held→decision wait in virtual
	// seconds, over every hold of the run including those resolved in
	// the post-target drain (unlike PhaseHeldWait, which samples only
	// inside the run so it stays comparable with older results).
	HeldWaitP99 float64
	// TimeToDrain is the virtual time from the completion target (the
	// last arrival: terminals stop) to the empty held set — how long
	// the convoy's outstanding promises take to honour once load
	// stops.
	TimeToDrain float64

	// TraceHash is the 64-bit FNV-1a hash of every trace line — the
	// bit-identity fingerprint two same-seed runs must share.
	TraceHash uint64
	// TraceLines is the number of trace lines hashed.
	TraceLines int
	// Trace holds the lines themselves when Config.RecordTrace is set.
	Trace []string

	// Spans is the causal-span ring's final contents (nil unless
	// Config.Spans > 0), stamped from the virtual clock, and Exemplars
	// the pinned tail-latency traces. Same seed, same config,
	// bit-identical slices.
	Spans     []telemetry.Span
	Exemplars []telemetry.TraceExemplar

	// Stats sums every site's scheduler counters across incarnations.
	Stats core.Stats
}

// RealThroughput returns real commits per virtual second in the
// window.
func (r Result) RealThroughput() float64 {
	if r.SimTime <= 0 {
		return 0
	}
	return float64(r.RealCommits) / r.SimTime
}

// PseudoThroughput returns terminal completions per virtual second in
// the window.
func (r Result) PseudoThroughput() float64 {
	if r.SimTime <= 0 {
		return 0
	}
	return float64(r.PseudoCompletions) / r.SimTime
}

// String renders the headline numbers.
func (r Result) String() string {
	s := fmt.Sprintf(
		"sites=%d simtime=%.3f real=%d (%.1f/s) pseudo=%d (%.1f/s) aborts=%d heldaborts=%d held=%d crashes=%d redone=%d presumed=%d convoy[%s] heldp99=%.4f drain=%.3f logpeak=%d trace=%016x",
		r.Sites, r.SimTime, r.RealCommits, r.RealThroughput(),
		r.PseudoCompletions, r.PseudoThroughput(), r.Aborts, r.HeldAborts,
		r.Held, r.Crashes, r.Redone, r.PresumedAborted,
		r.ConvoySummary(), r.HeldWaitP99, r.TimeToDrain,
		r.LogHighWater, r.TraceHash)
	if r.Policy != "" {
		s += fmt.Sprintf(" policy=%s shed=%d", r.Policy, r.TailAborts)
	}
	if r.CoordCrashes > 0 {
		s += fmt.Sprintf(" coordcrash=%d/%d adopted=%d orphans=%d revoked=%d",
			r.CoordCrashes, r.CoordRestarts, r.CoordAdopted,
			r.CoordOrphans, r.CoordRevoked)
	}
	return s
}

// ConvoySummary renders ConvoyDepth: sample count, mean, the p50 and
// p95 bucket upper bounds (capped at ConvoyMax) and ConvoyMax.
func (r Result) ConvoySummary() string {
	s, hi := r.ConvoyDepth, float64(r.ConvoyMax)
	return fmt.Sprintf("n=%d mean=%.2f p50<=%.0f p95<=%.0f max=%d",
		s.Count, s.Mean(), min(s.Quantile(0.5), hi), min(s.Quantile(0.95), hi), r.ConvoyMax)
}
