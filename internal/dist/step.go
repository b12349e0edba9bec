package dist

import "repro/internal/core"

// Step names a protocol-step boundary of the distributed commit
// conversation — the exact seams where a crash can land. The wall-clock
// cluster fires a StepHook at each (Config.StepHook), and the
// deterministic multi-site simulator (internal/distsim) uses the same
// vocabulary for its crash schedules, so an adversarial scenario reads
// identically in both: "crash site 2 at AfterDecisionBeforeRelease"
// means the same protocol moment under timers and under a virtual
// clock.
type Step uint8

// The commit conversation's step boundaries, in protocol order.
const (
	// NoStep, the zero Step, is an Action's "no boundary on this side".
	NoStep Step = iota
	// BeforeCommitHold: the coordinator is about to send the
	// pseudo-commit-and-hold (prepare) to a participant. A crash of
	// that site here fails the conversation before any promise exists
	// there.
	BeforeCommitHold
	// AfterPrepareForce: the participant forced its prepare record and
	// replied. A crash of that site here leaves a durable in-doubt
	// record whose fate the decision log decides.
	AfterPrepareForce
	// BeforeDecisionForce: every participant holds; the coordinator is
	// about to decide (and, on commit, force the decision to the log).
	// A crash here lands before the commit point: the transaction's
	// prepared records are presumed aborted at recovery.
	BeforeDecisionForce
	// AfterDecisionBeforeRelease: the commit decision is in the log but
	// no participant has been released. A crash here lands after the
	// commit point: recovery must redo the crashed site's prepared
	// record.
	AfterDecisionBeforeRelease
	// DuringReleaseCascade: the coordinator is about to send a release
	// (the real commit) to a participant — fired per site, both on the
	// direct commit path and when a drained dependency set releases a
	// held transaction.
	DuringReleaseCascade

	numSteps // count sentinel, not a step
)

// String implements fmt.Stringer; the names are the ones crash-schedule
// flags accept (see ParseStep).
func (s Step) String() string {
	switch s {
	case BeforeCommitHold:
		return "BeforeCommitHold"
	case AfterPrepareForce:
		return "AfterPrepareForce"
	case BeforeDecisionForce:
		return "BeforeDecisionForce"
	case AfterDecisionBeforeRelease:
		return "AfterDecisionBeforeRelease"
	case DuringReleaseCascade:
		return "DuringReleaseCascade"
	}
	return "unknown-step"
}

// NumSteps bounds the Step values (for occurrence counters indexed by
// Step).
const NumSteps = int(numSteps)

// ParseStep resolves a step name as printed by String.
func ParseStep(name string) (Step, bool) {
	for s := BeforeCommitHold; s < numSteps; s++ {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// StepHook observes protocol-step boundaries of commit conversations.
// It is called from the goroutine driving the conversation with no
// cluster or site lock held, so it may call back into the cluster —
// Crash and Restart included. That is the point: a crash schedule can
// land exactly on a step boundary instead of wherever a wall-clock
// timer happens to fire, which turns chaos tests into exact adversarial
// scenarios. site is the participant the step concerns, or -1 for the
// coordinator-level steps (BeforeDecisionForce,
// AfterDecisionBeforeRelease).
//
// A nil hook (the default) is the zero-latency passthrough: the
// conversation runs exactly as before, one nil check per step — the
// production path is unchanged, pinned by BenchmarkFaultToleranceNoCrash
// and the allocation regressions.
type StepHook func(step Step, t core.TxnID, site SiteID)

// step fires the hook, if one is installed, at an action's boundary
// (NoStep: there is none). Callers must not hold any cluster or site
// lock.
func (c *Cluster) step(s Step, id core.TxnID, sid SiteID) {
	if c.hook != nil && s != NoStep {
		c.hook(s, id, sid)
	}
}
