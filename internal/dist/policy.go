package dist

import (
	"fmt"
	"strconv"
	"strings"
)

// This file is the bounded-hold release policy seam. The paper's
// pseudo-commit-and-hold protocol (§4.3) frees terminals at
// pseudo-commit, so under sustained overload holds pile on faster than
// the release cascade drains them: the held set grows without bound
// (the convoy collapse the distsim.Convoy scenario pins) and real
// throughput decouples from pseudo throughput. A HoldPolicy lets the
// coordinator refuse to grow the convoy. Refusing is cheap precisely
// because of recoverability: a held transaction may be revoked without
// cascading (nobody executed against state only it could produce — that
// is what the recoverability predicate guarantees), so a shed is one
// revocation round plus a client retry, never a cascading abort.
//
// The same policy value plugs into the wall-clock coordinator
// (dist.Config.Policy) and the deterministic simulator
// (distsim.Config.Policy), so a policy proven against the seeded convoy
// baseline is the code that runs under the wall clock.
//
// A cluster bounds its convoy unless told otherwise: NewWithConfig
// installs DefaultPolicy when Config.Policy is nil, and the paper's
// unbounded protocol is the explicit value Unbounded{}. The sans-IO
// Coordinator has no default (nil holds unboundedly): mechanism takes
// what it is given, the cluster constructor decides what ships.

// DefaultHoldDepth is the chain-depth bound of the default hold policy.
// It is a constant, not a setting: the sweep behind it (docs/PERF.md,
// "Hold-policy default") has depth 4 ahead of 8, 16 and off on both
// throughput and tail latency, and depth 2 no faster but less steady.
const DefaultHoldDepth = 4

// DefaultPolicy returns the hold policy NewWithConfig installs when
// Config.Policy is nil: shed any commit that would sit atop a
// commit-dependency chain deeper than DefaultHoldDepth.
func DefaultPolicy() HoldPolicy { return DepthBound{Max: DefaultHoldDepth} }

// HoldPolicy decides, at each commit conversation that reached a
// non-empty global dependency set, whether the coordinator holds the
// transaction or sheds it. Both policies are stateless values, so one
// can parameterise many clusters or simulation runs.
type HoldPolicy interface {
	// Name identifies the policy for traces and CLI output (parseable
	// by ParsePolicy).
	Name() string
	// AdmitHold is consulted with the length of the longest
	// commit-dependency chain starting at the transaction (depth >= 2:
	// itself plus at least one dependency). False sheds the hold: the
	// coordinator revokes the transaction (a retryable ReasonShed abort)
	// instead of growing the convoy's tail.
	AdmitHold(depth int) bool
}

// PolicyStats counts the coordinator's policy decisions (and the held
// set's high-water mark, which is maintained with or without a policy).
type PolicyStats struct {
	// TailAborts counts shed holds (depth bound).
	TailAborts int
	// HeldPeak is the held set's high-water mark.
	HeldPeak int
}

// DepthBound sheds any transaction that would sit atop a
// commit-dependency chain longer than Max transactions. Chains are what
// make the convoy's tail expensive: a held transaction at depth k
// releases only after k-1 cascade rounds, so bounding depth bounds the
// worst-case held wait directly.
type DepthBound struct {
	// Max is the longest admissible chain, counted in transactions
	// (the joining transaction included). Must be >= 2: depth 2 is the
	// shallowest possible hold.
	Max int
}

// Name implements HoldPolicy.
func (p DepthBound) Name() string { return fmt.Sprintf("depth=%d", p.Max) }

// AdmitHold implements HoldPolicy.
func (p DepthBound) AdmitHold(depth int) bool { return depth <= p.Max }

// Unbounded is the paper's protocol as written (§4.3): every commit
// with a non-empty dependency set is held, however long the convoy
// grows. It exists so that "no bound" is something a caller says
// (Config.Policy: Unbounded{}, "off" on the command line) rather than
// what a cluster does when nothing was said; the coordinator does not
// consult it (nor compute the chain depth it would ignore).
type Unbounded struct{}

// Name implements HoldPolicy.
func (Unbounded) Name() string { return "off" }

// AdmitHold implements HoldPolicy.
func (Unbounded) AdmitHold(int) bool { return true }

// ParsePolicy parses the CLI policy syntax:
//
//	""            nil: the constructor's default (DefaultPolicy on a cluster)
//	"off"         Unbounded{}
//	"depth=N"     DepthBound{Max: N}          (N >= 2)
func ParsePolicy(s string) (HoldPolicy, error) {
	switch s {
	case "":
		return nil, nil
	case "off":
		return Unbounded{}, nil
	}
	if v, ok := strings.CutPrefix(s, "depth="); ok {
		n, err := strconv.Atoi(v)
		if err != nil || n < 2 {
			return nil, fmt.Errorf("dist: bad depth bound %q (want depth=N, N >= 2)", s)
		}
		return DepthBound{Max: n}, nil
	}
	return nil, fmt.Errorf("dist: unknown hold policy %q (want off or depth=N)", s)
}
