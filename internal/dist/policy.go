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

// HoldVerdict is a policy's answer for one commit conversation that
// would otherwise be held.
type HoldVerdict uint8

const (
	// Hold accepts the hold: the transaction pseudo-commits-and-holds
	// as usual.
	Hold HoldVerdict = iota
	// ShedTail rejects the hold because the transaction would extend a
	// commit-dependency chain past the policy's depth bound; the
	// coordinator revokes it (a retryable ReasonShed abort) instead of
	// growing the convoy's tail.
	ShedTail
	// ShedAdmission rejects the hold because the held set itself is too
	// large (the admission gate is closed); same revocation, attributed
	// to admission control.
	ShedAdmission
)

// HoldPolicy decides, at each commit conversation that reached a
// non-empty global dependency set, whether the coordinator holds the
// transaction or sheds it. Implementations may carry state (hysteresis,
// counters); the coordinator serialises AdmitHold calls under its own
// lock and clones the configured value via Fresh at construction, so
// one policy value can parameterise many clusters or simulation runs
// without sharing state across them.
type HoldPolicy interface {
	// Name identifies the policy for traces and CLI output (stable,
	// parseable by ParsePolicy where possible).
	Name() string
	// Fresh returns an unshared instance with cleared internal state —
	// same parameters, no history. Constructors call it so that runs
	// never share hysteresis state.
	Fresh() HoldPolicy
	// AdmitHold is consulted with the transaction's global dependency
	// count (gdeps >= 1), the length of the longest commit-dependency
	// chain starting at it (depth >= 2: itself plus at least one
	// dependency), and the current held-set size (before this hold).
	AdmitHold(gdeps, depth, held int) HoldVerdict
	// EagerSubtree reports whether release cascades should compute the
	// whole drained subtree in one coordinator round (releasing a chain
	// of depth k in one batched round instead of k cascade hops).
	EagerSubtree() bool
}

// PolicyStats counts the coordinator's policy decisions (and the held
// set's high-water mark, which is maintained with or without a policy).
type PolicyStats struct {
	// TailAborts counts ShedTail revocations (depth bound).
	TailAborts int
	// AdmissionRejects counts ShedAdmission revocations (gate closed).
	AdmissionRejects int
	// EagerRounds counts non-empty eager-release rounds; EagerReleased
	// counts the held transactions those rounds released.
	EagerRounds, EagerReleased int
	// HeldPeak is the held set's high-water mark.
	HeldPeak int
}

// DepthBound sheds any transaction that would sit atop a
// commit-dependency chain longer than Max transactions. Chains are what
// make the convoy's tail expensive: a held transaction at depth k
// releases only after k-1 cascade rounds, so bounding depth bounds the
// worst-case held wait directly. Stateless.
type DepthBound struct {
	// Max is the longest admissible chain, counted in transactions
	// (the joining transaction included). Must be >= 2: depth 2 is the
	// shallowest possible hold.
	Max int
}

// Name implements HoldPolicy.
func (p DepthBound) Name() string { return fmt.Sprintf("depth=%d", p.Max) }

// Fresh implements HoldPolicy (stateless: a copy is fresh).
func (p DepthBound) Fresh() HoldPolicy { return p }

// AdmitHold implements HoldPolicy.
func (p DepthBound) AdmitHold(gdeps, depth, held int) HoldVerdict {
	if depth > p.Max {
		return ShedTail
	}
	return Hold
}

// EagerSubtree implements HoldPolicy.
func (DepthBound) EagerSubtree() bool { return false }

// Unbounded is the paper's protocol as written (§4.3): every commit
// with a non-empty dependency set is held, however long the convoy
// grows. It exists so that "no bound" is something a caller says
// (Config.Policy: Unbounded{}, "off" on the command line) rather than
// what a cluster does when nothing was said; the coordinator does not
// consult it (nor compute the chain depth it would ignore).
type Unbounded struct{}

// Name implements HoldPolicy.
func (Unbounded) Name() string { return "off" }

// Fresh implements HoldPolicy.
func (Unbounded) Fresh() HoldPolicy { return Unbounded{} }

// AdmitHold implements HoldPolicy.
func (Unbounded) AdmitHold(gdeps, depth, held int) HoldVerdict { return Hold }

// EagerSubtree implements HoldPolicy.
func (Unbounded) EagerSubtree() bool { return false }

// EagerRelease holds everything (no shedding) but drains convoys in
// batched subtree rounds: when a termination drains a held
// transaction's dependency set, the whole transitively drained subtree
// is decided in one coordinator round — and its releases fan out to all
// participants concurrently — instead of one cascade hop (one
// coordinator round plus a per-site message round-trip) per chain
// level. Stateless.
type EagerRelease struct{}

// Name implements HoldPolicy.
func (EagerRelease) Name() string { return "eager" }

// Fresh implements HoldPolicy.
func (EagerRelease) Fresh() HoldPolicy { return EagerRelease{} }

// AdmitHold implements HoldPolicy.
func (EagerRelease) AdmitHold(gdeps, depth, held int) HoldVerdict { return Hold }

// EagerSubtree implements HoldPolicy.
func (EagerRelease) EagerSubtree() bool { return true }

// Admission gates new holds on the held-set size with hysteresis: once
// the held set reaches High the gate closes and every would-be hold is
// shed until the set drains to Low, then it reopens. The two thresholds
// keep the gate from chattering at the boundary. Stateful — use Fresh
// (constructors do) to avoid sharing the gate between runs.
type Admission struct {
	// High closes the gate (held >= High sheds); Low reopens it
	// (held <= Low admits again). 0 < Low < High.
	High, Low int

	// shedding is the gate's current position.
	shedding bool
}

// Name implements HoldPolicy.
func (p *Admission) Name() string { return fmt.Sprintf("admit=%d/%d", p.High, p.Low) }

// Fresh implements HoldPolicy: same thresholds, gate open.
func (p *Admission) Fresh() HoldPolicy { return &Admission{High: p.High, Low: p.Low} }

// AdmitHold implements HoldPolicy.
func (p *Admission) AdmitHold(gdeps, depth, held int) HoldVerdict {
	if p.shedding {
		if held > p.Low {
			return ShedAdmission
		}
		p.shedding = false
	}
	if held >= p.High {
		p.shedding = true
		return ShedAdmission
	}
	return Hold
}

// EagerSubtree implements HoldPolicy.
func (*Admission) EagerSubtree() bool { return false }

// ParsePolicy parses the CLI policy syntax:
//
//	""            nil: the constructor's default (DefaultPolicy on a cluster)
//	"off"         Unbounded{}
//	"depth=N"     DepthBound{Max: N}          (N >= 2)
//	"eager"       EagerRelease{}
//	"admit=N"     &Admission{High: N, Low: N/2}
//	"admit=H/L"   &Admission{High: H, Low: L} (0 < L < H)
func ParsePolicy(s string) (HoldPolicy, error) {
	switch s {
	case "":
		return nil, nil
	case "off":
		return Unbounded{}, nil
	case "eager":
		return EagerRelease{}, nil
	}
	if v, ok := strings.CutPrefix(s, "depth="); ok {
		n, err := strconv.Atoi(v)
		if err != nil || n < 2 {
			return nil, fmt.Errorf("dist: bad depth bound %q (want depth=N, N >= 2)", s)
		}
		return DepthBound{Max: n}, nil
	}
	if v, ok := strings.CutPrefix(s, "admit="); ok {
		high, low := 0, 0
		if h, l, both := strings.Cut(v, "/"); both {
			hn, err1 := strconv.Atoi(h)
			ln, err2 := strconv.Atoi(l)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("dist: bad admission gate %q (want admit=H/L)", s)
			}
			high, low = hn, ln
		} else {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("dist: bad admission gate %q (want admit=N)", s)
			}
			high, low = n, n/2
		}
		if low <= 0 || low >= high {
			return nil, fmt.Errorf("dist: bad admission gate %q (need 0 < low < high)", s)
		}
		return &Admission{High: high, Low: low}, nil
	}
	return nil, fmt.Errorf("dist: unknown hold policy %q (want off, depth=N, eager, admit=N or admit=H/L)", s)
}
