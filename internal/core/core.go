// Package core implements the paper's concurrency control and commit
// protocol (§4): object managers holding execution logs of uncommitted
// operations, conflict classification by recoverability (Figure 2), the
// unified wait-for/commit-dependency graph with combined deadlock and
// serializability-cycle detection, pseudo-commit (§4.3), and both
// recovery strategies of §4.4.
//
// The Scheduler is a synchronous, deterministic state machine: every
// mutating call returns the full set of side effects (granted requests,
// cascaded real commits) so that both the discrete-event simulator and
// the blocking goroutine API (DB/Handle in txn.go) can be built on it.
package core

import (
	"errors"
	"fmt"

	"repro/internal/adt"
	"repro/internal/proto"
)

// The protocol's shared value vocabulary (identifier types, abort
// reasons, the Effects record) lives in internal/proto so that the
// delivery layer can route it without importing core; this package
// aliases every name, so core remains the package user code imports.

// TxnID identifies a transaction. IDs are assigned by the caller and
// must be unique for the scheduler's lifetime (restarted transactions
// get fresh IDs).
type TxnID = proto.TxnID

// ObjectID identifies a database object.
type ObjectID = proto.ObjectID

// Predicate selects the conflict predicate.
type Predicate uint8

// Predicates.
const (
	// PredRecoverability uses both commutativity and recoverability
	// (the paper's protocol).
	PredRecoverability Predicate = iota
	// PredCommutativity is the baseline: only commuting operations
	// run concurrently; recoverable pairs conflict.
	PredCommutativity
)

// String implements fmt.Stringer.
func (p Predicate) String() string {
	if p == PredCommutativity {
		return "commutativity"
	}
	return "recoverability"
}

// Recovery selects the abort-recovery strategy (§4.4).
type Recovery uint8

// Recovery strategies.
const (
	// RecoveryIntentions keeps a committed base state plus the log of
	// uncommitted operations; abort removes the transaction's entries
	// and replays the remainder (an intentions-list scheme).
	RecoveryIntentions Recovery = iota
	// RecoveryUndo applies operations eagerly and reverses them with
	// per-operation semantic undo records (an undo-log scheme). The
	// object's type must implement adt.Undoer.
	RecoveryUndo
)

// String implements fmt.Stringer.
func (r Recovery) String() string {
	if r == RecoveryUndo {
		return "undo-log"
	}
	return "intentions-list"
}

// AbortReason says why the scheduler aborted a transaction (see
// proto.AbortReason for the values' meanings).
type AbortReason = proto.AbortReason

// Abort reasons.
const (
	// ReasonNone: not aborted.
	ReasonNone = proto.ReasonNone
	// ReasonDeadlock: a cycle was found when the transaction blocked
	// (wait-for edges closed a cycle).
	ReasonDeadlock = proto.ReasonDeadlock
	// ReasonCommitCycle: a cycle was found when a recoverable
	// operation tried to execute (commit-dependency edges closed a
	// cycle) — the serializability guard of Lemma 4.
	ReasonCommitCycle = proto.ReasonCommitCycle
	// ReasonUser: the caller invoked Abort.
	ReasonUser = proto.ReasonUser
	// ReasonSiteFailed: a participant site holding the transaction's
	// uncommitted operations crashed before the commit point.
	ReasonSiteFailed = proto.ReasonSiteFailed
	// ReasonShed: the coordinator's hold policy revoked the hold as
	// overload control (bounded-hold release policies; retryable).
	ReasonShed = proto.ReasonShed
)

// Outcome is the immediate result of a RequestInto.
type Outcome uint8

// Outcomes.
const (
	// Executed: the operation ran; Decision.Ret holds its return.
	Executed Outcome = iota
	// Blocked: the transaction must wait; a later Grant (or abort)
	// will resolve the request.
	Blocked
	// Aborted: the scheduler chose the requester as a victim and has
	// already aborted it.
	Aborted
)

// Decision is the immediate result of RequestInto.
type Decision struct {
	Outcome Outcome
	Ret     adt.Ret
	Reason  AbortReason
}

// CommitStatus is the result of Commit.
type CommitStatus uint8

// Commit statuses.
const (
	// Committed: the transaction had no outstanding commit
	// dependencies and committed for real.
	Committed CommitStatus = iota
	// PseudoCommitted: complete from the user's perspective; the real
	// commit will happen automatically once every transaction it
	// depends on terminates (§4.3).
	PseudoCommitted
)

// String implements fmt.Stringer.
func (s CommitStatus) String() string {
	if s == PseudoCommitted {
		return "pseudo-committed"
	}
	return "committed"
}

// Grant reports a previously blocked request that has now executed.
type Grant = proto.Grant

// RetryAbort reports a previously blocked transaction that was aborted
// while its request was being retried (a new cycle formed).
type RetryAbort = proto.RetryAbort

// Effects collects everything that happened downstream of one scheduler
// call: requests granted, blocked transactions aborted during retry,
// and pseudo-committed transactions that really committed. Reusable via
// Reset; the scheduler's *Into verbs append into a caller-owned value.
type Effects = proto.Effects

// Recorder receives protocol events; internal/history implements it to
// check soundness and serializability. Methods are called with the
// scheduler lock held and must not call back into the scheduler.
type Recorder interface {
	Executed(txn TxnID, obj ObjectID, op adt.Op, ret adt.Ret, seq uint64)
	Blocked(txn TxnID, obj ObjectID, op adt.Op)
	Aborted(txn TxnID, reason AbortReason)
	PseudoCommitted(txn TxnID)
	Committed(txn TxnID)
}

// Options configures a Scheduler. The zero value is the paper's
// protocol: recoverability predicate, fair scheduling, intentions-list
// recovery.
type Options struct {
	// Predicate selects recoverability (default) or the
	// commutativity-only baseline.
	Predicate Predicate
	// Recovery selects the recovery strategy.
	Recovery Recovery
	// Unfair disables fair scheduling. Under fair scheduling (the
	// paper's default, §5.2) an incoming request blocks if it
	// conflicts with any already-blocked request on the object, even
	// when it is compatible with the executed operations.
	Unfair bool
	// StateDependent enables the §3.2 state-dependent refinement:
	// statically conflicting requests are admitted when their return
	// value is provably invariant on the object's current state and
	// log (e.g. two pops when the top two elements are equal), at the
	// cost of up to 2^t replays per check. Requires
	// RecoveryIntentions.
	StateDependent bool
	// Debug enables internal invariant assertions (return-value
	// stability under replay, graph acyclicity) — used by the test
	// suite; too expensive for benchmark runs.
	Debug bool
	// Recorder, if non-nil, observes protocol events.
	Recorder Recorder
}

// Stats are cumulative scheduler counters. CycleChecks counts every
// invocation of cycle detection (both deadlock checks on block and
// commit-dependency checks on recoverable execution), matching the
// paper's cycle check ratio numerator.
type Stats struct {
	Executes       uint64
	Blocks         uint64
	Grants         uint64
	Aborts         uint64
	DeadlockAborts uint64
	CycleAborts    uint64
	Withdrawals    uint64
	Commits        uint64
	PseudoCommits  uint64
	CycleChecks    uint64
	CommitDepEdges uint64
	WaitForEdges   uint64
}

// Add accumulates o into s, field by field — the one place the
// counter list is spelled out for summing (multi-site aggregation,
// cross-incarnation accumulation).
func (s *Stats) Add(o Stats) {
	s.Executes += o.Executes
	s.Blocks += o.Blocks
	s.Grants += o.Grants
	s.Aborts += o.Aborts
	s.DeadlockAborts += o.DeadlockAborts
	s.CycleAborts += o.CycleAborts
	s.Withdrawals += o.Withdrawals
	s.Commits += o.Commits
	s.PseudoCommits += o.PseudoCommits
	s.CycleChecks += o.CycleChecks
	s.CommitDepEdges += o.CommitDepEdges
	s.WaitForEdges += o.WaitForEdges
}

// Misuse errors.
var (
	ErrUnknownTxn    = errors.New("core: unknown transaction")
	ErrUnknownObject = errors.New("core: unknown object")
	ErrTxnBlocked    = errors.New("core: transaction has a blocked request outstanding")
	ErrDuplicateTxn  = errors.New("core: transaction id already in use")
	ErrDuplicateObj  = errors.New("core: object id already registered")
	ErrNeedsUndoer   = errors.New("core: undo-log recovery requires the type to implement adt.Undoer")
	ErrTxnTerminated = errors.New("core: transaction already terminated")
	ErrPseudoRequest = errors.New("core: pseudo-committed transaction cannot issue operations")
	ErrNotBlocked    = errors.New("core: transaction has no blocked request to withdraw")
)

// txnState is a transaction's lifecycle state.
type txnState uint8

const (
	stActive txnState = iota
	stBlocked
	stPseudo
	stCommitted
	stAborted
)

func (s txnState) String() string {
	switch s {
	case stActive:
		return "active"
	case stBlocked:
		return "blocked"
	case stPseudo:
		return "pseudo-committed"
	case stCommitted:
		return "committed"
	case stAborted:
		return "aborted"
	}
	return fmt.Sprintf("txnState(%d)", uint8(s))
}
