// Package proto holds the protocol's shared value vocabulary: the
// identifier types, abort reasons and the Effects record every layer of
// the system speaks. It sits below internal/core so that subsystems
// which only route protocol values — internal/delivery, which carries
// Effects to parked goroutines for both the local and the distributed
// front end — can be shared by core without an import cycle.
// internal/core aliases every name here (core.Effects = proto.Effects,
// …), so core remains the package user code imports.
package proto

import (
	"repro/internal/adt"
	"repro/internal/depgraph"
)

// TxnID identifies a transaction. IDs are assigned by the caller and
// must be unique for a scheduler's lifetime (restarted transactions get
// fresh IDs). It is the dependency graph's node type.
type TxnID = depgraph.TxnID

// ObjectID identifies a database object.
type ObjectID uint64

// AbortReason says why the scheduler aborted a transaction.
type AbortReason uint8

// Abort reasons.
const (
	// ReasonNone: not aborted.
	ReasonNone AbortReason = iota
	// ReasonDeadlock: a cycle was found when the transaction blocked
	// (wait-for edges closed a cycle).
	ReasonDeadlock
	// ReasonCommitCycle: a cycle was found when a recoverable
	// operation tried to execute (commit-dependency edges closed a
	// cycle) — the serializability guard of Lemma 4.
	ReasonCommitCycle
	// ReasonUser: the caller invoked Abort.
	ReasonUser
	// ReasonSiteFailed: a participant site holding the transaction's
	// uncommitted operations crashed, so the transaction cannot reach
	// its commit point (crash-stop fault model, internal/fault).
	ReasonSiteFailed
	// ReasonShed: the coordinator's hold policy declined to hold the
	// pseudo-committed transaction (the commit-dependency chain was too
	// deep) and revoked it instead —
	// overload control, retryable by construction: recoverability means
	// the revocation cascades into nobody, and a later attempt under a
	// shallower convoy can succeed.
	ReasonShed
)

// String implements fmt.Stringer.
func (r AbortReason) String() string {
	switch r {
	case ReasonDeadlock:
		return "deadlock"
	case ReasonCommitCycle:
		return "commit-dependency cycle"
	case ReasonUser:
		return "user abort"
	case ReasonSiteFailed:
		return "participant site failed"
	case ReasonShed:
		return "shed by hold policy"
	}
	return "none"
}

// Grant reports a previously blocked request that has now executed.
type Grant struct {
	Txn    TxnID
	Object ObjectID
	Op     adt.Op
	Ret    adt.Ret
}

// RetryAbort reports a previously blocked transaction that was aborted
// while its request was being retried (a new cycle formed).
type RetryAbort struct {
	Txn    TxnID
	Reason AbortReason
}

// Effects collects everything that happened downstream of one scheduler
// call: requests granted, blocked transactions aborted during retry,
// and pseudo-committed transactions that really committed.
type Effects struct {
	Grants      []Grant
	RetryAborts []RetryAbort
	Committed   []TxnID
}

// Empty reports whether the call had no downstream effects.
func (e *Effects) Empty() bool {
	return len(e.Grants) == 0 && len(e.RetryAborts) == 0 && len(e.Committed) == 0
}

// Reset truncates every list while keeping its capacity, so one Effects
// value can be reused across scheduler calls without allocating. The
// delivery layer holds one per serialisation domain. Grant payloads
// (ops, return values) are zeroed first so a long-lived buffer does not
// pin the last burst's data in its spare capacity.
func (e *Effects) Reset() {
	clear(e.Grants)
	e.Grants = e.Grants[:0]
	e.RetryAborts = e.RetryAborts[:0]
	e.Committed = e.Committed[:0]
}
