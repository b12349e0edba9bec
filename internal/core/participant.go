package core

import (
	"repro/internal/adt"
	"repro/internal/depgraph"
)

// Participant is the per-site face of the protocol: everything the §6
// distributed layer needs from a local scheduler, and nothing more. A
// cluster coordinator drives one Participant per site; the local
// single-site path and the distributed path share this abstraction, so
// a site can be an in-process Scheduler today and a network stub
// tomorrow without the coordinator changing.
//
// The method set corresponds to the paper's per-site operations:
// Begin/RequestInto ("do"), CommitInto (single-site commit),
// CommitHoldInto (pseudo-commit-and-hold, phase one of the distributed
// commit conversation), ReleaseInto (the real commit, once the
// coordinator has established that the global dependency set is empty),
// AbortInto, WithdrawInto (a context-cancelled waiter abandoning its
// blocked request), and OutEdgesAppend — the dependency-event export
// the coordinator mirrors into its union graph to detect cross-site
// deadlock and commit-dependency cycles no single site can see.
//
// Every mutating call follows the *Into convention: downstream effects
// are appended into a caller-owned Effects buffer (reset on entry), so
// a coordinator that reuses one buffer per site allocates nothing per
// conversation round. These *Into verbs are the Scheduler's only
// mutating API: the DB front end, the simulator and the distributed
// layer all drive a scheduler through them.
type Participant interface {
	// Begin registers a new transaction at this participant.
	Begin(id TxnID) error
	// RequestInto asks to execute op on obj for the transaction.
	RequestInto(eff *Effects, id TxnID, obj ObjectID, op adt.Op) (Decision, error)
	// CommitInto finishes the transaction locally (single-site commit:
	// pseudo-commits under outstanding dependencies, else commits for
	// real and cascades).
	CommitInto(eff *Effects, id TxnID) (CommitStatus, error)
	// CommitHoldInto pseudo-commits and holds: the transaction is
	// excluded from the automatic cascade until ReleaseInto. Returns the
	// local out-degree so the coordinator can sum the global dependency
	// set.
	CommitHoldInto(eff *Effects, id TxnID) (int, error)
	// ReleaseInto really commits a held transaction whose local
	// dependencies have drained.
	ReleaseInto(eff *Effects, id TxnID) error
	// AbortInto aborts the transaction (active or blocked).
	AbortInto(eff *Effects, id TxnID) error
	// RevokeInto aborts a held pseudo-committed transaction — the
	// coordinator taking back a hold after a participant crash made
	// the commit impossible (presumed abort). It fails unless the
	// transaction is pseudo-committed and held.
	RevokeInto(eff *Effects, id TxnID, reason AbortReason) error
	// WithdrawInto abandons the transaction's blocked request and
	// returns it to the active state (context cancellation of a parked
	// Do). Followers queued behind the request are retried.
	WithdrawInto(eff *Effects, id TxnID) error
	// OutEdgesAppend exports the transaction's current outgoing
	// dependency edges at this participant, appended into buf[:0], so a
	// caller that exports edges on every coordination call can reuse
	// one buffer. The result never aliases implementation state — only
	// buf: the coordinator filters and retains it.
	OutEdgesAppend(id TxnID, buf []depgraph.Edge) []depgraph.Edge
	// Forget drops a terminated transaction's bookkeeping.
	Forget(id TxnID)
}

// Scheduler is the in-process Participant.
var _ Participant = (*Scheduler)(nil)
