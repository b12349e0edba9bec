// Package wire is the cluster's network transport: a length-prefixed
// binary framing layer and the two RPC planes built on it.
//
// The participant plane carries the coordinator's core.Participant
// calls to remote site daemons: RemoteSite implements dist.SiteBackend
// over a Peer connection, so a dist.Cluster built with Config.Backends
// runs the paper's commit conversation across processes without
// changing a line of coordinator logic. Every response that carries
// scheduler effects also carries a batched edge report — the site's
// current out-edges for the calling transaction, every transaction the
// response granted, and everything still live there — so the
// coordinator's observe/refreshParked reads (OutEdgesAppend) are served
// from a local cache and the commit conversation's hold phase stays one
// round trip per site. No round trip carries only a begin: as in the
// paper's §6 conversation, a site first hears of a transaction through
// its first operation there, whose request carries a begin flag.
//
// The client plane carries core.Store calls from a remote client
// (sccctl, or any process using Client) to the coordinator. Begin is
// local too: the first Do goes out with transaction id 0, and the
// coordinator begins the session and names the minted id in that Do's
// answer. An N-operation transaction whose commit lands at once costs
// the client N+1 round trips and a one-way ack. Commits are
// exactly-once across coordinator crashes: the coordinator gates each
// decision's log truncation on a client acknowledgement
// (dist.GateDecision), so a client whose connection died mid-commit
// reconnects and Resolves the transaction against the decision log —
// logged means committed, unlogged means presumed abort, never both.
//
// Frame format (all integers little-endian):
//
//	u32 length | u64 correlation id | u8 kind | payload
//
// length counts everything after itself. Requests carry a fresh
// correlation id; the matching response echoes it, so many requests can
// be in flight on one connection (pipelining). Correlation id 0 marks a
// one-way request (no response; used for Forget and client acks).
package wire

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
)

// MaxFrame bounds a frame's length field — a corrupt or hostile peer
// cannot make us allocate unboundedly.
const MaxFrame = 16 << 20

// ErrPeerDown reports that the remote process is unreachable: the
// connection is gone and redial has not succeeded yet. Participant-
// plane calls wrap it in fault.ErrSiteDown (what dist maps to a
// retryable ReasonSiteFailed abort); client-plane calls wrap it in a
// retryable *core.ErrAborted.
var ErrPeerDown = errors.New("wire: peer is down")

// Error codes carried by kErr responses, so typed sentinel errors
// survive the wire: the coordinator's failure handling branches on
// errors.Is(err, fault.ErrSiteDown / core.ErrUnknownTxn /
// core.ErrTxnTerminated), and those must keep matching when the
// participant is remote.
const (
	ceGeneric uint8 = iota
	ceSiteDown
	ceUnknownTxn
	ceTxnTerminated
	ceAborted // payload carries txn id + reason: decodes to *core.ErrAborted
	ceClosed
	ceTxnDone
	ceDuplicateTxn
)

// encodeErr classifies err into a wire error code plus the abort
// details when it is a typed abort.
func encodeErr(err error) (code uint8, txn core.TxnID, reason core.AbortReason, msg string) {
	msg = err.Error()
	var ab *core.ErrAborted
	switch {
	case errors.As(err, &ab):
		return ceAborted, ab.Txn, ab.Reason, msg
	case errors.Is(err, fault.ErrSiteDown):
		return ceSiteDown, 0, 0, msg
	case errors.Is(err, core.ErrUnknownTxn):
		return ceUnknownTxn, 0, 0, msg
	case errors.Is(err, core.ErrTxnTerminated):
		return ceTxnTerminated, 0, 0, msg
	case errors.Is(err, core.ErrClosed):
		return ceClosed, 0, 0, msg
	case errors.Is(err, core.ErrTxnDone):
		return ceTxnDone, 0, 0, msg
	case errors.Is(err, core.ErrDuplicateTxn):
		return ceDuplicateTxn, 0, 0, msg
	}
	return ceGeneric, 0, 0, msg
}

// decodeErr reverses encodeErr: the returned error wraps the matching
// sentinel so errors.Is/errors.As work as if the call had been local.
func decodeErr(code uint8, txn core.TxnID, reason core.AbortReason, msg string) error {
	switch code {
	case ceAborted:
		return fmt.Errorf("remote: %w", &core.ErrAborted{Txn: txn, Reason: reason})
	case ceSiteDown:
		return fmt.Errorf("remote (%s): %w", msg, fault.ErrSiteDown)
	case ceUnknownTxn:
		return fmt.Errorf("remote (%s): %w", msg, core.ErrUnknownTxn)
	case ceTxnTerminated:
		return fmt.Errorf("remote (%s): %w", msg, core.ErrTxnTerminated)
	case ceClosed:
		return fmt.Errorf("remote (%s): %w", msg, core.ErrClosed)
	case ceTxnDone:
		return fmt.Errorf("remote (%s): %w", msg, core.ErrTxnDone)
	case ceDuplicateTxn:
		return fmt.Errorf("remote (%s): %w", msg, core.ErrDuplicateTxn)
	}
	return fmt.Errorf("remote: %s", msg)
}

// Message kinds. kOK/kErr are responses; the request's sender knows
// which payload shape to expect from the kind it sent.
const (
	kOK  uint8 = 0x01
	kErr uint8 = 0x02

	// Participant plane: coordinator -> site daemon. Payloads start
	// with the global site id (u16) the call addresses; one daemon can
	// serve several sites on one connection.
	kRequest    uint8 = 0x11
	kCommit     uint8 = 0x12
	kCommitHold uint8 = 0x13
	kRelease    uint8 = 0x14
	kAbort      uint8 = 0x15
	kRevoke     uint8 = 0x16
	kWithdraw   uint8 = 0x17
	kForget     uint8 = 0x18
	kRegister   uint8 = 0x19
	kStats      uint8 = 0x1b
	kStateLen   uint8 = 0x1c
	kTxnState   uint8 = 0x1d
	kAdopt      uint8 = 0x1e
	kPing       uint8 = 0x1f
	kShutdown   uint8 = 0x20

	// Client plane: client -> coordinator.
	kCliBegin    uint8 = 0x30
	kCliDo       uint8 = 0x31
	kCliCommit   uint8 = 0x32
	kCliAbort    uint8 = 0x33
	kCliWait     uint8 = 0x34
	kCliResolve  uint8 = 0x35
	kCliAck      uint8 = 0x36
	kCliStatus   uint8 = 0x37
	kCliStateLen uint8 = 0x38
	kCliRegister uint8 = 0x39
)

// KindName labels a frame kind (verb) for metrics and trace rendering
// — the labels /metrics and the benchmark's per-verb RTT lookup share.
func KindName(k byte) string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("0x%02x", k)
}

var kindNames = [...]string{
	kOK: "ok", kErr: "err",

	kRequest: "request", kCommit: "commit",
	kCommitHold: "commit-hold", kRelease: "release", kAbort: "abort",
	kRevoke: "revoke", kWithdraw: "withdraw", kForget: "forget",
	kRegister: "register", kStats: "stats",
	kStateLen: "state-len", kTxnState: "txn-state", kAdopt: "adopt",
	kPing: "ping", kShutdown: "shutdown",

	kCliBegin: "cli-begin", kCliDo: "cli-do", kCliCommit: "cli-commit",
	kCliAbort: "cli-abort", kCliWait: "cli-wait", kCliResolve: "cli-resolve",
	kCliAck: "cli-ack", kCliStatus: "cli-status", kCliStateLen: "cli-state-len",
	kCliRegister: "cli-register",
}

// Adopt-report transaction states (see SiteServer's adopt handler).
const (
	adoptActive uint8 = iota // active or blocked: an orphan to abort
	adoptHeld                // pseudo-committed-and-held: in doubt
)
