package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// Client is a core.Store whose coordinator lives in another process.
// Transactions run over one pipelined connection; a connection loss
// surfaces as a retryable site-failure abort everywhere except inside
// Commit, where the outcome may already be decided — there the client
// blocks in a resolve loop until it can learn the outcome from the
// coordinator's decision log (logged = committed exactly once, absent
// = presumed abort, safe to re-run). Commits are acknowledged back
// (kCliAck) once the client has the outcome, which is what lets the
// coordinator truncate the gated decision.
type Client struct {
	peer *Peer
	// ResolveWindow bounds how long an interrupted commit waits for the
	// coordinator to come back before giving up with a non-retryable
	// error (default 60s). A timeout means the outcome is UNKNOWN — the
	// caller must not re-run the transaction.
	ResolveWindow time.Duration
	numSites      int
	// met instruments the client hop: frames, bytes, reconnects and
	// per-verb round-trip time of this client's connection.
	met telemetry.WireMetrics
}

// WireMetrics exposes the client hop's live instrument block for
// lock-free reads.
func (c *Client) WireMetrics() *telemetry.WireMetrics { return &c.met }

// Dial connects to a coordinator's client plane, retrying for wait.
func Dial(addr string, wait time.Duration) (*Client, error) {
	c := &Client{ResolveWindow: 60 * time.Second}
	peer := NewPeer(PeerConfig{Addr: addr, Redial: true, RedialDelay: 50 * time.Millisecond, Metrics: &c.met})
	if err := peer.Connect(wait); err != nil {
		peer.Close()
		return nil, err
	}
	c.peer = peer
	if down, _, _, err := c.Status(); err == nil {
		c.numSites = len(down)
	}
	return c, nil
}

// coordDown wraps transport loss as the retryable site-failure abort,
// so core.RunStore and the workload harness retry through coordinator
// downtime exactly like through a participant crash. Only ErrPeerDown
// is transport loss: any other error from a call is the coordinator's
// own verdict (a typed abort, ErrTxnDone, ...) and passes through with
// its type, or a cycle abort would read "unreachable" and a
// non-retryable error would be retried.
func coordDown(id core.TxnID, err error) error {
	if !errors.Is(err, ErrPeerDown) {
		return err
	}
	return fmt.Errorf("wire: coordinator unreachable (%v): %w", err,
		&core.ErrAborted{Txn: id, Reason: core.ReasonSiteFailed})
}

// NumSites reports the cluster's site count (0 if the first status
// call failed).
func (c *Client) NumSites() int { return c.numSites }

// Register creates the object at its home site. Only the id crosses
// the wire; the coordinator's configured workload factory resolves the
// type, so typ and class are advisory here (kept for the Store
// signature).
func (c *Client) Register(id core.ObjectID, typ adt.Type, class compat.Classifier) error {
	_, _ = typ, class
	_, err := c.peer.call(kCliRegister, telemetry.TraceContext{}, appendU64(nil, uint64(id)))
	if err != nil {
		return coordDown(0, err)
	}
	return nil
}

// SetFactory is a no-op: the coordinator and the site daemons install
// their factories from the cluster config's workload spec. Present so
// the workload harness (which requires it) runs against Client.
func (c *Client) SetFactory(f func(core.ObjectID) (adt.Type, compat.Classifier)) {}

// Begin starts a transaction without a round trip: the coordinator
// begins it when the first Do arrives and names it in that Do's answer.
// An unreachable coordinator surfaces at the first Do as a retryable
// site-failure abort, so Run-style loops retry through the outage.
func (c *Client) Begin() core.Txn { return &clientTxn{c: c} }

// Run executes fn in a transaction with the standard retry loop.
func (c *Client) Run(ctx context.Context, fn func(core.Txn) error) error {
	return core.RunStore(ctx, c, fn)
}

// Stats fetches the cluster's protocol counters.
func (c *Client) Stats() core.Stats {
	_, st, _, err := c.Status()
	if err != nil {
		return core.Stats{}
	}
	return st
}

// Status fetches per-site down flags, the stats snapshot and the
// decision log's live length.
func (c *Client) Status() (down []bool, st core.Stats, logLen uint64, err error) {
	r, err := c.peer.call(kCliStatus, telemetry.TraceContext{}, nil)
	if err != nil {
		return nil, core.Stats{}, 0, coordDown(0, err)
	}
	n := r.count(1)
	down = make([]bool, n)
	for i := range down {
		down[i] = r.u8() == 1
	}
	st = r.stats()
	logLen = r.u64()
	return down, st, logLen, r.err
}

// StateLen fetches an object's state summary: its description and
// length (-1 when the type has none). committed selects the committed
// state instead of the current one.
func (c *Client) StateLen(obj core.ObjectID, committed bool) (string, int, error) {
	b := appendBool(appendU64(nil, uint64(obj)), committed)
	r, err := c.peer.call(kCliStateLen, telemetry.TraceContext{}, b)
	if err != nil {
		return "", 0, coordDown(0, err)
	}
	desc := r.str()
	n := int(r.i64())
	return desc, n, r.err
}

// Close closes the client's connection. The coordinator rolls back
// this client's unfinished transactions; it is otherwise unaffected.
func (c *Client) Close() error {
	c.peer.Close()
	return nil
}

// CloseCtx is Close (the remote coordinator owns draining).
func (c *Client) CloseCtx(ctx context.Context) error { return c.Close() }

var _ core.Store = (*Client)(nil)

// resolve asks the coordinator (reconnecting as needed, within the
// window) how the transaction ended. A definitive answer is
// exactly-once safe: logged means the commit landed or will land,
// absent means presumed abort — the coordinator cannot truncate the
// decision before our ack.
func (c *Client) resolve(id core.TxnID) (committed bool, err error) {
	window := c.ResolveWindow
	if window <= 0 {
		window = 60 * time.Second
	}
	deadline := time.Now().Add(window)
	for {
		r, err := c.peer.call(kCliResolve, telemetry.TraceContext{}, appendU64(nil, uint64(id)))
		if err == nil {
			committed := r.u8() == 1
			if r.err != nil {
				return false, r.err
			}
			return committed, nil
		}
		if !errors.Is(err, ErrPeerDown) {
			return false, err
		}
		if !time.Now().Before(deadline) {
			return false, fmt.Errorf("wire: T%d outcome unresolved after %v (coordinator unreachable; NOT safe to re-run): %w",
				id, window, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// clientTxn is one transaction session over the wire.
type clientTxn struct {
	c *Client
	// id is 0 until the coordinator names the session: in the first
	// Do's answer, or in a kCliBegin answer when ID, Commit or Done needs
	// it first. Only the goroutine driving the transaction writes it,
	// before any wait goroutine starts.
	id core.TxnID

	mu          sync.Mutex
	dead        error         // terminal client-side error, short-circuits later ops
	doneCh      chan struct{} // created lazily; closed by finish
	finished    bool
	waitStarted bool
	outErr      error
}

// ID implements core.Txn. Before the first Do the coordinator has not
// named the transaction, so asking opens the session with a standalone
// kCliBegin. If that fails the transaction ends with the failure as its
// dead error (nothing exists at the coordinator to clean up), and ID
// returns 0.
func (t *clientTxn) ID() core.TxnID {
	if t.id != 0 || t.deadErr() != nil {
		return t.id
	}
	r, err := t.c.peer.call(kCliBegin, telemetry.TraceContext{}, nil)
	if err == nil {
		t.id = core.TxnID(r.u64())
		err = r.err
	}
	if err != nil {
		err = coordDown(0, err)
		t.setDead(err)
		t.finish(err)
	}
	return t.id
}

func (t *clientTxn) deadErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dead
}

func (t *clientTxn) setDead(err error) {
	t.mu.Lock()
	if t.dead == nil {
		t.dead = err
	}
	t.mu.Unlock()
}

// Do implements core.Txn. A transport failure dooms the transaction:
// the coordinator's connection cleanup rolls the orphan back, and the
// caller sees the retryable site-failure abort. A remote verdict keeps
// its type; only an abort dooms the session.
//
// The first Do carries id 0: the coordinator begins the session, and
// its answer names the id before the Ret. If that Do fails the
// coordinator aborts and drops the session itself, since the id never
// reached the client; an abort then ends the transaction here too, and
// any other verdict leaves it as it was, with no session yet.
func (t *clientTxn) Do(obj core.ObjectID, op adt.Op) (adt.Ret, error) {
	if err := t.deadErr(); err != nil {
		return adt.Ret{}, err
	}
	b := appendU64(nil, uint64(t.id))
	b = appendU64(b, uint64(obj))
	b = appendOp(b, op)
	r, err := t.c.peer.call(kCliDo, telemetry.TraceContext{}, b)
	if err != nil {
		err = coordDown(t.id, err)
		var ab *core.ErrAborted
		if errors.As(err, &ab) {
			t.setDead(err)
			if t.id == 0 {
				t.finish(err)
			}
		}
		return adt.Ret{}, err
	}
	if t.id == 0 {
		t.id = core.TxnID(r.u64())
	}
	ret := r.ret()
	return ret, r.err
}

// DoCtx implements core.Txn. Cancellation is checked before the call;
// a request already on the wire runs to its verdict (the remote
// scheduler cannot be told to withdraw mid-RPC yet).
func (t *clientTxn) DoCtx(ctx context.Context, obj core.ObjectID, op adt.Op) (adt.Ret, error) {
	if err := ctx.Err(); err != nil {
		return adt.Ret{}, err
	}
	return t.Do(obj, op)
}

// ack tells the coordinator we have the outcome (one-way), releasing
// the gated decision for truncation. Only call with the outcome in
// hand: the ack lets the coordinator drop the session and truncate the
// decision, after which nothing can answer a Wait or Resolve.
func (t *clientTxn) ack() {
	t.c.peer.oneway(kCliAck, appendU64(nil, uint64(t.id)))
}

// finish records the terminal outcome locally: Err answers it and
// Done's channel closes. Idempotent; first outcome wins.
func (t *clientTxn) finish(err error) {
	t.mu.Lock()
	if !t.finished {
		t.finished = true
		t.outErr = err
		if t.doneCh != nil {
			close(t.doneCh)
		}
	}
	t.mu.Unlock()
}

// Commit implements core.Txn with exactly-once semantics across
// connection loss: a response is the outcome; no response means the
// outcome must be resolved against the decision log before this
// logical transaction may run again. A PseudoCommitted response is a
// promise, not yet the real outcome — the ack is deferred to the wait
// goroutine, which learns how the hold drained (Done/Err report it).
func (t *clientTxn) Commit() (core.CommitStatus, error) {
	if err := t.deadErr(); err != nil {
		return 0, err
	}
	if t.ID() == 0 {
		return 0, t.deadErr()
	}
	r, err := t.c.peer.call(kCliCommit, telemetry.TraceContext{}, appendU64(nil, uint64(t.id)))
	if err == nil {
		st := core.CommitStatus(r.u8())
		if r.err != nil {
			return 0, r.err
		}
		if st == core.PseudoCommitted {
			t.startWait()
			return st, nil
		}
		t.ack()
		t.finish(nil)
		return st, nil
	}
	if !errors.Is(err, ErrPeerDown) {
		// The coordinator's verdict. An abort (cycle, shed, site
		// failure) is the outcome: release the gate and the session.
		var ab *core.ErrAborted
		if errors.As(err, &ab) {
			t.setDead(err)
			t.ack()
			t.finish(err)
		}
		return 0, err
	}
	committed, rerr := t.c.resolve(t.id)
	if rerr != nil {
		t.setDead(rerr)
		return 0, rerr
	}
	t.ack()
	if committed {
		t.finish(nil)
		return core.Committed, nil
	}
	aerr := fmt.Errorf("wire: T%d presumed aborted (connection lost mid-commit): %w",
		t.id, &core.ErrAborted{Txn: t.id, Reason: core.ReasonSiteFailed})
	t.setDead(aerr)
	t.finish(aerr)
	return 0, aerr
}

// CommitCtx implements core.Txn.
func (t *clientTxn) CommitCtx(ctx context.Context) (core.CommitStatus, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return t.Commit()
}

// Abort implements core.Txn. Transport loss is fine: the coordinator's
// connection cleanup aborts the orphan. A transaction with no session
// yet aborts without a frame.
func (t *clientTxn) Abort() error {
	aerr := fmt.Errorf("T%d: %w", t.id, core.ErrTxnTerminated)
	t.setDead(aerr)
	t.finish(fmt.Errorf("T%d: %w", t.id, &core.ErrAborted{Txn: t.id}))
	if t.id == 0 {
		return nil
	}
	r, err := t.c.peer.call(kCliAbort, telemetry.TraceContext{}, appendU64(nil, uint64(t.id)))
	if err != nil {
		return nil
	}
	return r.err
}

// Done implements core.Txn: the channel closes once the real commit
// has landed or the transaction aborted. The wait runs over the wire
// (kCliWait); if the connection dies during it, the outcome comes from
// the resolve loop instead. A transaction already terminal client-side
// answers locally; one with no session yet opens it first (ID).
func (t *clientTxn) Done() <-chan struct{} {
	t.ID()
	t.mu.Lock()
	if t.doneCh == nil {
		t.doneCh = make(chan struct{})
		if t.finished {
			close(t.doneCh)
		}
	}
	ch := t.doneCh
	t.mu.Unlock()
	t.startWait()
	return ch
}

// startWait spawns the outcome-wait goroutine once. It is a no-op for
// transactions that already finished (their outcome is local).
func (t *clientTxn) startWait() {
	t.mu.Lock()
	if t.finished || t.waitStarted {
		t.mu.Unlock()
		return
	}
	t.waitStarted = true
	t.mu.Unlock()
	go t.wait()
}

// wait learns the real outcome of an in-flight (pseudo-committed)
// transaction, acknowledges it, and finishes the session locally.
func (t *clientTxn) wait() {
	var outErr error
	r, err := t.c.peer.call(kCliWait, telemetry.TraceContext{}, appendU64(nil, uint64(t.id)))
	switch {
	case err == nil:
		committed := r.u8() == 1
		if r.err != nil {
			outErr = r.err
		} else if !committed {
			outErr = r.errResp()
		}
		t.ack()
	case errors.Is(err, ErrPeerDown):
		committed, rerr := t.c.resolve(t.id)
		switch {
		case rerr != nil:
			outErr = rerr
		case !committed:
			outErr = fmt.Errorf("wire: T%d presumed aborted: %w",
				t.id, &core.ErrAborted{Txn: t.id, Reason: core.ReasonSiteFailed})
			t.ack()
		default:
			t.ack()
		}
	default:
		outErr = err
	}
	t.finish(outErr)
}

// Err implements core.Txn: meaningful once Done's channel closed.
func (t *clientTxn) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.outErr
}

var _ core.Txn = (*clientTxn)(nil)
