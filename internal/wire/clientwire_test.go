package wire

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// netCluster is the full three-tier deployment in one process: site
// daemons behind TCP, a restartable coordinator (FileLog-backed) over
// them, and clients dialling the coordinator's client plane.
type netCluster struct {
	t       *testing.T
	daemons []*SiteServer
	specs   []DaemonSpec
	logPath string
	wl      string
	co      *Coordinator
}

func startNetCluster(t *testing.T, daemons, perDaemon int, wl string) *netCluster {
	t.Helper()
	nc := &netCluster{t: t, wl: wl, logPath: filepath.Join(t.TempDir(), "decision.log")}
	for d := 0; d < daemons; d++ {
		sites := make(map[uint16]dist.SiteBackend, perDaemon)
		var ids []uint16
		for k := 0; k < perDaemon; k++ {
			sid := uint16(d*perDaemon + k)
			cr, err := fault.New(core.Options{}, fault.NewMemLog())
			if err != nil {
				t.Fatal(err)
			}
			sites[sid] = cr
			ids = append(ids, sid)
		}
		srv, err := ServeSites(SiteServerConfig{Addr: "127.0.0.1:0", Sites: sites, Workload: wl})
		if err != nil {
			t.Fatal(err)
		}
		nc.daemons = append(nc.daemons, srv)
		nc.specs = append(nc.specs, DaemonSpec{Listen: srv.Addr(), Sites: ids})
	}
	nc.startCoord()
	t.Cleanup(func() {
		if nc.co != nil {
			nc.co.Close()
		}
		for _, d := range nc.daemons {
			d.Close()
		}
	})
	return nc
}

// startCoord starts (or restarts) the coordinator against the same
// decision log file and the same daemons.
func (nc *netCluster) startCoord() {
	nc.t.Helper()
	flog, err := fault.OpenFileLog(nc.logPath, false)
	if err != nil {
		nc.t.Fatal(err)
	}
	co, err := StartCoordinator(CoordinatorConfig{
		ClientAddr: "127.0.0.1:0",
		Log:        flog,
		CloseLog:   flog.Close,
		Daemons:    nc.specs,
		Workload:   nc.wl,
		DialWait:   2 * time.Second,
	})
	if err != nil {
		flog.Close()
		nc.t.Fatal(err)
	}
	nc.co = co
}

// crashCoord kills the coordinator the unfriendly way a kill -9 would:
// daemon connections die first (no clean revokes or releases reach the
// sites), then the client plane. The durable decision log survives.
func (nc *netCluster) crashCoord() {
	co := nc.co
	nc.co = nil
	for _, p := range co.peers {
		p.Close()
	}
	co.server.Close()
	co.Cluster.Close()
	if co.closeLog != nil {
		_ = co.closeLog()
	}
}

func (nc *netCluster) dial() *Client {
	nc.t.Helper()
	cl, err := Dial(nc.co.Addr(), 2*time.Second)
	if err != nil {
		nc.t.Fatal(err)
	}
	nc.t.Cleanup(func() { cl.Close() })
	return cl
}

// ---- raw client-plane calls (a client we can stop mid-protocol) ----

func rawDial(t *testing.T, addr string) *Peer {
	t.Helper()
	p := NewPeer(PeerConfig{Addr: addr})
	if err := p.Connect(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func rawBegin(t *testing.T, p *Peer) core.TxnID {
	t.Helper()
	r, err := p.call(kCliBegin, telemetry.TraceContext{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	id := core.TxnID(r.u64())
	if r.err != nil {
		t.Fatal(r.err)
	}
	return id
}

func rawPush(t *testing.T, p *Peer, id core.TxnID, obj core.ObjectID, v int) {
	t.Helper()
	b := appendU64(nil, uint64(id))
	b = appendU64(b, uint64(obj))
	b = appendOp(b, adt.Op{Name: adt.StackPush, Arg: v, HasArg: true})
	r, err := p.call(kCliDo, telemetry.TraceContext{}, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
}

func rawCommit(t *testing.T, p *Peer, id core.TxnID) error {
	t.Helper()
	r, err := p.call(kCliCommit, telemetry.TraceContext{}, appendU64(nil, uint64(id)))
	if err != nil {
		t.Fatal(err)
	}
	return r.err
}

func rawResolve(t *testing.T, p *Peer, id core.TxnID) bool {
	t.Helper()
	r, err := p.call(kCliResolve, telemetry.TraceContext{}, appendU64(nil, uint64(id)))
	if err != nil {
		t.Fatal(err)
	}
	committed := r.u8() == 1
	if r.err != nil {
		t.Fatal(r.err)
	}
	return committed
}

func clientDepth(t *testing.T, cl *Client, obj core.ObjectID) int {
	t.Helper()
	_, n, err := cl.StateLen(obj, true)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func waitLogLen(t *testing.T, flog fault.Log, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for flog.Len() != want {
		if time.Now().After(deadline) {
			t.Fatalf("decision log length = %d, want %d", flog.Len(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestNetLoadConservation drives the standard load harness end to end
// through the client plane: every operation crosses two network hops
// (client→coordinator→site daemon), and the committed stack depths
// must still exactly equal the committed pushes.
func TestNetLoadConservation(t *testing.T) {
	const db = 10
	nc := startNetCluster(t, 2, 2, "pushes:10")
	cl := nc.dial()
	if cl.NumSites() != 4 {
		t.Fatalf("NumSites = %d, want 4", cl.NumSites())
	}
	var mu sync.Mutex
	counts := make(map[core.ObjectID]uint64)
	res, err := workload.RunLoad(cl, workload.LoadConfig{
		Workload:      workload.Pushes{DBSize: db},
		Workers:       6,
		TxnsPerWorker: 20,
		Seed:          7,
		// All-push on 10 objects over the wire restart-storms when the
		// race build runs on a loaded machine; the default budget of
		// 1000 restarts for one transaction is occasionally too tight.
		// The load is finite (120 commits), so a bigger budget changes
		// nothing but the flake rate.
		MaxRestarts: 100000,
		OnCommitted: func(steps []workload.Step) {
			mu.Lock()
			for _, s := range steps {
				counts[s.Object]++
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != 6*20 {
		t.Fatalf("Commits = %d, want %d", res.Commits, 6*20)
	}
	for obj := core.ObjectID(1); obj <= db; obj++ {
		if got, want := clientDepth(t, cl, obj), int(counts[obj]); got != want {
			t.Fatalf("object %d: committed depth %d, want %d pushes", obj, got, want)
		}
	}
	// All decisions resolved and acked: the log has drained.
	waitLogLen(t, nc.co.Log, 0)
	// The client hop is measured, not inferred: every commit was a
	// request/response pair on this client's connection.
	if m := cl.WireMetrics(); m.RTT(kCliCommit).Count() < uint64(res.Commits) ||
		m.FramesOut.Load() < m.RTT(kCliCommit).Count() || m.BytesIn.Load() == 0 {
		t.Errorf("client hop: %d commit RTTs, %d frames out, %d bytes in for %d commits",
			m.RTT(kCliCommit).Count(), m.FramesOut.Load(), m.BytesIn.Load(), res.Commits)
	}
}

// TestFramesPerTransaction pins what an uncontended transaction costs
// on each plane, in frames. No round trip carries only a begin: the
// client's first Do goes out with id 0, and a site's first request
// carries the begin flag. An N-push transaction that commits costs the
// client N+1 round trips plus the one-way ack. On the participant plane
// it costs N requests plus, per site touched, the one-way Forget and
// the commit: one direct commit at a single site, a hold and a release
// at each of several (a logged cluster holds every multi-site commit).
func TestFramesPerTransaction(t *testing.T) {
	const n = 4
	nc := startNetCluster(t, 1, 2, "pushes:4") // object 1 lives at site 1, object 2 at site 0
	cl := nc.dial()
	cm, pm := cl.WireMetrics(), nc.co.WireMetrics()
	for _, tc := range []struct {
		name              string
		objs              [n]core.ObjectID
		cliOut, cliIn     uint64
		sitesOut, sitesIn uint64
	}{
		{"one site", [n]core.ObjectID{1, 1, 1, 1}, n + 2, n + 1, n + 2, n + 1},
		{"two sites", [n]core.ObjectID{1, 2, 1, 2}, n + 2, n + 1, n + 6, n + 4},
	} {
		cOut, cIn, pOut, pIn := cm.FramesOut.Load(), cm.FramesIn.Load(), pm.FramesOut.Load(), pm.FramesIn.Load()
		tx := cl.Begin()
		for i, obj := range tc.objs {
			if _, err := tx.Do(obj, push(i)); err != nil {
				t.Fatal(err)
			}
		}
		if st, err := tx.Commit(); err != nil || st != core.Committed {
			t.Fatalf("%s: commit = %v, %v; want committed", tc.name, st, err)
		}
		if out, in := cm.FramesOut.Load()-cOut, cm.FramesIn.Load()-cIn; out != tc.cliOut || in != tc.cliIn {
			t.Errorf("%s: client plane sent %d and received %d frames, want %d and %d", tc.name, out, in, tc.cliOut, tc.cliIn)
		}
		if out, in := pm.FramesOut.Load()-pOut, pm.FramesIn.Load()-pIn; out != tc.sitesOut || in != tc.sitesIn {
			t.Errorf("%s: participant plane sent %d and received %d frames, want %d and %d", tc.name, out, in, tc.sitesOut, tc.sitesIn)
		}
	}
}

// TestClientBeginIsLocal: a transaction first exists at the coordinator
// when something needs its id. An Abort before any Do sends no frame;
// ID before any Do opens the session with one kCliBegin; a Commit with
// no Do commits; and a first Do that fails leaves no session behind,
// because the client never learned the id that would end it.
func TestClientBeginIsLocal(t *testing.T) {
	nc := startNetCluster(t, 1, 2, "pushes:4") // object 1 lives at site 1
	cl := nc.dial()
	m := cl.WireMetrics()

	out := m.FramesOut.Load()
	if err := cl.Begin().Abort(); err != nil {
		t.Fatal(err)
	}
	if n := m.FramesOut.Load() - out; n != 0 {
		t.Fatalf("Begin and Abort before any Do sent %d frames, want 0", n)
	}

	tx := cl.Begin()
	if id := tx.ID(); id == 0 || m.RTT(kCliBegin).Count() != 1 {
		t.Fatalf("ID before any Do = %d after %d begin round trips, want non-zero after 1", id, m.RTT(kCliBegin).Count())
	}
	if st, err := tx.Commit(); err != nil || st != core.Committed {
		t.Fatalf("commit after ID = %v, %v; want committed", st, err)
	}
	if st, err := cl.Begin().Commit(); err != nil || st != core.Committed {
		t.Fatalf("commit with no Do = %v, %v; want committed", st, err)
	}

	if err := nc.co.Cluster.Crash(1); err != nil {
		t.Fatal(err)
	}
	tx = cl.Begin()
	_, err := tx.Do(1, push(1))
	var ab *core.ErrAborted
	if !errors.As(err, &ab) || ab.Reason != core.ReasonSiteFailed {
		t.Fatalf("first Do at a crashed site = %v, want a ReasonSiteFailed abort", err)
	}
	select {
	case <-tx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done of a transaction whose first Do aborted never closed")
	}
	waitNoSessions(t, nc.co, "after a failed first Do, which must drop its own")
}

// TestNetCoordinatorRestartExactlyOnce is the tentpole's recovery
// story in one scenario. A client commits but never acks (its
// connection "dies" with the outcome unread); another transaction is
// left mid-flight. The coordinator is then killed the kill -9 way and
// a fresh one started on the same decision log. The new coordinator
// must adopt the logged commit (the client resolves it as committed,
// exactly once — no re-run, no lost push), presumed-abort the
// mid-flight orphan at the daemons, and then serve new load normally.
func TestNetCoordinatorRestartExactlyOnce(t *testing.T) {
	nc := startNetCluster(t, 2, 1, "pushes:4")
	cl := nc.dial()

	p := rawDial(t, nc.co.Addr())
	// Committed but never acknowledged.
	tCommitted := rawBegin(t, p)
	rawPush(t, p, tCommitted, 1, 11) // site 1
	rawPush(t, p, tCommitted, 2, 22) // site 0
	if err := rawCommit(t, p, tCommitted); err != nil {
		t.Fatal(err)
	}
	// Orphan: operations executed, no commit attempted.
	tOrphan := rawBegin(t, p)
	rawPush(t, p, tOrphan, 3, 33)
	rawPush(t, p, tOrphan, 4, 44)

	if nc.co.Log.Len() == 0 {
		t.Fatal("gated decision should still be in the log before the client ack")
	}
	if got := clientDepth(t, cl, 1); got != 1 {
		t.Fatalf("object 1 depth before crash = %d, want 1", got)
	}

	nc.crashCoord()
	nc.startCoord()

	if len(nc.co.Adopted) != 1 || nc.co.Adopted[0] != tCommitted {
		t.Fatalf("Adopted = %v, want [%d]", nc.co.Adopted, tCommitted)
	}
	aborted := 0
	for _, rep := range nc.co.Reports {
		aborted += len(rep.Aborted)
	}
	if aborted == 0 {
		t.Fatalf("startup reconcile aborted no orphans; reports = %+v", nc.co.Reports)
	}

	// The client reconnects and resolves: committed, exactly once.
	p2 := rawDial(t, nc.co.Addr())
	if !rawResolve(t, p2, tCommitted) {
		t.Fatal("logged commit resolved as aborted after coordinator restart")
	}
	p2.oneway(kCliAck, appendU64(nil, uint64(tCommitted)))
	if rawResolve(t, p2, tOrphan) {
		t.Fatal("orphan resolved as committed; want presumed abort")
	}

	cl2 := nc.dial()
	for obj, want := range map[core.ObjectID]int{1: 1, 2: 1, 3: 0, 4: 0} {
		if got := clientDepth(t, cl2, obj); got != want {
			t.Fatalf("object %d depth after restart = %d, want %d", obj, got, want)
		}
	}
	// The resolved decision truncates once the client ack lands.
	waitLogLen(t, nc.co.Log, 0)

	// The restarted coordinator serves fresh load.
	res, err := workload.RunLoad(cl2, workload.LoadConfig{
		Workload:      workload.Pushes{DBSize: 4},
		Workers:       4,
		TxnsPerWorker: 10,
		Seed:          9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != 4*10 {
		t.Fatalf("post-restart Commits = %d, want %d", res.Commits, 4*10)
	}
}

// TestNetDirectCommitResolvedAfterRestart pins the direct-commit
// flavour of exactly-once: an edge-free single-site transaction takes
// the fast path with no hold conversation, so its decision record is
// the ONLY durable trace the commit happened. If the coordinator dies
// after the site commit but before the client ack, the restarted
// coordinator must adopt that record and the client must resolve
// committed — never presumed abort followed by a re-run (a double
// push). The site daemon may still report the transaction active (the
// crash beat the commit delivery) or already committed; both reconcile
// to exactly one push.
func TestNetDirectCommitResolvedAfterRestart(t *testing.T) {
	nc := startNetCluster(t, 2, 1, "pushes:4")
	cl := nc.dial()

	p := rawDial(t, nc.co.Addr())
	id := rawBegin(t, p)
	rawPush(t, p, id, 1, 7) // single site, edge-free: the direct path
	if err := rawCommit(t, p, id); err != nil {
		t.Fatal(err)
	}
	if nc.co.Log.Len() == 0 {
		t.Fatal("direct commit left no decision record; a coordinator crash here loses exactly-once")
	}
	if got := clientDepth(t, cl, 1); got != 1 {
		t.Fatalf("object 1 depth before crash = %d, want 1", got)
	}

	// kill -9 before the client acks.
	nc.crashCoord()
	nc.startCoord()

	found := false
	for _, a := range nc.co.Adopted {
		found = found || a == id
	}
	if !found {
		t.Fatalf("Adopted = %v, want it to include direct commit %d", nc.co.Adopted, id)
	}

	p2 := rawDial(t, nc.co.Addr())
	if !rawResolve(t, p2, id) {
		t.Fatal("direct commit resolved as aborted after coordinator restart")
	}
	p2.oneway(kCliAck, appendU64(nil, uint64(id)))

	cl2 := nc.dial()
	if got := clientDepth(t, cl2, 1); got != 1 {
		t.Fatalf("object 1 depth after restart = %d, want exactly 1", got)
	}
	waitLogLen(t, nc.co.Log, 0)
}

// TestNetResolveDetachedSession covers the connection-blip flavour of
// exactly-once (no coordinator restart): the client's connection dies
// right after the commit decision, before the reply was read. The
// session detaches instead of rolling back, and the reconnected
// client resolves it from the live coordinator.
func TestNetResolveDetachedSession(t *testing.T) {
	nc := startNetCluster(t, 2, 1, "pushes:4")
	cl := nc.dial()

	p := rawDial(t, nc.co.Addr())
	tCommitted := rawBegin(t, p)
	rawPush(t, p, tCommitted, 1, 5)
	if err := rawCommit(t, p, tCommitted); err != nil {
		t.Fatal(err)
	}
	tActive := rawBegin(t, p)
	rawPush(t, p, tActive, 2, 6)
	p.Close() // the blip: outcome never read, no ack sent

	p2 := rawDial(t, nc.co.Addr())
	if !rawResolve(t, p2, tCommitted) {
		t.Fatal("committed session resolved as aborted after reconnect")
	}
	p2.oneway(kCliAck, appendU64(nil, uint64(tCommitted)))
	// The never-committed session rolls back with its connection.
	if rawResolve(t, p2, tActive) {
		t.Fatal("dead connection's active txn resolved as committed")
	}

	if got := clientDepth(t, cl, 1); got != 1 {
		t.Fatalf("object 1 depth = %d, want 1", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for clientDepth(t, cl, 2) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("object 2 depth = %d, want 0 (rollback)", clientDepth(t, cl, 2))
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitLogLen(t, nc.co.Log, 0)
}

// TestNetClientRetryableWhileCoordinatorDown pins the typed error
// clients see while the coordinator is unreachable: a retryable
// site-failure abort, so Run-style loops ride through the outage.
func TestNetClientRetryableWhileCoordinatorDown(t *testing.T) {
	nc := startNetCluster(t, 1, 2, "pushes:4")
	cl := nc.dial()
	tx := cl.Begin()
	if _, err := tx.Do(1, adt.Op{Name: adt.StackPush, Arg: 1, HasArg: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	nc.crashCoord()
	tx2 := cl.Begin()
	_, err := tx2.Do(1, adt.Op{Name: adt.StackPush, Arg: 2, HasArg: true})
	if err == nil {
		t.Fatal("Do succeeded against a dead coordinator")
	}
	var ab *core.ErrAborted
	if !errors.As(err, &ab) || !ab.Retryable() {
		t.Fatalf("want retryable *ErrAborted, got %v", err)
	}
	if !errors.Is(err, core.ErrSiteFailed) {
		t.Fatalf("want ErrSiteFailed in chain, got %v", err)
	}

	nc.startCoord()
	cl2 := nc.dial()
	if got := clientDepth(t, cl2, 1); got != 1 {
		t.Fatalf("object 1 depth after coordinator restart = %d, want 1", got)
	}
}

// TestNetClientRemoteErrorsKeepTheirType pins what a client sees when
// the coordinator answers with a verdict rather than going away: the
// error keeps its type (only transport loss is the retryable
// "coordinator unreachable"), and an aborted commit — where the default
// hold policy's sheds land — is an outcome like any other: Done closes,
// Err reports it, and the coordinator's session is released.
func TestNetClientRemoteErrorsKeepTheirType(t *testing.T) {
	nc := startNetCluster(t, 1, 2, "pushes:8") // no policy named: the default
	cl := nc.dial()
	pushOn := func(tx core.Txn, obj core.ObjectID) {
		t.Helper()
		if _, err := tx.Do(obj, adt.Op{Name: adt.StackPush, Arg: int(tx.ID()), HasArg: true}); err != nil {
			t.Fatalf("T%d push on %d: %v", tx.ID(), obj, err)
		}
	}

	// A chain of holds as deep as the default admits: the root stays
	// open, link i depends on link i-1 through object i.
	root := cl.Begin()
	pushOn(root, 1)
	var held []core.Txn
	for i := 1; i < dist.DefaultHoldDepth; i++ {
		tx := cl.Begin()
		pushOn(tx, core.ObjectID(i))
		pushOn(tx, core.ObjectID(i+1))
		if st, err := tx.Commit(); err != nil || st != core.PseudoCommitted {
			t.Fatalf("link %d commit = %v, %v; want pseudo-committed", i, st, err)
		}
		held = append(held, tx)
	}

	// An operation on a committed transaction is refused as done — not
	// as an unreachable coordinator, and not retryably: re-running it
	// would repeat committed work.
	_, err := held[0].Do(8, adt.Op{Name: adt.StackPush, Arg: 1, HasArg: true})
	if !errors.Is(err, core.ErrTxnDone) {
		t.Fatalf("Do after commit = %v, want ErrTxnDone", err)
	}
	var ab *core.ErrAborted
	if errors.As(err, &ab) {
		t.Fatalf("Do after commit reads as an abort (retryable=%v): %v", ab.Retryable(), err)
	}

	// One link too many: shed at commit.
	tail := cl.Begin()
	pushOn(tail, core.ObjectID(dist.DefaultHoldDepth))
	_, err = tail.Commit()
	if !errors.As(err, &ab) || ab.Reason != core.ReasonShed || !ab.Retryable() {
		t.Fatalf("commit past the default depth = %v, want a retryable ReasonShed abort", err)
	}
	select {
	case <-tail.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done() of a shed commit never closed")
	}
	if !errors.Is(tail.Err(), core.ErrHoldShed) {
		t.Fatalf("Err() of a shed commit = %v, want ErrHoldShed", tail.Err())
	}

	if st, err := root.Commit(); err != nil || st != core.Committed {
		t.Fatalf("root commit = %v, %v", st, err)
	}
	for _, tx := range held {
		<-tx.Done()
		if err := tx.Err(); err != nil {
			t.Fatal(err)
		}
	}
	// Every outcome is in the client's hands, so every session is
	// acknowledged (one-way frames: poll).
	waitNoSessions(t, nc.co, "after every outcome was delivered")
}

// waitNoSessions waits for the coordinator's client-session table to
// empty; acks are one-way, so the last ones land after their senders
// return.
func waitNoSessions(t *testing.T, co *Coordinator, why string) {
	t.Helper()
	srv := co.server
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.tmu.Lock()
		n := len(srv.txns)
		srv.tmu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator still holds %d client sessions %s", n, why)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
