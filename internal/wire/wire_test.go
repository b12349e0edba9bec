package wire

import (
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func write(v int) adt.Op { return adt.Op{Name: adt.PageWrite, Arg: v, HasArg: true} }
func read() adt.Op       { return adt.Op{Name: adt.PageRead} }

// wireCluster is a coordinator over remote sites served by in-process
// SiteServers — the full network stack on loopback, minus the separate
// processes — built by StartCoordinator, as sccd builds it.
type wireCluster struct {
	c       *dist.Cluster
	peers   []*Peer
	servers []*SiteServer
}

// startWireCluster brings up daemons×perDaemon remote sites behind
// TCP and a coordinator over them. wl is the daemons'
// workload spec (their Register factory).
func startWireCluster(t *testing.T, daemons, perDaemon int, wl string) *wireCluster {
	t.Helper()
	return startTracedWireCluster(t, daemons, perDaemon, wl, 0)
}

// startTracedWireCluster is startWireCluster with every process's span
// ring sized spans (0: off), every transaction sampled.
func startTracedWireCluster(t *testing.T, daemons, perDaemon int, wl string, spans int) *wireCluster {
	t.Helper()
	w := &wireCluster{}
	var specs []DaemonSpec
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
		srv, err := ServeSites(SiteServerConfig{
			Addr: "127.0.0.1:0", Sites: sites, Workload: wl,
			Spans: telemetry.NewSpanBuffer(spans, 0, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		w.servers = append(w.servers, srv)
		specs = append(specs, DaemonSpec{Listen: srv.Addr(), Sites: ids})
	}
	co, err := StartCoordinator(CoordinatorConfig{
		ClientAddr: "127.0.0.1:0",
		Daemons:    specs,
		Workload:   wl,
		DialWait:   2 * time.Second,
		Spans:      telemetry.NewSpanBuffer(spans, 0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	if len(co.Reports) != daemons*perDaemon {
		t.Fatalf("startup reconciled %d of %d sites", len(co.Reports), daemons*perDaemon)
	}
	w.c, w.peers = co.Cluster, co.peers
	return w
}

func registerPages(t *testing.T, c *dist.Cluster, objects int) {
	t.Helper()
	for id := core.ObjectID(1); id <= core.ObjectID(objects); id++ {
		if err := c.Register(id, adt.Page{}, compat.PageTable()); err != nil {
			t.Fatal(err)
		}
	}
}

// remoteLen reads an object's committed length through the wire.
func remoteLen(t *testing.T, c *dist.Cluster, obj core.ObjectID) int {
	t.Helper()
	st, err := c.Site(c.SiteOf(obj)).CommittedState(obj)
	if err != nil {
		t.Fatalf("CommittedState(%d): %v", obj, err)
	}
	rs, ok := st.(*RemoteState)
	if !ok {
		t.Fatalf("CommittedState(%d) = %T, want *RemoteState", obj, st)
	}
	return rs.Len()
}

// TestWireCrossSiteCommit: a transaction spanning two remote sites
// commits through the wire and its writes land in both committed
// states; reads observe them; stats and txn state cross back.
func TestWireCrossSiteCommit(t *testing.T) {
	w := startWireCluster(t, 2, 1, "readwrite:64")
	registerPages(t, w.c, 4)
	tx := w.c.Begin()
	if _, err := tx.Do(1, write(11)); err != nil { // site 1
		t.Fatal(err)
	}
	if _, err := tx.Do(2, write(22)); err != nil { // site 0
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := w.c.Begin()
	for obj, want := range map[core.ObjectID]int{1: 11, 2: 22} {
		ret, err := tx2.Do(obj, read())
		if err != nil {
			t.Fatal(err)
		}
		if ret.Val != want {
			t.Fatalf("read(%d) = %d, want %d", obj, ret.Val, want)
		}
	}
	if _, err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := w.c.Site(0).TxnState(tx.ID()); st != "committed" && st != "unknown" {
		t.Fatalf("TxnState after commit = %q", st)
	}
	stats := w.c.Stats()
	if stats.Commits == 0 || stats.Executes == 0 {
		t.Fatalf("stats did not cross the wire: %+v", stats)
	}
}

// TestWireLoadConservation: a concurrent pushes load over the wire
// conserves — every committed push is in exactly one committed stack.
func TestWireLoadConservation(t *testing.T) {
	const db = 16
	w := startWireCluster(t, 2, 2, "pushes:16")
	var mu sync.Mutex
	counts := make(map[core.ObjectID]uint64)
	res, err := workload.RunLoad(w.c, workload.LoadConfig{
		Workload:      workload.Pushes{DBSize: db},
		Workers:       8,
		TxnsPerWorker: 25,
		Seed:          42,
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
	if res.Commits != 8*25 {
		t.Fatalf("Commits = %d, want %d", res.Commits, 8*25)
	}
	for obj := core.ObjectID(1); obj <= db; obj++ {
		if got, want := remoteLen(t, w.c, obj), int(counts[obj]); got != want {
			t.Fatalf("object %d: committed depth %d, want %d pushes", obj, got, want)
		}
	}
}

// TestWireChaosReconcile: the chaos harness crashes and restarts
// remote sites under load; Restart reconciles each daemon against the
// decision log (orphan aborts, log-driven release/revoke of in-doubt
// holds) and conservation holds exactly.
func TestWireChaosReconcile(t *testing.T) {
	const db = 12
	w := startWireCluster(t, 2, 2, "pushes:12")
	res, err := workload.RunChaos(w.c, workload.ChaosConfig{
		Load: workload.LoadConfig{
			Workload:      workload.Pushes{DBSize: db},
			Workers:       6,
			TxnsPerWorker: 20,
			Seed:          7,
			MaxRestarts:   100000,
		},
		CrashEvery:   15 * time.Millisecond,
		RestartAfter: 5 * time.Millisecond,
		MaxCrashes:   6,
		Deadline:     60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 {
		t.Fatal("chaos injected no crashes")
	}
	for obj := core.ObjectID(1); obj <= db; obj++ {
		if got, want := remoteLen(t, w.c, obj), int(res.CommittedSteps[obj]); got != want {
			t.Fatalf("object %d: committed depth %d, want %d pushes", obj, got, want)
		}
	}
}

// TestWireDroppedPeerTypedError: a dropped connection surfaces as the
// typed retryable site failure — the transaction that touched the
// dropped daemon aborts with ErrSiteFailed and Retryable() true — and
// the redial loop brings the site back for fresh work.
func TestWireDroppedPeerTypedError(t *testing.T) {
	w := startWireCluster(t, 2, 1, "readwrite:64")
	registerPages(t, w.c, 4)
	tx := w.c.Begin()
	if _, err := tx.Do(1, write(10)); err != nil { // site 1
		t.Fatal(err)
	}
	w.peers[1].DropConnection()
	// The redial starts at once, so the site may be down for well under
	// a millisecond: wait for the crash itself, not for a poll to land
	// inside that window.
	deadline := time.Now().Add(10 * time.Second)
	for w.c.Telemetry().Crashes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dropping the connection never crashed the site")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := tx.Do(1, write(11))
	if !errors.Is(err, core.ErrSiteFailed) {
		t.Fatalf("Do after drop = %v, want ErrSiteFailed", err)
	}
	var ab *core.ErrAborted
	if !errors.As(err, &ab) || !ab.Retryable() {
		t.Fatalf("site-failure abort not retryable: %v", err)
	}
	waitSiteDown(t, w.c, 1, false)
	tx2 := w.c.Begin()
	if _, err := tx2.Do(1, write(12)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestWireDropFailsParkedWaiter: a request parked at a remote site is
// woken with the site-failure verdict when the connection drops,
// instead of waiting forever.
func TestWireDropFailsParkedWaiter(t *testing.T) {
	w := startWireCluster(t, 2, 1, "readwrite:64")
	registerPages(t, w.c, 4)
	t1, t2 := w.c.Begin(), w.c.Begin()
	if _, err := t1.Do(1, write(10)); err != nil { // site 1
		t.Fatal(err)
	}
	res := make(chan error, 1)
	go func() {
		_, err := t2.Do(1, read()) // parks behind T1's write
		res <- err
	}()
	waitRemoteState(t, w.c.Site(1), t2.ID(), "blocked")
	w.peers[1].DropConnection()
	select {
	case err := <-res:
		if !errors.Is(err, core.ErrSiteFailed) {
			t.Fatalf("parked Do after drop = %v, want ErrSiteFailed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked waiter never woke after connection drop")
	}
}

// TestWireWithdrawIsNoAbort: a sampled transaction whose blocked DoCtx
// is cancelled is withdrawn at the daemon — it stays active there — so
// once it commits, the daemon's ring holds its block, hold and release
// and no abort.
func TestWireWithdrawIsNoAbort(t *testing.T) {
	w := startTracedWireCluster(t, 2, 1, "readwrite:64", 256)
	registerPages(t, w.c, 4)
	t1, t2 := w.c.Begin(), w.c.Begin()
	if _, err := t1.Do(1, write(10)); err != nil { // site 1
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, err := t2.DoCtx(ctx, 1, read()) // parks behind T1's write
		res <- err
	}()
	waitRemoteState(t, w.c.Site(1), t2.ID(), "blocked")
	cancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled DoCtx = %v, want context.Canceled", err)
	}
	if _, err := t2.Do(3, write(30)); err != nil { // site 1 again
		t.Fatal(err)
	}
	for _, tx := range []core.Txn{t1, t2} {
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		<-tx.Done()
		if err := tx.Err(); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, sp := range w.servers[1].cfg.Spans.Snapshot() {
		if sp.Txn == uint64(t2.ID()) {
			got = append(got, sp.KindS)
		}
	}
	if slices.Contains(got, "abort") || !slices.Contains(got, "block") || !slices.Contains(got, "release") {
		t.Fatalf("daemon spans of the withdrawn T%d = %v, want its block and release and no abort", t2.ID(), got)
	}
}

// TestWireLoadSurvivesConnectionDrops: Store.Run's retry loop rides
// through repeated real TCP connection losses — the load completes and
// conserves once the daemons are back.
func TestWireLoadSurvivesConnectionDrops(t *testing.T) { dropLoad(t) }

// TestDaemonForgetsWhatTheReconcileEnds: once the drop load quiesced,
// no daemon tracks any transaction — the conversations forgot theirs,
// and each reconcile forgot what it resolved and what the connection
// loss kept from being forgotten. A bare connection that never adopts
// asks every site about every id minted so far.
func TestDaemonForgetsWhatTheReconcileEnds(t *testing.T) {
	w := dropLoad(t)
	for sid := range w.c.NumSites() {
		waitSiteDown(t, w.c, dist.SiteID(sid), false)
		// A round trip on the coordinator's connection: the forgets it
		// sent before are out of the site's FIFO when this answers.
		_ = w.c.Site(dist.SiteID(sid)).StatsSnapshot()
	}
	next := w.c.Begin().ID()
	for d, srv := range w.servers {
		peer := NewPeer(PeerConfig{Addr: srv.Addr()})
		if err := peer.Connect(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		for sid := uint16(2 * d); sid < uint16(2*d+2); sid++ {
			probe := NewRemoteSite(peer, sid, nil)
			for id := core.TxnID(1); id < next; id++ {
				if st := probe.TxnState(id); st != "unknown" {
					t.Errorf("site %d still tracks T%d (%s)", sid, id, st)
				}
			}
		}
	}
}

// dropLoad runs a pushes load on two daemons of two sites each while
// four connection drops crash and restart their sites, and checks that
// every transaction commits and each object's committed depth counts
// its committed pushes. Each drop waits until its daemon's connection
// is up and both its sites reconciled, so every drop closes a live
// connection.
func dropLoad(t *testing.T) *wireCluster {
	t.Helper()
	const db = 12
	w := startWireCluster(t, 2, 2, "pushes:12")
	var mu sync.Mutex
	counts := make(map[core.ObjectID]uint64)
	live := func(d int) bool {
		return w.peers[d].Up() && !w.c.SiteDown(dist.SiteID(2*d)) && !w.c.SiteDown(dist.SiteID(2*d+1))
	}
	drops := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			time.Sleep(20 * time.Millisecond)
			d := i % len(w.peers)
			for deadline := time.Now().Add(10 * time.Second); !live(d) && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if live(d) {
				w.peers[d].DropConnection()
				drops++
			}
		}
	}()
	res, err := workload.RunLoad(w.c, workload.LoadConfig{
		Workload:        workload.Pushes{DBSize: db},
		Workers:         6,
		TxnsPerWorker:   20,
		Seed:            99,
		MaxRestarts:     100000,
		RetryHeldAborts: true,
		OnCommitted: func(steps []workload.Step) {
			mu.Lock()
			for _, s := range steps {
				counts[s.Object]++
			}
			mu.Unlock()
		},
	})
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if drops != 4 {
		t.Fatalf("%d of 4 drops found a live connection", drops)
	}
	if res.Commits != 6*20 {
		t.Fatalf("Commits = %d, want %d", res.Commits, 6*20)
	}
	// Audit once each object's site answers: the last drop's crash and
	// reconcile may still be under way when the load returns.
	for obj := core.ObjectID(1); obj <= db; obj++ {
		site := w.c.Site(w.c.SiteOf(obj))
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if _, err := site.CommittedState(obj); !errors.Is(err, fault.ErrSiteDown) {
				break
			}
		}
		if got, want := remoteLen(t, w.c, obj), int(counts[obj]); got != want {
			t.Fatalf("object %d: committed depth %d, want %d pushes", obj, got, want)
		}
	}
	return w
}

// TestLateDaemonIsAdopted: a daemon that is not up when the
// coordinator starts is redialled until it is; its site starts
// crashed, then reconciles and serves transactions.
func TestLateDaemonIsAdopted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	co, err := StartCoordinator(CoordinatorConfig{
		ClientAddr: "127.0.0.1:0",
		Daemons:    []DaemonSpec{{Listen: addr, Sites: []uint16{0}}},
		Workload:   "pushes:4",
		DialWait:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if !co.Cluster.SiteDown(0) || len(co.Reports) != 0 {
		t.Fatalf("site of an unreachable daemon: down=%v, reports %v; want down and none", co.Cluster.SiteDown(0), co.Reports)
	}
	cr, err := fault.New(core.Options{}, fault.NewMemLog())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeSites(SiteServerConfig{Addr: addr, Sites: map[uint16]dist.SiteBackend{0: cr}, Workload: "pushes:4"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	waitSiteDown(t, co.Cluster, 0, false)
	if err := co.Cluster.Register(1, adt.Stack{}, compat.StackTable()); err != nil {
		t.Fatal(err)
	}
	tx := co.Cluster.Begin()
	if _, err := tx.Do(1, push(1)); err != nil {
		t.Fatal(err)
	}
	if st, err := tx.Commit(); err != nil || st != core.Committed {
		t.Fatalf("commit at the late daemon = %v, %v; want committed", st, err)
	}
}

// remoteSites serves one site behind a daemon and returns k RemoteSites
// for it, each on its own counted connection — k coordinators' views of
// one daemon, as after a coordinator restart.
func remoteSites(t *testing.T, k int) ([]*RemoteSite, []*telemetry.WireMetrics) {
	t.Helper()
	cr, err := fault.New(core.Options{}, fault.NewMemLog())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeSites(SiteServerConfig{Addr: "127.0.0.1:0", Sites: map[uint16]dist.SiteBackend{0: cr}, Workload: "pushes:4"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	var rss []*RemoteSite
	var mets []*telemetry.WireMetrics
	for i := 0; i < k; i++ {
		m := &telemetry.WireMetrics{}
		peer := NewPeer(PeerConfig{Addr: srv.Addr(), Metrics: m})
		if err := peer.Connect(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(peer.Close)
		rss = append(rss, NewRemoteSite(peer, 0, nil))
		mets = append(mets, m)
	}
	return rss, mets
}

func push(v int) adt.Op { return adt.Op{Name: adt.StackPush, Arg: v, HasArg: true} }

// TestRemoteSiteOwedBegin: a begun transaction whose first request has
// not gone out exists only at the coordinator. Abort, withdraw, forget
// and txn-state answer locally without a frame; a crash clears the
// debt, so a later request carries no begin and the daemon, which
// never heard of the id, refuses it.
func TestRemoteSiteOwedBegin(t *testing.T) {
	rss, mets := remoteSites(t, 1)
	rs, m := rss[0], mets[0]
	var eff core.Effects
	if err := rs.Begin(1); err != nil {
		t.Fatal(err)
	}
	if st := rs.TxnState(1); st != "active" {
		t.Fatalf("owed TxnState = %q, want active", st)
	}
	if err := rs.WithdrawInto(&eff, 1); err != nil {
		t.Fatal(err)
	}
	if err := rs.AbortInto(&eff, 1); err != nil {
		t.Fatal(err)
	}
	rs.Forget(1)
	if n := m.FramesOut.Load(); n != 0 {
		t.Fatalf("an owed transaction sent %d frames, want 0", n)
	}

	if err := rs.Begin(2); err != nil {
		t.Fatal(err)
	}
	if err := rs.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Restart(); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.RequestInto(&eff, 2, 1, push(1)); !errors.Is(err, core.ErrUnknownTxn) {
		t.Fatalf("request after a crash cleared the begin = %v, want ErrUnknownTxn", err)
	}
}

// TestRestartReleasesAfterItsDependencies: a daemon outlives a
// connection loss holding a logged hold T3 whose out-edge points at an
// orphan T5, as when the loss swallowed T5's abort. The reconcile lists
// T3 first, yet must abort T5 before it releases T3, because the daemon
// releases only a transaction whose dependencies drained. Both end
// forgotten at the daemon, and only T3's push landed. Until the
// reconcile ends the site stays down to readers, which would otherwise
// see T3's logged commit missing.
func TestRestartReleasesAfterItsDependencies(t *testing.T) {
	rss, _ := remoteSites(t, 1)
	rs := rss[0]
	var during []error // reads made while the reconcile consults the log
	rs.decided = func(id core.TxnID) bool {
		_, err := rs.CommittedState(1)
		during = append(during, err)
		return id == 3
	}
	if err := rs.Register(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	var eff core.Effects
	for _, id := range []core.TxnID{5, 3} {
		if err := rs.Begin(id); err != nil {
			t.Fatal(err)
		}
		if _, err := rs.RequestInto(&eff, id, 1, push(int(id))); err != nil {
			t.Fatal(err)
		}
	}
	if deg, err := rs.CommitHoldInto(&eff, 3); err != nil || deg != 1 {
		t.Fatalf("hold of T3 = %d, %v; want out-degree 1", deg, err)
	}
	if err := rs.Crash(); err != nil {
		t.Fatal(err)
	}
	rep, err := rs.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rep.Redone, []core.TxnID{3}) || !slices.Equal(rep.Aborted, []core.TxnID{5}) {
		t.Fatalf("reconcile redid %v and aborted %v, want [3] and [5]", rep.Redone, rep.Aborted)
	}
	if len(during) == 0 {
		t.Fatal("the reconcile never consulted the log")
	}
	for _, err := range during {
		if !errors.Is(err, fault.ErrSiteDown) {
			t.Fatalf("read during the reconcile = %v, want ErrSiteDown", err)
		}
	}
	for _, id := range []core.TxnID{3, 5} {
		if st := rs.TxnState(id); st != "unknown" {
			t.Fatalf("T%d is %q at the daemon, want unknown (forgotten)", id, st)
		}
	}
	st, err := rs.CommittedState(1)
	if err != nil {
		t.Fatal(err)
	}
	if n := st.(*RemoteState).Len(); n != 1 {
		t.Fatalf("committed depth %d, want 1 (T3's push, not T5's)", n)
	}
}

// TestRefusedBeginKeepsOtherHolder: two coordinators over one daemon
// mint the same id, as a restarted one does. The second coordinator's
// folded begin is refused with core.ErrDuplicateTxn while the first's
// transaction is live, and unwinding the refused transaction must not
// reach the other holder: its abort answers locally, and the first
// coordinator's transaction still commits.
func TestRefusedBeginKeepsOtherHolder(t *testing.T) {
	rss, _ := remoteSites(t, 2)
	var clusters []*dist.Cluster
	for _, rs := range rss {
		c, err := dist.NewWithConfig(dist.Config{Sites: 1, Backends: []dist.SiteBackend{rs}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clusters = append(clusters, c)
	}
	live, refused := clusters[0].Begin(), clusters[1].Begin()
	if live.ID() != refused.ID() {
		t.Fatalf("ids %d and %d; the scenario needs one id on both coordinators", live.ID(), refused.ID())
	}
	if _, err := live.Do(1, push(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := refused.Do(1, push(2)); !errors.Is(err, core.ErrDuplicateTxn) {
		t.Fatalf("second holder's first request = %v, want ErrDuplicateTxn", err)
	}
	if err := refused.Abort(); err != nil {
		t.Fatal(err)
	}
	if st, err := live.Commit(); err != nil || st != core.Committed {
		t.Fatalf("first holder's commit = %v, %v; want committed", st, err)
	}
	if got := remoteLen(t, clusters[0], 1); got != 1 {
		t.Fatalf("committed depth = %d, want the first holder's one push", got)
	}
}

func waitSiteDown(t *testing.T, c *dist.Cluster, sid dist.SiteID, want bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.SiteDown(sid) == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("site %d never reached down=%v", sid, want)
}

func waitRemoteState(t *testing.T, s dist.SiteBackend, id core.TxnID, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.TxnState(id) == state {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("T%d never reached %s remotely", id, state)
}
