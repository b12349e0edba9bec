package dist

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func write(v int) adt.Op { return adt.Op{Name: adt.PageWrite, Arg: v, HasArg: true} }
func read() adt.Op       { return adt.Op{Name: adt.PageRead} }
func push(v int) adt.Op  { return adt.Op{Name: adt.StackPush, Arg: v, HasArg: true} }

// newPageCluster builds an n-site cluster with pages 1..objects.
func newPageCluster(t *testing.T, n, objects int) *Cluster {
	t.Helper()
	c, err := New(n, core.Options{}, RouteByModulo(n))
	if err != nil {
		t.Fatal(err)
	}
	for id := core.ObjectID(1); id <= core.ObjectID(objects); id++ {
		if err := c.Register(id, adt.Page{}, compat.PageTable()); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestRouteByModulo(t *testing.T) {
	r := RouteByModulo(3)
	for id := core.ObjectID(0); id < 9; id++ {
		if got, want := r(id), SiteID(id%3); got != want {
			t.Fatalf("route(%d) = %d, want %d", id, got, want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, core.Options{}, nil); !errors.Is(err, ErrBadSites) {
		t.Fatalf("New(0) = %v, want ErrBadSites", err)
	}
	c, err := New(4, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumSites() != 4 {
		t.Fatalf("NumSites = %d", c.NumSites())
	}
	// nil router defaults to modulo.
	if got := c.SiteOf(core.ObjectID(6)); got != SiteID(2) {
		t.Fatalf("default route(6) = %d, want 2", got)
	}
}

// TestCrossSitePseudoCommitAndRelease is the first half of the §6
// example: a commit dependency at one site holds the transaction at
// every participant; the coordinator releases it when the dependency
// drains.
func TestCrossSitePseudoCommitAndRelease(t *testing.T) {
	c := newPageCluster(t, 3, 6)
	t1, t2 := c.Begin(), c.Begin()
	if _, err := t1.Do(1, write(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Do(1, write(11)); err != nil { // dep T2->T1 at site 1
		t.Fatal(err)
	}
	if _, err := t2.Do(2, write(22)); err != nil { // site 2, clean
		t.Fatal(err)
	}
	st, err := t2.Commit()
	if err != nil || st != core.PseudoCommitted {
		t.Fatalf("T2 commit = %v, %v; want pseudo-committed", st, err)
	}
	// Held at both visited sites: really committing is Release's job.
	for _, sid := range []SiteID{1, 2} {
		if got := c.Site(sid).TxnState(t2.ID()); got != "pseudo-committed" {
			t.Fatalf("T2 at site %d = %s", sid, got)
		}
	}
	select {
	case <-t2.Done():
		t.Fatal("T2 really committed while T1 still active")
	default:
	}
	if st, err := t1.Commit(); err != nil || st != core.Committed {
		t.Fatalf("T1 commit = %v, %v", st, err)
	}
	<-t2.Done()
	if err := t2.Err(); err != nil {
		t.Fatal(err)
	}
	// The writes landed in the committed states at their home sites.
	for id, want := range map[core.ObjectID]string{1: "page{11}", 2: "page{22}"} {
		s, err := c.Site(c.SiteOf(id)).CommittedState(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(s); got != want {
			t.Fatalf("object %d committed state = %s, want %s", id, got, want)
		}
	}
}

// TestCrossSiteCommitDepCycle is the second half of the §6 example: a
// commit-dependency cycle split across two sites is invisible to both
// local schedulers and must be caught by the coordinator's mirror.
func TestCrossSiteCommitDepCycle(t *testing.T) {
	c := newPageCluster(t, 3, 6)
	a, b := c.Begin(), c.Begin()
	if _, err := a.Do(4, write(40)); err != nil { // site 1
		t.Fatal(err)
	}
	if _, err := b.Do(5, write(50)); err != nil { // site 2
		t.Fatal(err)
	}
	if _, err := b.Do(4, write(41)); err != nil { // dep B->A at site 1
		t.Fatal(err)
	}
	_, err := a.Do(5, write(51)) // dep A->B at site 2: global cycle
	if !errors.Is(err, core.ErrTxnAborted) {
		t.Fatalf("expected coordinator abort, got %v", err)
	}
	// A is gone at every site; B sails through.
	<-a.Done()
	if err := a.Err(); !errors.Is(err, core.ErrTxnAborted) {
		t.Fatalf("Err on aborted txn = %v", err)
	}
	if st, err := b.Commit(); err != nil || st != core.Committed {
		t.Fatalf("B commit = %v, %v", st, err)
	}
	for id, want := range map[core.ObjectID]string{4: "page{41}", 5: "page{50}"} {
		s, err := c.Site(c.SiteOf(id)).CommittedState(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(s); got != want {
			t.Fatalf("object %d committed state = %s, want %s", id, got, want)
		}
	}
}

// waitLocalState polls until the transaction reaches the given local
// state at the site (the scheduler is deterministic but the handle's
// goroutine parks asynchronously).
func waitLocalState(t *testing.T, s SiteBackend, id core.TxnID, state string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.TxnState(id) == state {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("T%d never reached %s", id, state)
}

// TestCrossSiteDeadlock: T1 waits at site 2 for T2 while T2 waits at
// site 1 for T1 — a wait-for cycle neither site sees locally. The
// coordinator's union graph catches it and aborts the closer of the
// cycle; the survivor's blocked request is granted.
func TestCrossSiteDeadlock(t *testing.T) {
	c := newPageCluster(t, 2, 4)
	t1, t2 := c.Begin(), c.Begin()
	// Object 1 -> site 1, object 2 -> site 0.
	if _, err := t1.Do(1, write(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Do(2, write(200)); err != nil {
		t.Fatal(err)
	}
	// T1 reads object 2: read-after-uncommitted-write conflicts, so it
	// parks at site 0 behind T2.
	t1Res := make(chan error, 1)
	go func() {
		_, err := t1.Do(2, read())
		t1Res <- err
	}()
	waitLocalState(t, c.Site(0), t1.ID(), "blocked")

	// T2 reads object 1: would park at site 1 behind T1, closing the
	// cross-site wait-for cycle — the coordinator must abort T2.
	if _, err := t2.Do(1, read()); !errors.Is(err, core.ErrTxnAborted) {
		t.Fatalf("T2 read = %v, want cross-site deadlock abort", err)
	}
	// T2's abort unblocks T1's read (the uncommitted write is undone).
	if err := <-t1Res; err != nil {
		t.Fatalf("T1's blocked read = %v", err)
	}
	if st, err := t1.Commit(); err != nil || st != core.Committed {
		t.Fatalf("T1 commit = %v, %v", st, err)
	}
}

// TestReblockedEdgeMirrored: under unfair scheduling a site-level
// retry can re-block a parked transaction behind a holder it had no
// edge to when it parked, while its owner goroutine sleeps. The
// cluster must re-mirror those edges on the parked transaction's
// behalf (refreshParked), or the cross-site deadlock closed through
// the re-blocked edge is invisible to the union graph and both
// transactions hang forever.
func TestReblockedEdgeMirrored(t *testing.T) {
	c, err := New(2, core.Options{Unfair: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := core.ObjectID(1); id <= 2; id++ {
		if err := c.Register(id, adt.Page{}, compat.PageTable()); err != nil {
			t.Fatal(err)
		}
	}
	t1, t2, t3 := c.Begin(), c.Begin(), c.Begin()
	// T1 writes object 2 at site 0, so T3 can later wait on it there.
	if _, err := t1.Do(2, write(12)); err != nil {
		t.Fatal(err)
	}
	// T2 writes object 1 at site 1; T1's read of it parks behind T2.
	if _, err := t2.Do(1, write(21)); err != nil {
		t.Fatal(err)
	}
	t1Res := make(chan error, 1)
	go func() {
		_, err := t1.Do(1, read())
		t1Res <- err
	}()
	waitLocalState(t, c.Site(1), t1.ID(), "blocked")
	// Unfair scheduling lets T3's write execute past T1's parked read
	// (write-write with T2 is recoverable).
	if _, err := t3.Do(1, write(31)); err != nil {
		t.Fatal(err)
	}
	// T2 aborts: site 1's retry re-blocks the still-parked T1 behind
	// T3 — an edge T1 had no counterpart for when it parked.
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
	waitLocalState(t, c.Site(1), t1.ID(), "blocked")
	// T3 now reads object 2 at site 0 and waits on T1 there: the
	// union graph holds T3->T1 (site 0) and the re-blocked T1->T3
	// (site 1) — a cross-site deadlock only the coordinator can see.
	if _, err := t3.Do(2, read()); !errors.Is(err, core.ErrTxnAborted) {
		t.Fatalf("T3 read = %v, want cross-site deadlock abort", err)
	}
	// T3's abort unblocks T1; everything drains.
	if err := <-t1Res; err != nil {
		t.Fatalf("T1's parked read = %v", err)
	}
	if st, err := t1.Commit(); err != nil || st != core.Committed {
		t.Fatalf("T1 commit = %v, %v", st, err)
	}
}

// TestBothParkedDeadlockDetected: a cross-site wait-for cycle closed
// by a site-level retry re-block while BOTH transactions are parked —
// no owner's observe will ever run again, so refreshParked itself
// must detect the cycle and wake a victim with the deadlock verdict.
func TestBothParkedDeadlockDetected(t *testing.T) {
	c, err := New(2, core.Options{Unfair: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := core.ObjectID(1); id <= 2; id++ {
		if err := c.Register(id, adt.Page{}, compat.PageTable()); err != nil {
			t.Fatal(err)
		}
	}
	t1, t2, t3 := c.Begin(), c.Begin(), c.Begin()
	// T2 writes object 1 at site 1; T3 writes object 2 at site 0.
	if _, err := t2.Do(1, write(21)); err != nil {
		t.Fatal(err)
	}
	if _, err := t3.Do(2, write(32)); err != nil {
		t.Fatal(err)
	}
	// T2 reads object 2: parks at site 0 behind T3.
	t2Res := make(chan error, 1)
	go func() {
		_, err := t2.Do(2, read())
		t2Res <- err
	}()
	waitLocalState(t, c.Site(0), t2.ID(), "blocked")
	// Unfair scheduling lets T1's write of object 2 execute past T2's
	// parked read (write-write with T3 is recoverable).
	if _, err := t1.Do(2, write(12)); err != nil {
		t.Fatal(err)
	}
	// T1 reads object 1: parks at site 1 behind T2. Union so far:
	// T1->T2, T2->T3, T1->T3 — acyclic, so T1 stays parked.
	t1Res := make(chan error, 1)
	go func() {
		_, err := t1.Do(1, read())
		t1Res <- err
	}()
	waitLocalState(t, c.Site(1), t1.ID(), "blocked")
	// T3 commits: site 0's retry re-blocks the still-parked T2 behind
	// T1's write — closing T1->T2->T1 with both owners asleep.
	if st, err := t3.Commit(); err != nil || st != core.Committed {
		t.Fatalf("T3 commit = %v, %v", st, err)
	}
	// The coordinator must have woken T2 with a deadlock abort, which
	// in turn unblocks T1's read.
	if err := <-t2Res; !errors.Is(err, core.ErrTxnAborted) {
		t.Fatalf("parked T2 = %v, want deadlock abort", err)
	}
	if err := <-t1Res; err != nil {
		t.Fatalf("T1's parked read = %v", err)
	}
	if st, err := t1.Commit(); err != nil || st != core.Committed {
		t.Fatalf("T1 commit = %v, %v", st, err)
	}
}

// TestBlockedGrantAcrossRelease: a request blocked behind a held
// transaction is granted when the coordinator releases the holder.
func TestBlockedGrantAcrossRelease(t *testing.T) {
	c, err := New(2, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register(1, adt.Stack{}, compat.StackTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(2, adt.Page{}, compat.PageTable()); err != nil {
		t.Fatal(err)
	}
	t1, t2 := c.Begin(), c.Begin()
	if _, err := t1.Do(2, write(7)); err != nil { // site 0
		t.Fatal(err)
	}
	if _, err := t2.Do(2, write(8)); err != nil { // dep T2->T1 at site 0
		t.Fatal(err)
	}
	if _, err := t2.Do(1, push(5)); err != nil { // site 1
		t.Fatal(err)
	}
	if st, _ := t2.Commit(); st != core.PseudoCommitted {
		t.Fatalf("T2 = %v, want pseudo-committed (held)", st)
	}
	// T3 pops at site 1: pop conflicts with the held uncommitted push.
	t3 := c.Begin()
	t3Res := make(chan adt.Ret, 1)
	go func() {
		ret, err := t3.Do(1, adt.Op{Name: adt.StackPop})
		if err != nil {
			t.Error(err)
		}
		t3Res <- ret
	}()
	waitLocalState(t, c.Site(1), t3.ID(), "blocked")
	// T1 commits -> T2's dependency drains -> coordinator releases T2
	// everywhere -> T3's pop is granted with T2's value.
	if st, err := t1.Commit(); err != nil || st != core.Committed {
		t.Fatalf("T1 commit = %v, %v", st, err)
	}
	<-t2.Done()
	if err := t2.Err(); err != nil {
		t.Fatal(err)
	}
	ret := <-t3Res
	if ret.Code != adt.Value || ret.Val != 5 {
		t.Fatalf("pop after release = %v, want value 5", ret)
	}
	if st, err := t3.Commit(); err != nil || st != core.Committed {
		t.Fatalf("T3 commit = %v, %v", st, err)
	}
}

// TestUserAbortEverywhere: a user abort undoes the transaction at
// every visited site.
func TestUserAbortEverywhere(t *testing.T) {
	c := newPageCluster(t, 3, 6)
	t1 := c.Begin()
	for id := core.ObjectID(1); id <= 3; id++ {
		if _, err := t1.Do(id, write(int(id)*10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Abort(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := t1.Do(1, write(1)); !errors.Is(err, core.ErrTxnAborted) {
		t.Fatalf("Do after abort = %v", err)
	}
	for id := core.ObjectID(1); id <= 3; id++ {
		s, err := c.Site(c.SiteOf(id)).ObjectState(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(s); got != "page{0}" {
			t.Fatalf("object %d state after abort = %s", id, got)
		}
	}
	// A pseudo-committed (held) transaction refuses user aborts.
	a, b := c.Begin(), c.Begin()
	if _, err := a.Do(1, write(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Do(1, write(2)); err != nil {
		t.Fatal(err)
	}
	if st, _ := b.Commit(); st != core.PseudoCommitted {
		t.Fatal("setup")
	}
	if err := b.Abort(); err == nil {
		t.Fatal("abort of held pseudo-committed transaction accepted")
	}
	if st, err := a.Commit(); err != nil || st != core.Committed {
		t.Fatalf("a commit = %v %v", st, err)
	}
	<-b.Done()
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestObserverEvents: the span plane reports the example scenario's
// outcomes — one transaction held (its decision waited on a global
// dependency), at least three real commits (every commit lands a
// release span) and one cycle abort.
func TestObserverEvents(t *testing.T) {
	spans := telemetry.NewSpanBuffer(1024, 1, 1)
	c, err := NewWithConfig(Config{Sites: 3, Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	for id := core.ObjectID(1); id <= 6; id++ {
		if err := c.Register(id, adt.Page{}, compat.PageTable()); err != nil {
			t.Fatal(err)
		}
	}
	t1, t2 := c.Begin(), c.Begin()
	t1.Do(1, write(1))
	t2.Do(1, write(2))
	t2.Commit() // held
	t1.Commit() // releases t1 and cascades t2
	<-t2.Done()
	if err := t2.Err(); err != nil {
		t.Fatal(err)
	}
	a, b := c.Begin(), c.Begin()
	a.Do(4, write(1))
	b.Do(5, write(2))
	b.Do(4, write(3))
	if _, err := a.Do(5, write(4)); !errors.Is(err, core.ErrTxnAborted) {
		t.Fatal("cycle not caught")
	}
	b.Commit()
	held, released := map[uint64]bool{}, map[uint64]bool{}
	aborted := 0
	for _, s := range spans.Snapshot() {
		switch {
		case s.Kind == telemetry.SpanDecide && s.Object > 0:
			held[s.Txn] = true
		case s.Kind == telemetry.SpanRelease:
			released[s.Txn] = true
		case s.Kind == telemetry.SpanAbort:
			aborted++
		}
	}
	if len(held) != 1 || len(released) < 3 || aborted != 1 {
		t.Fatalf("span counts held=%d released=%d aborted=%d", len(held), len(released), aborted)
	}
}

// TestClusterStressConsistency hammers a 3-site cluster with
// concurrent stack pushers and checks global conservation: every
// value pushed by a transaction that reported commit (pseudo or real)
// is in a committed stack at the end, and nothing else is. Run under
// -race this is also the cluster's data-race test.
func TestClusterStressConsistency(t *testing.T) {
	const (
		sites   = 3
		objects = 12
		workers = 8
		txns    = 60
	)
	c, err := New(sites, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := core.ObjectID(1); id <= objects; id++ {
		if err := c.Register(id, adt.Stack{}, compat.StackTable()); err != nil {
			t.Fatal(err)
		}
	}
	var pushed [objects + 1]atomic.Int64
	var aborts atomic.Int64
	var wg sync.WaitGroup
	var handles sync.Map // *Txn -> struct{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				tx := c.Begin()
				// 1..3 pushes on pseudo-random objects; the mix of
				// same-site and cross-site chains exercises the
				// mirror, holds and cascaded releases.
				n := 1 + (w+i)%3
				var objs []core.ObjectID
				ok := true
				for k := 0; k < n; k++ {
					obj := core.ObjectID(1 + (w*31+i*17+k*7)%objects)
					if _, err := tx.Do(obj, push(w*1000+i)); err != nil {
						if !errors.Is(err, core.ErrTxnAborted) {
							t.Error(err)
						}
						aborts.Add(1)
						ok = false
						break
					}
					objs = append(objs, obj)
				}
				if !ok {
					continue
				}
				if _, err := tx.Commit(); err != nil {
					// The default hold policy may shed a commit that
					// would deepen a chain: an abort, not a promise.
					if !errors.Is(err, core.ErrHoldShed) {
						t.Error(err)
					}
					aborts.Add(1)
					continue
				}
				// Commit (pseudo or real) is a promise: count it.
				for _, obj := range objs {
					pushed[obj].Add(1)
				}
				handles.Store(tx, struct{}{})
			}
		}(w)
	}
	wg.Wait()
	// Every promised commit must land.
	handles.Range(func(k, _ any) bool {
		h := k.(core.Txn)
		<-h.Done()
		if err := h.Err(); err != nil {
			t.Error(err)
		}
		return true
	})
	total := int64(0)
	for id := core.ObjectID(1); id <= objects; id++ {
		s, err := c.Site(c.SiteOf(id)).CommittedState(id)
		if err != nil {
			t.Fatal(err)
		}
		depth := int64(s.(*adt.StackState).Len())
		if got := pushed[id].Load(); got != depth {
			t.Errorf("object %d: committed depth %d, promised pushes %d", id, depth, got)
		}
		total += depth
	}
	if total == 0 {
		t.Fatal("stress test committed nothing")
	}
	t.Logf("stress: %d committed pushes, %d aborted attempts", total, aborts.Load())
}

// TestRunLoad drives the workload-plumbed load runner over a sharded
// read/write mix with cross-site traffic.
func TestRunLoad(t *testing.T) {
	c, err := New(4, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := workload.RunLoad(c, workload.LoadConfig{
		Workload: workload.Sharded{
			Inner: workload.ReadWrite{DBSize: 400, WriteProb: 0.3},
			Sites: 4, CrossProb: 0.25,
		},
		Workers:       8,
		TxnsPerWorker: 40,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != 8*40 {
		t.Fatalf("commits = %d, want %d", res.Commits, 8*40)
	}
	if res.Ops == 0 || res.Shards != 4 {
		t.Fatalf("bad result %+v", res)
	}
	// Conservation at the scheduler layer: every site's commits sum to
	// at least the logical commits (restarted attempts add aborts, not
	// commits).
	stats := c.Stats()
	if stats.Commits == 0 || stats.Executes < res.Ops {
		t.Fatalf("cluster stats inconsistent with load result: %+v vs %+v", stats, res)
	}
	if _, err := workload.RunLoad(c, workload.LoadConfig{}); err == nil {
		t.Fatal("RunLoad without workload accepted")
	}
}

// TestRunLoadOverDB drives the exact same harness against the
// single-scheduler core.DB: one Store code path, either backend.
func TestRunLoadOverDB(t *testing.T) {
	db := core.NewDB(core.Options{})
	res, err := workload.RunLoad(db, workload.LoadConfig{
		Workload:      workload.ReadWrite{DBSize: 400, WriteProb: 0.3},
		Workers:       8,
		TxnsPerWorker: 40,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != 8*40 {
		t.Fatalf("commits = %d, want %d", res.Commits, 8*40)
	}
	if res.Shards != 1 {
		t.Fatalf("shards = %d, want 1 for a DB", res.Shards)
	}
	stats := db.Stats()
	if stats.Commits == 0 || stats.Executes < res.Ops {
		t.Fatalf("db stats inconsistent with load result: %+v vs %+v", stats, res)
	}
}
