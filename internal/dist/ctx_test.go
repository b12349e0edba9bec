package dist

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
)

// TestClusterDoCtxCancelWithdraws: cancelling a DoCtx blocked at one
// site withdraws the request there, clears the mirrored wait-for edges
// at the coordinator, and leaves the transaction usable — including at
// other sites.
func TestClusterDoCtxCancelWithdraws(t *testing.T) {
	c := newPageCluster(t, 2, 4)
	t1, t2 := c.Begin(), c.Begin()
	if _, err := t1.Do(2, write(20)); err != nil { // site 0
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, err := t2.DoCtx(ctx, 2, read()) // parks at site 0 behind t1
		res <- err
	}()
	waitLocalState(t, c.Site(0), t2.ID(), "blocked")
	cancel()
	select {
	case err := <-res:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled DoCtx = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled DoCtx never returned")
	}
	waitLocalState(t, c.Site(0), t2.ID(), "active")
	// The coordinator must not hold a stale T2 wait-for edge: a fresh
	// T1 request that would close T1 -> ... -> T2 -> T1 through the
	// stale edge must succeed. T1 touches T2's other site freely.
	if _, err := t2.Do(1, write(11)); err != nil { // site 1, clean
		t.Fatal(err)
	}
	if st, err := t1.Commit(); err != nil || st != core.Committed {
		t.Fatalf("t1 commit = %v, %v", st, err)
	}
	if st, err := t2.Commit(); err != nil || st != core.Committed {
		t.Fatalf("t2 commit = %v, %v (a stale mirror edge would have held it)", st, err)
	}
}

// TestClusterDoCtxCancelWakesFairnessFollowers: the lost-wakeup
// regression at a site's queue — a request fairness-gated behind the
// cancelled one is retried when the withdrawal dequeues it.
func TestClusterDoCtxCancelWakesFairnessFollowers(t *testing.T) {
	c := newPageCluster(t, 2, 4)
	t1, t2, t3 := c.Begin(), c.Begin(), c.Begin()
	if _, err := t1.Do(2, write(10)); err != nil { // site 0
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t2res := make(chan error, 1)
	go func() {
		_, err := t2.DoCtx(ctx, 2, read()) // parks behind the write
		t2res <- err
	}()
	waitLocalState(t, c.Site(0), t2.ID(), "blocked")
	t3res := make(chan error, 1)
	go func() {
		_, err := t3.Do(2, write(30)) // fairness-gated behind t2's read
		t3res <- err
	}()
	waitLocalState(t, c.Site(0), t3.ID(), "blocked")
	cancel()
	if err := <-t2res; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled DoCtx = %v", err)
	}
	select {
	case err := <-t3res:
		if err != nil {
			t.Fatalf("follower's write failed: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("lost wakeup: follower stayed parked after the withdrawal")
	}
	if st, err := t3.Commit(); err != nil || st != core.PseudoCommitted {
		t.Fatalf("t3 commit = %v, %v", st, err)
	}
	if st, err := t1.Commit(); err != nil || st != core.Committed {
		t.Fatalf("t1 commit = %v, %v", st, err)
	}
	<-t3.Done()
	if err := t3.Err(); err != nil {
		t.Fatal(err)
	}
	if st, err := t2.Commit(); err != nil || st != core.Committed {
		t.Fatalf("t2 commit = %v, %v", st, err)
	}
}

// TestClusterCommitCtxExpired: an expired context stops the commit
// conversation before it starts; the transaction stays active and
// abortable.
func TestClusterCommitCtxExpired(t *testing.T) {
	c := newPageCluster(t, 2, 4)
	tx := c.Begin()
	if _, err := tx.Do(1, write(5)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := tx.CommitCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired CommitCtx = %v", err)
	}
	if st := c.Site(c.SiteOf(1)).TxnState(tx.ID()); st != "active" {
		t.Fatalf("after expired CommitCtx txn is %s at its site", st)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterClose mirrors TestStoreClose for the distributed backend.
func TestClusterClose(t *testing.T) {
	c := newPageCluster(t, 2, 4)
	inflight := c.Begin()
	if _, err := inflight.Do(1, write(9)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	late := c.Begin()
	if _, err := late.Do(1, write(1)); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("Do on closed cluster = %v", err)
	}
	if err := c.Register(7, adt.Page{}, nil); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("Register on closed cluster = %v", err)
	}
	if st, err := inflight.Commit(); err != nil || st != core.Committed {
		t.Fatalf("in-flight commit = %v, %v", st, err)
	}
}

// TestClusterCancelStress drives the cluster with workers whose DoCtx
// deadlines fire at random, across sites, and checks conservation of
// committed pushes. Run under -race this covers the withdrawal path's
// interaction with the coordinator.
func TestClusterCancelStress(t *testing.T) {
	const (
		sites   = 3
		objects = 9
		workers = 8
		rounds  = 50
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
	var cancels atomic.Int64
	var wg sync.WaitGroup
	var held sync.Map
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)*104729 + 7))
			for i := 0; i < rounds; i++ {
				ctx, cancel := context.WithTimeout(context.Background(),
					time.Duration(r.Intn(400))*time.Microsecond)
				tx := c.Begin()
				n := 1 + r.Intn(3)
				var objs []core.ObjectID
				failed := false
				for k := 0; k < n; k++ {
					obj := core.ObjectID(1 + r.Intn(objects))
					if _, err := tx.DoCtx(ctx, obj, push(w*1000+i)); err != nil {
						switch {
						case errors.Is(err, context.DeadlineExceeded):
							cancels.Add(1)
							tx.Abort()
						case errors.Is(err, core.ErrTxnAborted):
						default:
							t.Errorf("DoCtx: %v", err)
						}
						failed = true
						break
					}
					objs = append(objs, obj)
				}
				cancel()
				if failed {
					continue
				}
				if _, err := tx.Commit(); err != nil {
					if !errors.Is(err, core.ErrTxnAborted) {
						t.Errorf("Commit: %v", err)
					}
					continue
				}
				for _, obj := range objs {
					pushed[obj].Add(1)
				}
				held.Store(tx, struct{}{})
			}
		}(w)
	}
	wg.Wait()
	held.Range(func(k, _ any) bool {
		tx := k.(core.Txn)
		<-tx.Done()
		if err := tx.Err(); err != nil {
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
		t.Fatal("cancel stress committed nothing")
	}
	t.Logf("cancel stress: %d committed pushes, %d deadline cancellations", total, cancels.Load())
}
