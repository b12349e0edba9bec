package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/adt"
	"repro/internal/compat"
)

// TestSchedulerConcurrentStress exercises the "safe for concurrent
// use" claim directly against the raw Scheduler from many goroutines:
// disjoint transaction id ranges, overlapping objects, committing and
// aborting — run under -race this is the scheduler's data-race test.
func TestSchedulerConcurrentStress(t *testing.T) {
	const (
		workers = 8
		txns    = 150
		objects = 10
	)
	s := NewScheduler(Options{})
	for id := ObjectID(1); id <= objects; id++ {
		if err := s.Register(id, adt.Set{}, compat.SetTable()); err != nil {
			t.Fatal(err)
		}
	}
	var commits, aborts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				id := TxnID(w*txns + i + 1)
				if err := s.Begin(id); err != nil {
					t.Error(err)
					return
				}
				obj := ObjectID(1 + (w*13+i)%objects)
				// Insert then member: inserts of distinct values
				// commute, members are recoverable — plenty of
				// commit-dependency traffic, no blocking. The member
				// arguments are negative, a value no insert uses: Member(x)
				// after an uncommitted Insert(x) is not recoverable (Table
				// VI) and would rightly block.
				ops := []adt.Op{
					{Name: adt.SetInsert, Arg: w*txns + i, HasArg: true},
					{Name: adt.SetMember, Arg: -(w + 1), HasArg: true},
				}
				dead := false
				for _, op := range ops {
					dec, _, err := doRequest(s, id, obj, op)
					if err != nil {
						t.Error(err)
						return
					}
					if dec.Outcome == Aborted {
						aborts.Add(1)
						dead = true
						break
					}
					if dec.Outcome != Executed {
						t.Errorf("unexpected outcome %v", dec.Outcome)
						return
					}
				}
				if dead {
					continue
				}
				if i%7 == 0 {
					if _, err := doAbort(s, id); err != nil {
						t.Error(err)
						return
					}
					aborts.Add(1)
					s.Forget(id)
					continue
				}
				if _, _, err := doCommit(s, id); err != nil {
					t.Error(err)
					return
				}
				commits.Add(1)
			}
		}(w)
	}
	wg.Wait()

	stats := s.StatsSnapshot()
	if int64(stats.Commits) != commits.Load() {
		t.Errorf("scheduler commits %d != client view %d", stats.Commits, commits.Load())
	}
	if commits.Load() == 0 {
		t.Fatal("stress committed nothing")
	}
}

// TestDBConcurrentStress drives the blocking DB/Handle front end from
// many goroutines over a small hot set of stacks, where requests
// genuinely block and abort. Conservation check: committed pushes
// minus committed successful pops equals the final committed depths.
func TestDBConcurrentStress(t *testing.T) {
	const (
		workers = 8
		rounds  = 80
		objects = 4
	)
	db := NewDB(Options{})
	for id := ObjectID(1); id <= objects; id++ {
		if err := db.Register(id, adt.Stack{}, compat.StackTable()); err != nil {
			t.Fatal(err)
		}
	}
	var balance [objects + 1]atomic.Int64 // committed pushes - pops per object
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				h := db.Begin()
				obj := ObjectID(1 + (w+i)%objects)
				popping := (w+i)%3 == 0
				var op adt.Op
				if popping {
					op = adt.Op{Name: adt.StackPop}
				} else {
					op = adt.Op{Name: adt.StackPush, Arg: w*rounds + i, HasArg: true}
				}
				ret, err := h.Do(obj, op)
				if err != nil {
					if !errors.Is(err, ErrTxnAborted) {
						t.Error(err)
					}
					continue
				}
				if _, err := h.Commit(); err != nil {
					if !errors.Is(err, ErrTxnAborted) {
						t.Error(err)
					}
					continue
				}
				// Commit (even pseudo) is a promise the op's effect
				// persists.
				if popping {
					if ret.Code == adt.Value {
						balance[obj].Add(-1)
					}
				} else {
					balance[obj].Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	// All transactions are done, so every pseudo-commit has cascaded;
	// committed state must match the balance.
	for id := ObjectID(1); id <= objects; id++ {
		s, err := db.Scheduler().CommittedState(id)
		if err != nil {
			t.Fatal(err)
		}
		depth := int64(s.(*adt.StackState).Len())
		if want := balance[id].Load(); depth != want {
			t.Errorf("object %d: committed depth %d, want %d", id, depth, want)
		}
	}
}

// TestBlockedRequesterAbortWakesFairnessWaiters: terminating a
// transaction whose only presence on an object is a BLOCKED request
// (no log entries) must rescan that object's queue — later requests
// that were fairness-gated behind the dequeued request would
// otherwise wait forever (lost wakeup).
func TestBlockedRequesterAbortWakesFairnessWaiters(t *testing.T) {
	s := NewScheduler(Options{})
	if err := s.Register(1, adt.Page{}, compat.PageTable()); err != nil {
		t.Fatal(err)
	}
	read := adt.Op{Name: adt.PageRead}
	write := func(v int) adt.Op { return adt.Op{Name: adt.PageWrite, Arg: v, HasArg: true} }

	mustBegin(t, s, 1, 2, 3)
	mustExec(t, s, 1, 1, write(10)) // T1 holds an uncommitted write
	// T2's read conflicts with the uncommitted write: parks first.
	if dec, _, err := doRequest(s, 2, 1, read); err != nil || dec.Outcome != Blocked {
		t.Fatalf("T2 read = %+v, %v, want blocked", dec, err)
	}
	// T3's write is recoverable with T1's write but does not commute
	// with T2's parked read: fairness queues it behind T2 only.
	if dec, _, err := doRequest(s, 3, 1, write(30)); err != nil || dec.Outcome != Blocked {
		t.Fatalf("T3 write = %+v, %v, want blocked", dec, err)
	}
	// T2 gives up. It has no log entries anywhere — only the blocked
	// request — yet its departure must wake T3.
	eff, err := doAbort(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Grants) != 1 || eff.Grants[0].Txn != 3 {
		t.Fatalf("grants after T2 abort = %+v, want T3's write granted", eff.Grants)
	}
	if st := s.TxnState(3); st != "active" {
		t.Fatalf("T3 = %s, want active (granted)", st)
	}
	// T3 executed over T1's write: commit dependency as usual.
	if st, _, err := doCommit(s, 3); err != nil || st != PseudoCommitted {
		t.Fatalf("T3 commit = %v, %v", st, err)
	}
	if _, eff, err := doCommit(s, 1); err != nil || len(eff.Committed) != 1 || eff.Committed[0] != 3 {
		t.Fatalf("T1 commit effects = %+v, %v, want T3 cascaded", eff, err)
	}
}
