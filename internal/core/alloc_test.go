package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/compat"
)

// The allocation regression tests pin the tentpole property of the
// compiled-classifier + scratch-reuse work: the steady-state request
// path does not touch the heap. They run a generous warm-up first so
// every pool and scratch buffer reaches its steady capacity.

// TestCommutingPathZeroAllocs asserts a steady-state Begin /
// RequestInto (commuting op) / CommitInto / Forget cycle, with one
// reused Effects buffer, performs zero heap allocations.
func TestCommutingPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := NewScheduler(Options{})
	if err := s.Register(1, adt.Set{}, compat.SetTable()); err != nil {
		t.Fatal(err)
	}
	var eff Effects
	var id TxnID
	cycle := func() {
		id++
		if err := s.Begin(id); err != nil {
			t.Fatal(err)
		}
		op := adt.Op{Name: adt.SetMember, Arg: int(id % 97), HasArg: true}
		if dec, err := s.RequestInto(&eff, id, 1, op); err != nil || dec.Outcome != Executed {
			t.Fatalf("request: %v %v", dec, err)
		}
		if st, err := s.CommitInto(&eff, id); err != nil || st != Committed {
			t.Fatalf("commit: %v %v", st, err)
		}
		s.Forget(id)
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(500, cycle); avg != 0 {
		t.Fatalf("commuting RequestInto/CommitInto cycle allocates %.2f times per op, want 0", avg)
	}
}

// TestBlockedPathZeroAllocs asserts the blocked path — park a
// conflicting request, wait-for edge, deadlock check, grant on the
// holder's commit — allocates nothing in steady state when driven
// through the *Into verbs with a reused Effects buffer: the
// per-block request is pooled (graveyard -> free list) and the grant
// is appended into the caller's buffer.
func TestBlockedPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := NewScheduler(Options{})
	if err := s.Register(1, adt.Page{}, compat.PageTable()); err != nil {
		t.Fatal(err)
	}
	write := func(v int) adt.Op { return adt.Op{Name: adt.PageWrite, Arg: v, HasArg: true} }
	read := adt.Op{Name: adt.PageRead}
	var eff Effects
	var id TxnID
	cycle := func() {
		ta, tb := id+1, id+2
		id += 2
		if err := s.Begin(ta); err != nil {
			t.Fatal(err)
		}
		if err := s.Begin(tb); err != nil {
			t.Fatal(err)
		}
		if dec, err := s.RequestInto(&eff, ta, 1, write(int(id))); err != nil || dec.Outcome != Executed {
			t.Fatalf("write: %v %v", dec, err)
		}
		if dec, err := s.RequestInto(&eff, tb, 1, read); err != nil || dec.Outcome != Blocked {
			t.Fatalf("read: %v %v", dec, err)
		}
		if st, err := s.CommitInto(&eff, ta); err != nil || st != Committed {
			t.Fatalf("commit a: %v %v", st, err)
		}
		if len(eff.Grants) != 1 || eff.Grants[0].Txn != tb {
			t.Fatalf("grants = %+v", eff.Grants)
		}
		if st, err := s.CommitInto(&eff, tb); err != nil || st != Committed {
			t.Fatalf("commit b: %v %v", st, err)
		}
		s.Forget(ta)
		s.Forget(tb)
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(500, cycle); avg != 0 {
		t.Fatalf("blocked Request/grant cycle allocates %.2f times per pair, want 0", avg)
	}
}

// TestWithdrawPathZeroAllocs asserts the cancellation path — park,
// withdraw, followers retried — allocates nothing in steady state.
func TestWithdrawPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := NewScheduler(Options{})
	if err := s.Register(1, adt.Page{}, compat.PageTable()); err != nil {
		t.Fatal(err)
	}
	write := func(v int) adt.Op { return adt.Op{Name: adt.PageWrite, Arg: v, HasArg: true} }
	read := adt.Op{Name: adt.PageRead}
	var eff Effects
	var id TxnID
	cycle := func() {
		ta, tb := id+1, id+2
		id += 2
		if err := s.Begin(ta); err != nil {
			t.Fatal(err)
		}
		if err := s.Begin(tb); err != nil {
			t.Fatal(err)
		}
		if dec, err := s.RequestInto(&eff, ta, 1, write(int(id))); err != nil || dec.Outcome != Executed {
			t.Fatalf("write: %v %v", dec, err)
		}
		if dec, err := s.RequestInto(&eff, tb, 1, read); err != nil || dec.Outcome != Blocked {
			t.Fatalf("read: %v %v", dec, err)
		}
		if err := s.WithdrawInto(&eff, tb); err != nil {
			t.Fatalf("withdraw: %v", err)
		}
		if err := s.AbortInto(&eff, tb); err != nil {
			t.Fatalf("abort b: %v", err)
		}
		if st, err := s.CommitInto(&eff, ta); err != nil || st != Committed {
			t.Fatalf("commit a: %v %v", st, err)
		}
		s.Forget(ta)
		s.Forget(tb)
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(500, cycle); avg != 0 {
		t.Fatalf("withdraw cycle allocates %.2f times per pair, want 0", avg)
	}
}

// TestRecoverablePathIntoZeroAllocs asserts that the recoverable path
// driven through the *Into verbs — commit-dependency edges, a cycle
// check, pseudo-commit and cascade, with the Effects appended into a
// reused buffer — performs zero allocations.
func TestRecoverablePathIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := NewScheduler(Options{})
	if err := s.Register(1, adt.Stack{}, compat.StackTable()); err != nil {
		t.Fatal(err)
	}
	push := func(v int) adt.Op { return adt.Op{Name: adt.StackPush, Arg: v, HasArg: true} }
	var eff Effects
	var id TxnID
	pair := func() {
		ta, tb := id+1, id+2
		id += 2
		if err := s.Begin(ta); err != nil {
			t.Fatal(err)
		}
		if err := s.Begin(tb); err != nil {
			t.Fatal(err)
		}
		if dec, err := s.RequestInto(&eff, ta, 1, push(1)); err != nil || dec.Outcome != Executed {
			t.Fatalf("request: %v %v", dec, err)
		}
		if dec, err := s.RequestInto(&eff, tb, 1, push(2)); err != nil || dec.Outcome != Executed {
			t.Fatalf("request: %v %v", dec, err)
		}
		if st, err := s.CommitInto(&eff, tb); err != nil || st != PseudoCommitted {
			t.Fatalf("commit b: %v %v", st, err)
		}
		if st, err := s.CommitInto(&eff, ta); err != nil || st != Committed {
			t.Fatalf("commit a: %v %v", st, err)
		}
		if len(eff.Committed) != 1 || eff.Committed[0] != tb {
			t.Fatalf("cascade = %+v", eff.Committed)
		}
		s.Forget(ta)
		s.Forget(tb)
	}
	for i := 0; i < 200; i++ {
		pair()
	}
	if avg := testing.AllocsPerRun(500, pair); avg != 0 {
		t.Fatalf("recoverable Into pair allocates %.2f times, want 0", avg)
	}
}

// TestDBBlockedPathBoundedAllocs pins the DB-level blocked path: a
// real goroutine parks on a conflicting Do and is granted by the
// holder's commit. With the park channels pooled in the delivery hub
// (receiver-side recycling), the cycle's only steady-state allocations
// are the per-transaction fixtures Begin cannot avoid — two Handle
// records and their two Done channels — so the bound is 4. Before the
// pool, every park added a fifth (the one-shot buffered channel).
func TestDBBlockedPathBoundedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	db := NewDB(Options{})
	if err := db.Register(1, adt.Page{}, compat.PageTable()); err != nil {
		t.Fatal(err)
	}
	write := func(v int) adt.Op { return adt.Op{Name: adt.PageWrite, Arg: v, HasArg: true} }
	read := adt.Op{Name: adt.PageRead}

	// A long-lived worker drives the blocked side, so the measured
	// closure never spawns goroutines or builds channels of its own.
	reqCh := make(chan Txn)
	resCh := make(chan error)
	go func() {
		for tb := range reqCh {
			_, err := tb.Do(1, read)
			resCh <- err
		}
	}()
	defer close(reqCh)

	i := 0
	cycle := func() {
		i++
		ta, tb := db.Begin(), db.Begin()
		if _, err := ta.Do(1, write(i)); err != nil {
			t.Fatal(err)
		}
		reqCh <- tb
		for db.Scheduler().TxnState(tb.ID()) != "blocked" {
			runtime.Gosched()
		}
		if _, err := ta.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := <-resCh; err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	const bound = 4.0
	if avg := testing.AllocsPerRun(500, cycle); avg > bound {
		t.Fatalf("DB blocked cycle allocates %.2f times, want <= %.0f (park channel must come from the pool)", avg, bound)
	}
}

// TestAbortPathZeroAllocs asserts the steady-state abort of a
// recoverable transaction under intentions lists allocates nothing: the
// victim's push sits above a survivor's, so the abort takes the stack
// back to its base in place and replays the surviving entry.
func TestAbortPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := NewScheduler(Options{})
	if err := s.Register(1, adt.Stack{}, compat.StackTable()); err != nil {
		t.Fatal(err)
	}
	push := func(v int) adt.Op { return adt.Op{Name: adt.StackPush, Arg: v, HasArg: true} }
	var eff Effects
	var id TxnID
	pair := func() {
		ta, tb := id+1, id+2
		id += 2
		if err := s.Begin(ta); err != nil {
			t.Fatal(err)
		}
		if err := s.Begin(tb); err != nil {
			t.Fatal(err)
		}
		if dec, err := s.RequestInto(&eff, ta, 1, push(1)); err != nil || dec.Outcome != Executed {
			t.Fatalf("request: %v %v", dec, err)
		}
		if dec, err := s.RequestInto(&eff, tb, 1, push(2)); err != nil || dec.Outcome != Executed {
			t.Fatalf("request: %v %v", dec, err)
		}
		if err := s.AbortInto(&eff, tb); err != nil {
			t.Fatalf("abort b: %v", err)
		}
		if st, err := s.CommitInto(&eff, ta); err != nil || st != Committed {
			t.Fatalf("commit a: %v %v", st, err)
		}
		s.Forget(ta)
		s.Forget(tb)
	}
	for i := 0; i < 200; i++ {
		pair()
	}
	if avg := testing.AllocsPerRun(500, pair); avg != 0 {
		t.Fatalf("recoverable abort cycle allocates %.2f times, want 0", avg)
	}
}

// TestAbortCostIndependentOfCommittedSize pins the complexity contract
// of both §4.4 strategies: an abort costs what the transaction did, not
// what the object holds. Aborting a one-operation transaction on a
// large committed state must stay within 8x of the same abort on one
// 2^6 to 2^8 times smaller (a rollback that copies or scans the
// committed state is off by that whole factor).
func TestAbortCostIndependentOfCommittedSize(t *testing.T) {
	if raceEnabled {
		t.Skip("timing pin; race instrumentation distorts it")
	}
	stackOf := func(n int) adt.State { return adt.NewStackState(make([]int, n)...) }
	tableOf := func(n int) adt.State {
		kv := make([]int, 0, 2*n)
		for k := 0; k < n; k++ {
			kv = append(kv, k, k)
		}
		return adt.NewKTableState(kv...)
	}
	cases := []struct {
		name         string
		typ          adt.Type
		class        compat.Classifier
		seed         func(n int) adt.State
		small, large int
		op           adt.Op
	}{
		{"stack", adt.Stack{}, compat.StackTable(), stackOf, 1 << 10, 1 << 18,
			adt.Op{Name: adt.StackPush, Arg: 1, HasArg: true}},
		{"table", adt.KTable{}, compat.KTableTable(), tableOf, 1 << 10, 1 << 16,
			adt.Op{Name: adt.TableModify, Arg: 7, HasArg: true, Aux: 1, HasAux: true}},
	}
	for _, c := range cases {
		for _, rec := range []Recovery{RecoveryIntentions, RecoveryUndo} {
			t.Run(c.name+"/"+rec.String(), func(t *testing.T) {
				abortCost := func(size int) time.Duration {
					s := NewScheduler(Options{Recovery: rec})
					if err := s.RegisterSeeded(1, c.typ, c.class, c.seed(size)); err != nil {
						t.Fatal(err)
					}
					var eff Effects
					var id TxnID
					best := time.Duration(math.MaxInt64)
					for batch := 0; batch < 5; batch++ {
						start := time.Now()
						for i := 0; i < 200; i++ {
							id++
							if err := s.Begin(id); err != nil {
								t.Fatal(err)
							}
							if dec, err := s.RequestInto(&eff, id, 1, c.op); err != nil || dec.Outcome != Executed {
								t.Fatalf("request: %v %v", dec, err)
							}
							if err := s.AbortInto(&eff, id); err != nil {
								t.Fatal(err)
							}
							s.Forget(id)
						}
						best = min(best, time.Since(start))
					}
					return best
				}
				small, large := abortCost(c.small), abortCost(c.large)
				if large > 8*small {
					t.Fatalf("abort at %d elements took %v per 200, at %d elements %v: %.0fx, want < 8x",
						c.large, large, c.small, small, float64(large)/float64(small))
				}
			})
		}
	}
}

// TestRegisterSharedTableAllocs: objects registered with one table
// share its compiled form — registering the 2nd..Nth compiles nothing
// and allocates only the object and its states.
func TestRegisterSharedTableAllocs(t *testing.T) {
	table := compat.PageTable()
	s := NewScheduler(Options{})
	for id := ObjectID(1); id <= 64; id++ {
		if err := s.Register(id, adt.Page{}, table); err != nil {
			t.Fatal(err)
		}
	}
	for id, o := range s.store.objects {
		if o.comp != table.Compile() {
			t.Fatalf("object %d holds its own compiled table", id)
		}
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	// The object, its materialised state and its committed state.
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := newObject(1, adt.Page{}, table, RecoveryIntentions, PredRecoverability); err != nil {
			t.Fatal(err)
		}
	}); avg > 3 {
		t.Fatalf("registering on an already-compiled table allocates %.0f times, want <= 3", avg)
	}
}
