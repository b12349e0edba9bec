package main

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/workload"
)

// fakeStore is a core.Store whose transactions follow a script, so the
// driver's bookkeeping can be tested on outcomes the real stores only
// produce under a hold policy or a crash. Only Begin is ever called on
// it (the embedded nil Store would panic on anything else).
type fakeStore struct {
	core.Store
	mu    sync.Mutex
	begun int
	// script decides transaction n's behaviour (n counts Begins from 0).
	script func(n int) fakeTxn
}

func (s *fakeStore) Begin() core.Txn {
	s.mu.Lock()
	n := s.begun
	s.begun++
	s.mu.Unlock()
	t := s.script(n)
	t.done = make(chan struct{})
	return &t
}

type fakeTxn struct {
	core.Txn
	doErr     error             // returned by every Do
	status    core.CommitStatus // returned by Commit
	landAfter time.Duration     // pseudo-commits: Done closes this long after Commit; negative: never
	landErr   error             // pseudo-commits: what Err reports once Done closed
	done      chan struct{}
}

func (t *fakeTxn) Do(core.ObjectID, adt.Op) (adt.Ret, error) { return adt.RetOK, t.doErr }
func (t *fakeTxn) Abort() error                              { return nil }
func (t *fakeTxn) Done() <-chan struct{}                     { return t.done }
func (t *fakeTxn) Err() error                                { return t.landErr }
func (t *fakeTxn) Commit() (core.CommitStatus, error) {
	switch {
	case t.status != core.PseudoCommitted:
		close(t.done)
	case t.landAfter >= 0:
		time.AfterFunc(t.landAfter, func() { close(t.done) })
	}
	return t.status, nil
}

func samples(slices *[numSlices][]int64) int {
	n := 0
	for _, s := range slices {
		n += len(s)
	}
	return n
}

func fakeLoad(st core.Store, clients int) *loadResult {
	return runLoad(st, loadConfig{
		gen: workload.Pushes{DBSize: 8}, clients: clients, seed: 1,
		window: 60 * time.Millisecond, drain: 150 * time.Millisecond,
		countPushes: true,
	})
}

func TestDirectCommitsAreCounted(t *testing.T) {
	st := &fakeStore{script: func(int) fakeTxn { return fakeTxn{status: core.Committed} }}
	res := fakeLoad(st, 2)
	if err := checkPromises(res); err != nil {
		t.Fatal(err)
	}
	if res.attempted == 0 || res.committed != res.attempted || res.pseudo != 0 {
		t.Fatalf("attempted=%d committed=%d pseudo=%d", res.attempted, res.committed, res.pseudo)
	}
	if samples(&res.txnLat) != int(res.attempted) || samples(&res.realLat) != int(res.attempted) {
		t.Fatalf("latency samples %d/%d for %d transactions", samples(&res.txnLat), samples(&res.realLat), res.attempted)
	}
	var pushes int64
	for _, n := range res.pushes {
		pushes += n
	}
	if pushes < 4*int64(res.committed) || pushes > 12*int64(res.committed) {
		t.Errorf("counted %d pushes for %d transactions of 4..12 steps", pushes, res.committed)
	}
	if res.elapsed < 60*time.Millisecond {
		t.Errorf("elapsed %s is shorter than the window", res.elapsed)
	}
}

func TestHonouredPromiseStopsTheClockLate(t *testing.T) {
	st := &fakeStore{script: func(int) fakeTxn {
		return fakeTxn{status: core.PseudoCommitted, landAfter: 30 * time.Millisecond}
	}}
	res := fakeLoad(st, 1)
	if err := checkPromises(res); err != nil {
		t.Fatal(err)
	}
	if res.pseudo != res.attempted || res.committed != res.attempted {
		t.Fatalf("attempted=%d pseudo=%d committed=%d", res.attempted, res.pseudo, res.committed)
	}
	// The last promise is made just before the window closes and lands
	// 30 ms later: the clock must have waited for it.
	if res.elapsed < 80*time.Millisecond {
		t.Errorf("elapsed %s: the clock stopped before the last promise was honoured", res.elapsed)
	}
	if p50real, p50txn := slicePercentile(&res.realLat, 50), slicePercentile(&res.txnLat, 50); p50real < p50txn+float64(25*time.Millisecond) {
		t.Errorf("real latency p50 %g ns should trail txn latency p50 %g ns by the hold", p50real, p50txn)
	}
}

func TestUnhonouredPromiseFailsTheGate(t *testing.T) {
	st := &fakeStore{script: func(n int) fakeTxn {
		if n == 3 {
			return fakeTxn{status: core.PseudoCommitted, landAfter: -1} // never lands
		}
		return fakeTxn{status: core.Committed}
	}}
	res := fakeLoad(st, 1)
	if res.unhonoured != 1 {
		t.Fatalf("unhonoured = %d, want 1", res.unhonoured)
	}
	err := checkPromises(res)
	if err == nil || !strings.Contains(err.Error(), "not honoured") {
		t.Fatalf("gate passed an unhonoured promise: %v", err)
	}
}

func TestRevokedPromiseIsRerunWithItsClockRunning(t *testing.T) {
	shed := &core.ErrAborted{Reason: core.ReasonShed}
	st := &fakeStore{script: func(n int) fakeTxn {
		if n%5 == 0 { // promised, then taken back 5 ms later
			return fakeTxn{status: core.PseudoCommitted, landAfter: 5 * time.Millisecond, landErr: shed}
		}
		return fakeTxn{status: core.Committed}
	}}
	res := fakeLoad(st, 1)
	if err := checkPromises(res); err != nil {
		t.Fatal(err)
	}
	if res.revoked == 0 || res.revoked != res.pseudo {
		t.Fatalf("revoked=%d pseudo=%d: every promise should have been revoked", res.revoked, res.pseudo)
	}
	if res.committed != res.attempted {
		t.Fatalf("committed=%d attempted=%d", res.committed, res.attempted)
	}
	if n := samples(&res.txnLat); n != int(res.attempted) {
		t.Errorf("%d txn latencies for %d transactions: a re-run must not record a second one", n, res.attempted)
	}
	var slowest int64
	for _, s := range res.realLat {
		if len(s) > 0 {
			slowest = max(slowest, s[len(s)-1])
		}
	}
	if slowest < int64(5*time.Millisecond) {
		t.Errorf("slowest real latency %d ns does not include a revoked promise's wait", slowest)
	}
}

func TestRetryableAbortRestarts(t *testing.T) {
	deadlock := &core.ErrAborted{Reason: core.ReasonDeadlock}
	st := &fakeStore{script: func(n int) fakeTxn {
		if n%3 == 0 {
			return fakeTxn{doErr: deadlock}
		}
		return fakeTxn{status: core.Committed}
	}}
	res := fakeLoad(st, 2)
	if err := checkPromises(res); err != nil {
		t.Fatal(err)
	}
	if res.restarts == 0 {
		t.Fatal("no restart was counted")
	}
}

func TestFatalErrorFailsTheTransaction(t *testing.T) {
	boom := errors.New("boom")
	st := &fakeStore{script: func(n int) fakeTxn {
		if n == 2 {
			return fakeTxn{doErr: boom}
		}
		return fakeTxn{status: core.Committed}
	}}
	res := fakeLoad(st, 1)
	if res.failed != 1 || !errors.Is(res.firstErr, boom) {
		t.Fatalf("failed=%d firstErr=%v", res.failed, res.firstErr)
	}
	if err := checkPromises(res); err == nil {
		t.Fatal("gate passed a failed transaction")
	}
}

func TestConservationCatchesALostPush(t *testing.T) {
	want := []int64{0, 3, 0, 7, 2}
	depth := func(lost core.ObjectID) func(core.ObjectID) (int, bool, error) {
		return func(obj core.ObjectID) (int, bool, error) {
			if want[obj] == 0 {
				return 0, true, nil // never created
			}
			n := int(want[obj])
			if obj == lost {
				n--
			}
			return n, false, nil
		}
	}
	if err := checkConservation(want, depth(0)); err != nil {
		t.Fatalf("intact store: %v", err)
	}
	err := checkConservation(want, depth(3))
	if err == nil || !strings.Contains(err.Error(), "object 3") {
		t.Fatalf("lost push on object 3 not caught: %v", err)
	}
	// A push the store has but no committed transaction made is as wrong.
	extra := func(obj core.ObjectID) (int, bool, error) { return int(want[obj]) + 1, false, nil }
	if err := checkConservation(want, extra); err == nil {
		t.Fatal("extra push not caught")
	}
}
