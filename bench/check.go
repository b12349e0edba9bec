package main

import (
	"fmt"
	"time"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/history"
)

// checkPromises is the first gate: every logical transaction begun was
// carried to a real commit — no promise is still pending, none failed.
func checkPromises(r *loadResult) error {
	if r.unhonoured > 0 {
		return fmt.Errorf("%d promises were not honoured before the drain deadline", r.unhonoured)
	}
	if r.firstErr != nil {
		return fmt.Errorf("transaction failed: %w", r.firstErr)
	}
	if r.failed > 0 {
		return fmt.Errorf("%d transactions failed", r.failed)
	}
	if r.totalCommit != r.totalBegun {
		return fmt.Errorf("%d transactions begun but %d committed", r.totalBegun, r.totalCommit)
	}
	return nil
}

// checkQuiescent verifies a cluster has nothing in flight once every
// client has drained: no held transaction, no open decision, and every
// decision logged or adopted has been resolved. Release acks trail the
// client's view of the commit, so the condition is polled for a while.
func checkQuiescent(c *dist.Cluster, wait time.Duration) error {
	tel := c.Telemetry()
	deadline := time.Now().Add(wait)
	for {
		held, live := tel.Held.Load(), tel.LiveDecisions.Load()
		logged := tel.DecisionsLogged.Load() + tel.DecisionsAdopted.Load()
		resolved := tel.DecisionsResolved.Load()
		if held == 0 && live == 0 && logged == resolved {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster not quiescent: held=%d live decisions=%d logged+adopted=%d resolved=%d",
				held, live, logged, resolved)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkConservation verifies that each object's committed stack depth
// equals the pushes of the logical transactions that committed:
// want[obj] is the driver's count, depth reads the store.
func checkConservation(want []int64, depth func(core.ObjectID) (int, bool, error)) error {
	for obj := 1; obj < len(want); obj++ {
		n, unknown, err := depth(core.ObjectID(obj))
		if err != nil {
			return fmt.Errorf("object %d: %w", obj, err)
		}
		if unknown {
			n = 0
		}
		if int64(n) != want[obj] {
			return fmt.Errorf("conservation: object %d holds %d committed pushes, committed transactions made %d", obj, n, want[obj])
		}
	}
	return nil
}

// verifiedPassTxns is the size of db-mix's untimed checked pass.
const verifiedPassTxns = 2000

// verifyDBMix runs the db-mix traffic once more, untimed, on a store
// that records its history, and checks the paper's guarantees on it:
// soundness, serializability in commit order, and commit order
// respecting dependencies.
func verifyDBMix(w workloadSpec, seed int64) error {
	rec := history.NewRecorder()
	db := core.NewDB(core.Options{Recorder: rec})
	factory := w.gen.Factory()
	db.SetFactory(factory)
	// The same driver as the timed windows, bounded by count, not clock.
	res := runLoad(db, loadConfig{
		gen: w.gen, clients: w.clients, seed: seed,
		window: time.Hour, drain: 30 * time.Second,
		maxTxns: uint64(verifiedPassTxns / w.clients),
	})
	if err := checkPromises(res); err != nil {
		return err
	}
	types := make(map[core.ObjectID]adt.Type)
	classes := make(map[core.ObjectID]compat.Classifier)
	want := make(map[core.ObjectID]adt.State)
	for id := core.ObjectID(1); id <= core.ObjectID(w.gen.Size()); id++ {
		types[id], classes[id] = factory(id)
		if st, err := db.Scheduler().CommittedState(id); err == nil {
			want[id] = st
		}
	}
	if err := rec.PseudoCommitPrecedesCommit(); err != nil {
		return err
	}
	events := rec.Events()
	if err := history.CheckSoundness(types, events, rec.AbortedTxns()); err != nil {
		return err
	}
	if err := history.CheckSerializability(types, events, rec.Commits(), want); err != nil {
		return err
	}
	recoverable := func(obj core.ObjectID, requested, executed adt.Op) bool {
		return classes[obj].Classify(requested, executed) == compat.Recoverable
	}
	return history.CommitOrderRespectsDependencies(events, rec.Commits(), recoverable)
}
