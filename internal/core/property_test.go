package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/history"
)

// propConfig shapes one randomized protocol run.
type propConfig struct {
	seed      int64
	objects   int
	steps     int
	maxActive int
	predicate core.Predicate
	recovery  core.Recovery
	unfair    bool
	stateDep  bool
}

// runRandomProtocol drives the scheduler with a random client mix and
// returns everything needed to verify the run.
func runRandomProtocol(t *testing.T, cfg propConfig) (*history.Recorder, *core.Scheduler, map[core.ObjectID]adt.Type, map[core.ObjectID]compat.Classifier) {
	t.Helper()
	rng := rand.New(rand.NewSource(cfg.seed))
	rec := history.NewRecorder()
	s := core.NewScheduler(core.Options{
		Predicate:      cfg.predicate,
		Recovery:       cfg.recovery,
		Unfair:         cfg.unfair,
		StateDependent: cfg.stateDep,
		Debug:          true,
		Recorder:       rec,
	})

	types := map[core.ObjectID]adt.Type{}
	classes := map[core.ObjectID]compat.Classifier{}
	kinds := []struct {
		typ adt.Type
		tab *compat.Table
	}{
		{adt.Page{}, compat.PageTable()},
		{adt.Stack{}, compat.StackTable()},
		{adt.Set{}, compat.SetTable()},
		{adt.KTable{}, compat.KTableTable()},
	}
	for i := 0; i < cfg.objects; i++ {
		k := kinds[rng.Intn(len(kinds))]
		id := core.ObjectID(i + 1)
		types[id] = k.typ
		classes[id] = k.tab
		if err := s.Register(id, k.typ, k.tab); err != nil {
			t.Fatal(err)
		}
	}

	randomOp := func(typ adt.Type) adt.Op {
		specs := typ.Specs()
		sp := specs[rng.Intn(len(specs))]
		return sp.Invoke(1+rng.Intn(3), 1+rng.Intn(3))
	}

	type client struct {
		id      core.TxnID
		blocked bool
	}
	var nextID core.TxnID
	active := map[core.TxnID]*client{}
	// eff is the one Effects buffer every scheduler call appends into;
	// applyEffects resolves its grants and retry-aborts for blocked
	// clients and forgets cascaded commits.
	var eff core.Effects
	applyEffects := func(eff core.Effects) {
		for _, g := range eff.Grants {
			if c, ok := active[g.Txn]; ok {
				c.blocked = false
			}
		}
		for _, a := range eff.RetryAborts {
			delete(active, a.Txn)
		}
		for _, id := range eff.Committed {
			delete(active, id)
		}
	}

	for step := 0; step < cfg.steps; step++ {
		// Maybe start a new transaction.
		if len(active) < cfg.maxActive && (len(active) == 0 || rng.Intn(3) == 0) {
			nextID++
			if err := s.Begin(nextID); err != nil {
				t.Fatal(err)
			}
			active[nextID] = &client{id: nextID}
			continue
		}
		// Pick a random runnable client (deterministic order).
		var runnable []*client
		for _, c := range active {
			if !c.blocked {
				runnable = append(runnable, c)
			}
		}
		if len(runnable) == 0 {
			// Everyone is blocked: abort one to break the wait
			// (the simulator would do this via timeouts; here any
			// victim works).
			var any *client
			for _, c := range active {
				if any == nil || c.id < any.id {
					any = c
				}
			}
			if err := s.AbortInto(&eff, any.id); err != nil {
				t.Fatal(err)
			}
			delete(active, any.id)
			applyEffects(eff)
			continue
		}
		// Deterministic pick.
		min := runnable[0]
		for _, c := range runnable {
			if c.id < min.id {
				min = c
			}
		}
		c := min
		switch rng.Intn(10) {
		case 0: // commit
			st, err := s.CommitInto(&eff, c.id)
			if err != nil {
				t.Fatal(err)
			}
			if st == core.Committed {
				delete(active, c.id)
			} else {
				delete(active, c.id) // pseudo: client is done issuing ops
			}
			applyEffects(eff)
		case 1: // user abort
			if err := s.AbortInto(&eff, c.id); err != nil {
				t.Fatal(err)
			}
			delete(active, c.id)
			applyEffects(eff)
		default: // operation
			obj := core.ObjectID(1 + rng.Intn(cfg.objects))
			dec, err := s.RequestInto(&eff, c.id, obj, randomOp(types[obj]))
			if err != nil {
				t.Fatal(err)
			}
			switch dec.Outcome {
			case core.Blocked:
				c.blocked = true
			case core.Aborted:
				delete(active, c.id)
			}
			applyEffects(eff)
		}
	}

	// Drain: first commit every runnable client, then abort any still
	// blocked, until none remain.
	for len(active) > 0 {
		var pick *client
		for _, c := range active {
			if !c.blocked && (pick == nil || c.id < pick.id) {
				pick = c
			}
		}
		if pick != nil {
			if _, err := s.CommitInto(&eff, pick.id); err != nil {
				t.Fatal(err)
			}
			delete(active, pick.id)
			applyEffects(eff)
			continue
		}
		for _, c := range active {
			if pick == nil || c.id < pick.id {
				pick = c
			}
		}
		if err := s.AbortInto(&eff, pick.id); err != nil {
			t.Fatal(err)
		}
		delete(active, pick.id)
		applyEffects(eff)
	}
	return rec, s, types, classes
}

// verifyRun applies every correctness check from DESIGN.md to a
// recorded run.
func verifyRun(t *testing.T, rec *history.Recorder, s *core.Scheduler, types map[core.ObjectID]adt.Type, classes map[core.ObjectID]compat.Classifier, pred core.Predicate) {
	t.Helper()
	if err := rec.PseudoCommitPrecedesCommit(); err != nil {
		t.Error(err)
	}
	events := rec.Events()
	aborted := rec.AbortedTxns()
	if err := history.CheckSoundness(types, events, aborted); err != nil {
		t.Error(err)
	}
	want := map[core.ObjectID]adt.State{}
	for oid := range types {
		st, err := s.CommittedState(oid)
		if err != nil {
			t.Fatal(err)
		}
		want[oid] = st
	}
	if err := history.CheckSerializability(types, events, rec.Commits(), want); err != nil {
		t.Error(err)
	}
	classify := func(obj core.ObjectID, requested, executed adt.Op) bool {
		cl := classes[obj]
		if pred == core.PredCommutativity {
			return compat.CommutativityOnly{C: cl}.Classify(requested, executed) != compat.Commutes
		}
		return cl.Classify(requested, executed) == compat.Recoverable
	}
	if err := history.CommitOrderRespectsDependencies(events, rec.Commits(), classify); err != nil {
		t.Error(err)
	}
}

// TestRandomProtocolRuns is the main property test: many random
// schedules across both predicates, both recovery strategies and both
// scheduling policies; every accepted history must be sound,
// serializable in commit order, and honour the pseudo-commit contract.
func TestRandomProtocolRuns(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, pred := range []core.Predicate{core.PredRecoverability, core.PredCommutativity} {
		for _, recv := range []core.Recovery{core.RecoveryIntentions, core.RecoveryUndo} {
			for _, unfair := range []bool{false, true} {
				for _, seed := range seeds {
					name := fmt.Sprintf("%s/%s/unfair=%v/seed=%d", pred, recv, unfair, seed)
					t.Run(name, func(t *testing.T) {
						cfg := propConfig{
							seed:      seed,
							objects:   6,
							steps:     600,
							maxActive: 8,
							predicate: pred,
							recovery:  recv,
							unfair:    unfair,
						}
						rec, s, types, classes := runRandomProtocol(t, cfg)
						verifyRun(t, rec, s, types, classes, pred)
					})
				}
			}
		}
	}
}

// TestStateDependentRunsStaySoundAndSerializable runs the randomized
// protocol suite with the §3.2 state-dependent refinement enabled: the
// extra concurrency it admits must not cost soundness or
// serializability. Serializability is checked against an order derived
// from the execution's own constraints, because state-recoverable
// admissions are not captured by the static tables.
func TestStateDependentRunsStaySoundAndSerializable(t *testing.T) {
	for seed := int64(50); seed < 58; seed++ {
		cfg := propConfig{
			seed:      seed,
			objects:   5,
			steps:     500,
			maxActive: 6,
			stateDep:  true,
		}
		rec, s, types, classes := runRandomProtocol(t, cfg)
		if err := rec.PseudoCommitPrecedesCommit(); err != nil {
			t.Error(err)
		}
		events := rec.Events()
		if err := history.CheckSoundness(types, events, rec.AbortedTxns()); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		order, err := history.SerializationOrder(events, rec.Commits(),
			func(obj core.ObjectID, later, earlier adt.Op) bool {
				return classes[obj].Classify(later, earlier) != compat.Commutes
			})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := map[core.ObjectID]adt.State{}
		for oid := range types {
			st, err := s.CommittedState(oid)
			if err != nil {
				t.Fatal(err)
			}
			want[oid] = st
		}
		if err := history.CheckSerializability(types, events, order, want); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestRecoveryStrategiesAgree replays identical random schedules under
// both recovery strategies and verifies identical histories and final
// states (§4.4: the protocol is recovery-scheme agnostic).
func TestRecoveryStrategiesAgree(t *testing.T) {
	for seed := int64(10); seed < 18; seed++ {
		cfg := propConfig{seed: seed, objects: 5, steps: 500, maxActive: 6}
		cfg.recovery = core.RecoveryIntentions
		recA, sA, typesA, _ := runRandomProtocol(t, cfg)
		cfg.recovery = core.RecoveryUndo
		recB, sB, _, _ := runRandomProtocol(t, cfg)

		evA, evB := recA.Events(), recB.Events()
		if len(evA) != len(evB) {
			t.Fatalf("seed %d: %d vs %d events", seed, len(evA), len(evB))
		}
		for i := range evA {
			if evA[i] != evB[i] {
				t.Fatalf("seed %d: event %d differs: %+v vs %+v", seed, i, evA[i], evB[i])
			}
		}
		for oid := range typesA {
			a, _ := sA.CommittedState(oid)
			b, _ := sB.CommittedState(oid)
			if !a.Equal(b) {
				t.Fatalf("seed %d object %d: %v vs %v", seed, oid, a, b)
			}
		}
	}
}

// TestRecoverabilityNeverBlocksMoreThanCommutativity: on identical
// schedules the recoverability predicate can only block less (it is a
// strictly weaker conflict predicate).
func TestRecoverabilityNeverBlocksMoreThanCommutativity(t *testing.T) {
	for seed := int64(30); seed < 36; seed++ {
		cfg := propConfig{seed: seed, objects: 5, steps: 400, maxActive: 6}
		cfg.predicate = core.PredRecoverability
		recR, _, _, _ := runRandomProtocol(t, cfg)
		cfg.predicate = core.PredCommutativity
		recC, _, _, _ := runRandomProtocol(t, cfg)
		// The schedules diverge once decisions differ, so an exact
		// per-step comparison is not meaningful, but aggregate
		// blocking with the weaker predicate should not exceed the
		// baseline on the same seed and client mix.
		if recR.Blocks() > recC.Blocks() {
			t.Errorf("seed %d: recoverability blocked %d times, commutativity %d",
				seed, recR.Blocks(), recC.Blocks())
		}
	}
}
