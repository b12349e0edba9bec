package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/compat"
)

// opaqueClass hides a classifier's structure so CompileClassifier
// refuses it and the scheduler takes the interface fallback path.
type opaqueClass struct{ inner compat.Classifier }

func (o opaqueClass) Classify(req, exec adt.Op) compat.Rel { return o.inner.Classify(req, exec) }

// TestCompiledSchedulerEquivalence drives an identical random call
// script through two schedulers — one whose objects carry compiled
// table classifiers, one forced onto the uncompiled interface path —
// and requires bit-identical protocol behaviour: every Decision,
// Effects list, commit status, error, the final object states and the
// cumulative counters. Covers both predicates and the §3.2
// state-dependent refinement, so the compile-time composition is
// proven against the per-call original.
func TestCompiledSchedulerEquivalence(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"recoverability", Options{}},
		{"commutativity", Options{Predicate: PredCommutativity}},
		{"state-dependent", Options{StateDependent: true}},
		{"unfair", Options{Unfair: true}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				runMirroredScript(t, cfg.opts, seed)
			}
		})
	}
}

func runMirroredScript(t *testing.T, opts Options, seed int64) {
	t.Helper()
	fast := NewScheduler(opts)
	slow := NewScheduler(opts)

	types := []adt.Type{adt.Stack{}, adt.Set{}, adt.Page{}, adt.KTable{}}
	tables := []*compat.Table{
		compat.StackTable(), compat.SetTable(), compat.PageTable(), compat.KTableTable(),
	}
	const objects = 6
	for id := ObjectID(1); id <= objects; id++ {
		i := int(id) % len(types)
		if err := fast.Register(id, types[i], tables[i]); err != nil {
			t.Fatal(err)
		}
		if err := slow.Register(id, types[i], opaqueClass{tables[i]}); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	randOp := func(obj ObjectID) adt.Op {
		typ := types[int(obj)%len(types)]
		specs := typ.Specs()
		sp := specs[rng.Intn(len(specs))]
		return sp.Invoke(rng.Intn(3), rng.Intn(3))
	}

	const txns = 40
	for id := TxnID(1); id <= txns; id++ {
		ef, es := fast.Begin(id), slow.Begin(id)
		if fmt.Sprint(ef) != fmt.Sprint(es) {
			t.Fatalf("seed %d: Begin(%d) diverged: %v vs %v", seed, id, ef, es)
		}
	}
	for step := 0; step < 400; step++ {
		id := TxnID(1 + rng.Intn(txns))
		switch rng.Intn(10) {
		case 0: // commit
			stF, effF, errF := doCommit(fast, id)
			stS, effS, errS := doCommit(slow, id)
			if stF != stS || fmt.Sprint(effF) != fmt.Sprint(effS) || fmt.Sprint(errF) != fmt.Sprint(errS) {
				t.Fatalf("seed %d step %d: Commit(%d) diverged: (%v %v %v) vs (%v %v %v)",
					seed, step, id, stF, effF, errF, stS, effS, errS)
			}
		case 1: // abort
			effF, errF := doAbort(fast, id)
			effS, errS := doAbort(slow, id)
			if fmt.Sprint(effF) != fmt.Sprint(effS) || fmt.Sprint(errF) != fmt.Sprint(errS) {
				t.Fatalf("seed %d step %d: Abort(%d) diverged", seed, step, id)
			}
		default: // request
			obj := ObjectID(1 + rng.Intn(objects))
			op := randOp(obj)
			decF, effF, errF := doRequest(fast, id, obj, op)
			decS, effS, errS := doRequest(slow, id, obj, op)
			if fmt.Sprint(decF) != fmt.Sprint(decS) || fmt.Sprint(effF) != fmt.Sprint(effS) ||
				fmt.Sprint(errF) != fmt.Sprint(errS) {
				t.Fatalf("seed %d step %d: Request(%d, %d, %v) diverged: (%v %v %v) vs (%v %v %v)",
					seed, step, id, obj, op, decF, effF, errF, decS, effS, errS)
			}
		}
	}
	// Drain: abort every transaction that is still around, then compare
	// the end states.
	for id := TxnID(1); id <= txns; id++ {
		effF, errF := doAbort(fast, id)
		effS, errS := doAbort(slow, id)
		if fmt.Sprint(effF) != fmt.Sprint(effS) || fmt.Sprint(errF) != fmt.Sprint(errS) {
			t.Fatalf("seed %d: drain Abort(%d) diverged", seed, id)
		}
		// Pseudo-committed stragglers refuse Abort on both sides; their
		// dependencies were aborted above, so they have cascaded.
	}
	for id := ObjectID(1); id <= objects; id++ {
		sf, errF := fast.ObjectState(id)
		ss, errS := slow.ObjectState(id)
		if (errF == nil) != (errS == nil) {
			t.Fatalf("seed %d: ObjectState(%d) errors diverged: %v vs %v", seed, id, errF, errS)
		}
		if errF == nil && !sf.Equal(ss) {
			t.Fatalf("seed %d: object %d final state diverged: %v vs %v", seed, id, sf, ss)
		}
	}
	if f, s := fast.StatsSnapshot(), slow.StatsSnapshot(); f != s {
		t.Fatalf("seed %d: stats diverged:\nfast: %+v\nslow: %+v", seed, f, s)
	}
}
