package compat

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/adt"
)

// TestCompileMemoInvalidatedBySet: Compile is memoised on the table, a
// SetComm/SetRec drops the memo, and a Compiled handed out before the
// mutation keeps the relation it was compiled with.
func TestCompileMemoInvalidatedBySet(t *testing.T) {
	tab := StackTable()
	pop, push := adt.Op{Name: adt.StackPop}, adt.Op{Name: adt.StackPush, Arg: 1, HasArg: true}

	before := tab.Compile()
	if tab.Compile() != before {
		t.Fatal("second Compile of an unchanged table built a new Compiled")
	}
	if got := before.Classify(pop, push); got != Conflict {
		t.Fatalf("paper table: pop after push = %v, want conflict", got)
	}

	tab.SetRec(adt.StackPop, adt.StackPush, Yes)
	after := tab.Compile()
	if after == before {
		t.Fatal("Compile after SetRec served the stale Compiled")
	}
	if got := after.Classify(pop, push); got != Recoverable {
		t.Fatalf("after SetRec: pop after push = %v, want recoverable", got)
	}
	if got := before.Classify(pop, push); got != Conflict {
		t.Fatalf("snapshot taken before SetRec changed to %v", got)
	}
	checkEquivalence(t, "stack after SetRec", tab, after, opInstances(adt.Stack{}))

	tab.SetComm(adt.StackPop, adt.StackPush, Yes)
	if got := tab.Compile().Classify(pop, push); got != Commutes {
		t.Fatalf("after SetComm: pop after push = %v, want commutes", got)
	}

	// Concurrent first compiles publish one shared form.
	fresh := KTableTable()
	got := make([]*Compiled, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = CompileClassifier(fresh)
		}(i)
	}
	wg.Wait()
	for i, c := range got {
		if c == nil || c != got[0] {
			t.Fatalf("goroutine %d compiled %p, goroutine 0 %p", i, c, got[0])
		}
	}
}

// TestCompileMemoIgnoresDirectGridWrite pins the documented limit of the
// memo: only SetComm/SetRec drop it, so a write to the exported grids
// after a Compile is not seen until one of them runs. Tables are filled
// directly only before their first Compile (derive.go).
func TestCompileMemoIgnoresDirectGridWrite(t *testing.T) {
	tab := StackTable()
	pop, push := adt.Op{Name: adt.StackPop}, adt.Op{Name: adt.StackPush, Arg: 1, HasArg: true}
	i, j := tab.Index(adt.StackPop), tab.Index(adt.StackPush)

	before := tab.Compile()
	tab.Rec[i][j] = Yes
	if tab.Compile() != before {
		t.Fatal("a direct grid write dropped the memo; the Table doc says it does not")
	}
	if got := tab.Classify(pop, push); got != Recoverable {
		t.Fatalf("source table after direct write: %v, want recoverable", got)
	}
	tab.SetRec(adt.StackPop, adt.StackPush, Yes) // the supported way
	if got := tab.Compile().Classify(pop, push); got != Recoverable {
		t.Fatalf("after SetRec: %v, want recoverable", got)
	}
}

// TestInternerScanMatchesMap checks the interner's scan against a
// reference map, over every table's universe and synthetic universes
// larger than any in the tree.
func TestInternerScanMatchesMap(t *testing.T) {
	synthetic := func(n int) []string {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("synthetic-%d", i)
		}
		return names
	}
	universes := [][]string{
		PageTable().Ops, StackTable().Ops, SetTable().Ops, KTableTable().Ops,
		{adt.AbstractOpName(0), adt.AbstractOpName(1), adt.AbstractOpName(2), adt.AbstractOpName(3)},
		{"dup", "other", "dup"},
		synthetic(8), synthetic(9), synthetic(32),
	}
	for _, names := range universes {
		in := adt.NewInterner(names)
		want := make(map[string]adt.OpID)
		for _, n := range names {
			if _, ok := want[n]; !ok {
				want[n] = adt.OpID(len(want))
			}
		}
		if in.Len() != len(want) {
			t.Fatalf("%v: Len = %d, want %d", names, in.Len(), len(want))
		}
		for n, id := range want {
			// A fresh copy of the bytes: equal content must match
			// without sharing the constant's pointer.
			if got := in.ID(string([]byte(n))); got != id || in.Name(got) != n {
				t.Errorf("%v: ID(%q) = %d, want %d", names, n, got, id)
			}
		}
		for _, unknown := range []string{"", "bogus-op", names[0] + "x", names[0][:len(names[0])-1]} {
			if _, ok := want[unknown]; ok {
				continue
			}
			if got := in.ID(unknown); got != adt.NoOpID {
				t.Errorf("%v: ID(%q) = %d, want NoOpID", names, unknown, got)
			}
		}
	}
	// The generated table's compiled universe is the abstract names.
	comp := MustGenerate(rand.New(rand.NewSource(3)), 4, 4, 4).Compile()
	for i := 0; i < 4; i++ {
		if got := comp.OpID(adt.AbstractOpName(i)); got != adt.OpID(i) {
			t.Errorf("generated: OpID(op%d) = %d", i, got)
		}
	}
	if got := comp.OpID("op4"); got != adt.NoOpID {
		t.Errorf("generated: OpID(op4) = %d, want NoOpID", got)
	}
}
