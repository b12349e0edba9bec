//go:build !race

package dist

import (
	"testing"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
)

// Coordinator hot-path allocation pins, matching the site-level pins
// from internal/core and internal/depgraph: the budgets are ceilings
// measured on the current implementation, so an accidental
// map-per-commit or slice-per-conversation regression fails loudly.
// (Race builds skip — instrumentation allocates.)

// TestEdgeFreeCommitAllocs pins the sharded fast path: a single-site
// Begin/Do/Commit round trip with no dependency edges. The budget
// covers the transaction handle, its done channel, the visited-sites
// slice and the request's argument boxing — and nothing per-commit in
// the coordinator, whose only involvement is one registry-shard
// insert and delete.
func TestEdgeFreeCommitAllocs(t *testing.T) {
	c, err := New(2, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register(1, adt.Page{}, compat.PageTable()); err != nil {
		t.Fatal(err)
	}
	op := adt.Op{Name: adt.PageWrite, Arg: 7, HasArg: true}
	round := func() {
		tx := c.Begin()
		if _, err := tx.Do(1, op); err != nil {
			t.Fatal(err)
		}
		if st, err := tx.Commit(); err != nil || st != core.Committed {
			t.Fatalf("commit = %v %v", st, err)
		}
	}
	round()
	const budget = 4.0
	if avg := testing.AllocsPerRun(200, round); avg > budget {
		t.Fatalf("edge-free round trip allocates %.2f times, budget %.0f", avg, budget)
	}
}

// TestConversationCommitAllocs pins the coordinated path: a writer
// commits over a one-edge commit dependency, is held, and is released
// when the transaction it depends on commits. The budget covers both
// handles, the hold exports, the pipeline request and the release
// cascade; the mirror itself is pinned to zero in internal/depgraph.
func TestConversationCommitAllocs(t *testing.T) {
	c, err := New(2, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register(1, adt.Stack{}, compat.StackTable()); err != nil {
		t.Fatal(err)
	}
	push1 := adt.Op{Name: adt.StackPush, Arg: 1, HasArg: true}
	push2 := adt.Op{Name: adt.StackPush, Arg: 2, HasArg: true}
	round := func() {
		t1, t2 := c.Begin(), c.Begin()
		if _, err := t1.Do(1, push1); err != nil {
			t.Fatal(err)
		}
		// Distinct pushes do not commute but are recoverable: T2
		// executes at once with a commit dependency on T1.
		if _, err := t2.Do(1, push2); err != nil {
			t.Fatal(err)
		}
		if st, err := t2.Commit(); err != nil || st != core.PseudoCommitted {
			t.Fatalf("T2 commit = %v %v", st, err)
		}
		if st, err := t1.Commit(); err != nil || st != core.Committed {
			t.Fatalf("T1 commit = %v %v", st, err)
		}
		<-t2.Done()
		if err := t2.Err(); err != nil {
			t.Fatal(err)
		}
	}
	round()
	const budget = 12.0
	if avg := testing.AllocsPerRun(200, round); avg > budget {
		t.Fatalf("one-edge hold/release conversation allocates %.2f times, budget %.0f", avg, budget)
	}
}
