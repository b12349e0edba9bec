package dist

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/fault"
)

// edgeCountingSite counts the out-edge reads Reconcile makes, one per
// redo or release it considers in a pass, and stops a reconcile that
// keeps passing.
type edgeCountingSite struct {
	*fault.Crashable
	reads int
}

func (s *edgeCountingSite) OutEdgesAppend(id core.TxnID, buf []depgraph.Edge) []depgraph.Edge {
	if s.reads++; s.reads > 8 {
		panic("Reconcile keeps passing over a hold whose out-edges cannot drain")
	}
	return s.Crashable.OutEdgesAppend(id, buf)
}

// heldOverOrphan builds a site where held T1 depends on active T2: T2
// pushed first and T1's push on the same stack is recoverable after it,
// so T1 pseudo-commits and holds with an out-edge to T2 — what a
// daemon shows when a lost connection swallowed T2's abort after the
// coordinator logged T1's commit.
func heldOverOrphan(t *testing.T) *edgeCountingSite {
	t.Helper()
	cr, err := fault.New(core.Options{}, fault.NewMemLog())
	if err != nil {
		t.Fatal(err)
	}
	if err := cr.Register(1, adt.Stack{}, compat.StackTable()); err != nil {
		t.Fatal(err)
	}
	var eff core.Effects
	for _, id := range []core.TxnID{2, 1} {
		if err := cr.Begin(id); err != nil {
			t.Fatal(err)
		}
		if dec, err := cr.RequestInto(&eff, id, 1, adt.Op{Name: adt.StackPush, Arg: int(id), HasArg: true}); err != nil || dec.Outcome != core.Executed {
			t.Fatalf("T%d push = %v %v", id, dec.Outcome, err)
		}
	}
	if deg, err := cr.CommitHoldInto(&eff, 1); err != nil || deg != 1 {
		t.Fatalf("T1 hold = %d %v, want out-degree 1", deg, err)
	}
	if got := cr.TxnState(1); got != "pseudo-committed" {
		t.Fatalf("T1 is %s, want pseudo-committed", got)
	}
	return &edgeCountingSite{Crashable: cr}
}

// TestReconcileDrainOrder: the reconcile runs its verbs in listing
// order except that a release waits until its out-edges drained, so
// logged hold T1, listed first, is released only after orphan T2's
// abort; with the orphan unlisted, one pass resolves nothing and the
// reconcile fails instead of looping.
func TestReconcileDrainOrder(t *testing.T) {
	logged := func(id core.TxnID) bool { return id == 1 }

	site := heldOverOrphan(t)
	var order []string
	rep, err := Reconcile(site, []Survivor{{Txn: 1, Held: true}, {Txn: 2}}, logged, func(id core.TxnID, verb ActKind, _ *core.Effects) {
		order = append(order, fmt.Sprintf("%v T%d", verb, id))
	})
	if err != nil {
		t.Fatalf("Reconcile = %v", err)
	}
	if want := []string{"abort T2", "release T1"}; !slices.Equal(order, want) {
		t.Errorf("verbs ran %v, want %v", order, want)
	}
	if !slices.Equal(rep.Redone, []core.TxnID{1}) || !slices.Equal(rep.Aborted, []core.TxnID{2}) || len(rep.PresumedAborted) != 0 {
		t.Errorf("report %+v, want Redone [1] and Aborted [2]", rep)
	}
	for _, id := range []core.TxnID{1, 2} {
		if got := site.TxnState(id); got == "active" || got == "pseudo-committed" {
			t.Errorf("T%d is still %s after the reconcile", id, got)
		}
	}

	site = heldOverOrphan(t)
	rep, err = Reconcile(site, []Survivor{{Txn: 1, Held: true}}, logged, func(id core.TxnID, verb ActKind, _ *core.Effects) {
		t.Errorf("%v T%d ran, but T1's out-edge to T2 cannot drain", verb, id)
	})
	if err == nil {
		t.Fatal("Reconcile of a hold whose orphan is unlisted succeeded")
	}
	if site.reads != 1 {
		t.Errorf("Reconcile read T1's out-edges %d times, want 1 (one pass, then fail)", site.reads)
	}
	if len(rep.Redone)+len(rep.Aborted)+len(rep.PresumedAborted) != 0 {
		t.Errorf("report %+v after a pass that resolved nothing", rep)
	}
	if got := site.TxnState(1); got != "pseudo-committed" {
		t.Errorf("T1 is %s after the refused reconcile, want still held", got)
	}
}
