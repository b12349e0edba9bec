package depgraph

import (
	"reflect"
	"testing"
)

func edge(from, to TxnID, k EdgeKind) Edge { return Edge{From: from, To: to, Kind: k} }

// TestMirrorCrossSiteCycle: the defining scenario — site 1 sees only
// B->A, site 2 sees only A->B; neither is cyclic alone, the union is.
func TestMirrorCrossSiteCycle(t *testing.T) {
	m := New()
	m.Observe(1, 2, []Edge{edge(2, 1, CommitDep)}) // site 1: B(2) -> A(1)
	if m.HasCycleFrom(2) {
		t.Fatal("single-site edge must not be a cycle")
	}
	m.Observe(2, 1, []Edge{edge(1, 2, CommitDep)}) // site 2: A(1) -> B(2)
	if !m.HasCycleFrom(1) {
		t.Fatal("union cycle not detected")
	}
}

// TestMirrorObserveReplaces: a fresh report for the same (site, txn)
// replaces the old edges rather than accumulating them.
func TestMirrorObserveReplaces(t *testing.T) {
	m := New()
	m.Observe(0, 1, []Edge{edge(1, 2, WaitFor), edge(1, 3, CommitDep)})
	if d := m.OutDegree(1); d != 2 {
		t.Fatalf("out-degree = %d, want 2", d)
	}
	m.Observe(0, 1, []Edge{edge(1, 3, CommitDep)})
	if d := m.OutDegree(1); d != 1 {
		t.Fatalf("after replace out-degree = %d, want 1", d)
	}
	m.Observe(0, 1, nil)
	if d := m.OutDegree(1); d != 0 {
		t.Fatalf("after clear out-degree = %d, want 0", d)
	}
}

// TestMirrorSiteScoped: clearing one site's contribution leaves
// another site's copy of the same logical edge intact.
func TestMirrorSiteScoped(t *testing.T) {
	m := New()
	m.Observe(0, 1, []Edge{edge(1, 2, CommitDep)})
	m.Observe(1, 1, []Edge{edge(1, 2, WaitFor)})
	if d := m.OutDegree(1); d != 1 {
		t.Fatalf("distinct targets = %d, want 1 (same target via two sites)", d)
	}
	m.Observe(0, 1, nil) // site 0 withdraws
	if d := m.OutDegree(1); d != 1 {
		t.Fatalf("after site-0 withdrawal = %d, want 1 (site 1 still reports)", d)
	}
	m.Observe(1, 1, nil)
	if d := m.OutDegree(1); d != 0 {
		t.Fatalf("after both withdraw = %d, want 0", d)
	}
}

// TestMirrorRemoveTxn: removal strips edges in both directions and
// returns the dependants whose out-degree may have drained.
func TestMirrorRemoveTxn(t *testing.T) {
	m := New()
	m.Observe(0, 2, []Edge{edge(2, 1, CommitDep)})
	m.Observe(1, 3, []Edge{edge(3, 1, WaitFor)})
	m.Observe(1, 1, []Edge{edge(1, 4, CommitDep)})

	deps := m.RemoveTxn(1)
	if want := []TxnID{2, 3}; !reflect.DeepEqual(deps, want) {
		t.Fatalf("dependants = %v, want %v", deps, want)
	}
	for _, id := range []TxnID{1, 2, 3} {
		if d := m.OutDegree(id); d != 0 {
			t.Fatalf("T%d out-degree = %d after removal", id, d)
		}
	}
	if deps := m.RemoveTxn(99); len(deps) != 0 {
		t.Fatalf("removing unknown txn returned %v", deps)
	}
}

// TestMirrorEdges: the union snapshot dedups per pair with CommitDep
// dominating.
func TestMirrorEdges(t *testing.T) {
	m := New()
	m.Observe(0, 1, []Edge{edge(1, 2, WaitFor)})
	m.Observe(1, 1, []Edge{edge(1, 2, CommitDep)})
	m.Observe(0, 2, []Edge{edge(2, 3, WaitFor)})
	got := m.Edges()
	want := []Edge{edge(1, 2, CommitDep), edge(2, 3, WaitFor)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
}

// TestMirrorIgnoresForeignAndSelfEdges: Observe drops edges whose
// source is not the reported transaction, and self-edges.
func TestMirrorIgnoresForeignAndSelfEdges(t *testing.T) {
	m := New()
	m.Observe(0, 1, []Edge{edge(2, 3, CommitDep), edge(1, 1, CommitDep)})
	if d := m.OutDegree(1) + m.OutDegree(2); d != 0 {
		t.Fatalf("foreign/self edges ingested: %v", m.Edges())
	}
}

// TestMirrorDropSite: the crash-stop purge removes exactly one site's
// contribution — edges another site also reported survive, and the
// structure stays consistent for removal and cycle detection.
func TestMirrorDropSite(t *testing.T) {
	m := New()
	m.Observe(0, 1, []Edge{edge(1, 2, WaitFor), edge(1, 3, CommitDep)})
	m.Observe(1, 1, []Edge{edge(1, 2, CommitDep)}) // second site confirms 1->2
	m.Observe(1, 4, []Edge{edge(4, 1, WaitFor)})

	m.DropSite(0)
	if got := m.OutDegree(1); got != 1 {
		t.Fatalf("out-degree after drop = %d, want 1 (site 1's 1->2 survives)", got)
	}
	if got := m.Edges(); !reflect.DeepEqual(got, []Edge{edge(1, 2, CommitDep), edge(4, 1, WaitFor)}) {
		t.Fatalf("edges after drop = %v", got)
	}
	// The dropped site's edge to 3 is gone: removing 3 reports no
	// dependants.
	if deps := m.RemoveTxn(3); len(deps) != 0 {
		t.Fatalf("phantom dependants %v after DropSite", deps)
	}
	// Dropping the remaining site empties the mirror.
	m.DropSite(1)
	if got := m.Edges(); len(got) != 0 {
		t.Fatalf("edges after dropping every site = %v", got)
	}
	if m.HasCycleFrom(1) {
		t.Fatal("empty mirror reports a cycle")
	}
}

// TestMirrorLongestChain: the hold-policy depth oracle. Leaves count
// 1, chains count their length, a diamond counts its longest side, and
// the memo survives neither RemoveTxn nor a new Observe (each call
// re-walks under a fresh epoch).
func TestMirrorLongestChain(t *testing.T) {
	m := New()
	if d := m.LongestChainFrom(9); d != 0 {
		t.Fatalf("unknown txn depth = %d, want 0", d)
	}
	// Chain 4 -> 3 -> 2 -> 1.
	m.Observe(0, 2, []Edge{edge(2, 1, CommitDep)})
	m.Observe(0, 3, []Edge{edge(3, 2, CommitDep)})
	m.Observe(1, 4, []Edge{edge(4, 3, CommitDep)})
	if d := m.LongestChainFrom(1); d != 1 {
		t.Fatalf("leaf depth = %d, want 1", d)
	}
	if d := m.LongestChainFrom(4); d != 4 {
		t.Fatalf("chain head depth = %d, want 4", d)
	}
	if d := m.LongestChainFrom(3); d != 3 {
		t.Fatalf("mid-chain depth = %d, want 3", d)
	}
	// A diamond 5 -> {4, 2}: the long side through 4 wins.
	m.Observe(1, 5, []Edge{edge(5, 4, CommitDep), edge(5, 2, CommitDep)})
	if d := m.LongestChainFrom(5); d != 5 {
		t.Fatalf("diamond depth = %d, want 5 (longest side)", d)
	}
	// Releasing the chain's base shortens every path through it.
	m.RemoveTxn(1)
	m.Observe(0, 2, nil) // 2's report drains with its dependency
	if d := m.LongestChainFrom(4); d != 3 {
		t.Fatalf("depth after base release = %d, want 3", d)
	}
	if d := m.LongestChainFrom(5); d != 4 {
		t.Fatalf("diamond depth after base release = %d, want 4", d)
	}
}
