package depgraph

import (
	"math/rand"
	"testing"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, CommitDep)
	if g.OutDegree(1) != 1 || g.OutDegree(2) != 0 {
		t.Errorf("out degrees: %d, %d", g.OutDegree(1), g.OutDegree(2))
	}
	g.AddEdge(1, 1, WaitFor)
	if g.OutDegree(1) != 1 {
		t.Error("self edges must be ignored")
	}
	edges := g.OutEdgesAppend(1, nil)
	if len(edges) != 1 || edges[0] != (Edge{From: 1, To: 2, Kind: CommitDep}) {
		t.Errorf("edges = %v", edges)
	}
	if edges[0].String() != "T1 -commit-dep-> T2" {
		t.Errorf("edge string = %q", edges[0].String())
	}
}

func TestCommitDepDominatesWaitFor(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, CommitDep)
	g.AddEdge(1, 2, WaitFor) // must not downgrade
	if g.OutEdgesAppend(1, nil)[0].Kind != CommitDep {
		t.Error("wait-for must not downgrade an existing commit-dep edge")
	}

	g2 := New()
	g2.AddEdge(1, 2, WaitFor)
	g2.AddEdge(1, 2, CommitDep) // must upgrade
	if g2.OutEdgesAppend(1, nil)[0].Kind != CommitDep {
		t.Error("commit-dep must upgrade an existing wait-for edge")
	}
}

func TestHasCycleFrom(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, CommitDep)
	g.AddEdge(2, 3, WaitFor)
	if g.HasCycleFrom(1) {
		t.Error("no cycle yet")
	}
	g.AddEdge(3, 1, CommitDep)
	if !g.HasCycleFrom(3) {
		t.Error("3 -> 1 -> 2 -> 3 is a cycle through 3")
	}
	if !g.HasCycleFrom(1) || !g.HasCycleFrom(2) {
		t.Error("every node on the cycle sees it")
	}
	if g.Acyclic() {
		t.Error("Acyclic should report the cycle")
	}
}

// TestMixedKindCycle reflects the paper's observation that "a cycle in
// the dependency graph may involve both commit-dependency and wait-for
// edges".
func TestMixedKindCycle(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, CommitDep)
	g.AddEdge(2, 1, WaitFor)
	if !g.HasCycleFrom(2) {
		t.Error("mixed-kind 2-cycle not detected")
	}
}

func TestRemoveNodeReturnsDependants(t *testing.T) {
	g := New()
	g.AddEdge(2, 1, CommitDep)
	g.AddEdge(3, 1, WaitFor)
	g.AddEdge(1, 4, CommitDep)
	deps := g.RemoveTxn(1)
	if len(deps) != 2 || deps[0] != 2 || deps[1] != 3 {
		t.Errorf("dependants = %v, want [2 3]", deps)
	}
	if g.EdgeCount() != 0 {
		t.Errorf("%d edges survive the removal", g.EdgeCount())
	}
	if g.OutDegree(2) != 0 || g.OutDegree(3) != 0 {
		t.Error("edges into removed node should be gone")
	}
	// 4's in-edge from 1 must be gone: removing 4 yields no dependants.
	if deps := g.RemoveTxn(4); len(deps) != 0 {
		t.Errorf("node 4 dependants = %v, want none", deps)
	}
	if deps := g.RemoveTxn(99); len(deps) != 0 {
		t.Errorf("removing a missing node = %v, want nil", deps)
	}
}

func TestRemoveWaitEdges(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, WaitFor)
	g.AddEdge(1, 3, CommitDep)
	g.RemoveWaitEdges(1)
	edges := g.OutEdgesAppend(1, nil)
	if len(edges) != 1 || edges[0].To != 3 || edges[0].Kind != CommitDep {
		t.Errorf("after RemoveWaitEdges: %v", edges)
	}
	g.RemoveWaitEdges(99) // no-op on missing node
}

func TestEdgeKindString(t *testing.T) {
	if WaitFor.String() != "wait-for" || CommitDep.String() != "commit-dep" {
		t.Error("EdgeKind strings wrong")
	}
}

// TestRandomizedAcyclicInvariant drives random additions through the
// scheduler's usage pattern (check-then-add from a single source; abort
// on cycle) and verifies the full-graph invariant the core relies on:
// if every HasCycleFrom check at insertion time is clean, the graph
// stays globally acyclic.
func TestRandomizedAcyclicInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		g := New()
		const n = 12
		for step := 0; step < 200; step++ {
			from := TxnID(rng.Intn(n))
			to := TxnID(rng.Intn(n))
			kind := EdgeKind(rng.Intn(2))
			// Tentatively add, then check from the source; roll
			// back if a cycle appears (mirrors abort-of-requester).
			g.AddEdge(from, to, kind)
			if g.HasCycleFrom(from) {
				g.RemoveTxn(from)
			}
			if rng.Intn(10) == 0 {
				g.RemoveTxn(TxnID(rng.Intn(n)))
			}
			if !g.Acyclic() {
				t.Fatalf("trial %d step %d: graph became cyclic", trial, step)
			}
		}
	}
}

// TestOutEdgesOfMissingNode covers the nil path.
func TestOutEdgesOfMissingNode(t *testing.T) {
	g := New()
	if g.OutEdgesAppend(7, nil) != nil {
		t.Error("missing node should have nil edges")
	}
	if g.OutDegree(7) != 0 {
		t.Error("missing node should have zero out-degree")
	}
	if g.HasCycleFrom(7) {
		t.Error("missing node cannot be on a cycle")
	}
}
