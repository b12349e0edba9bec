//go:build !race

package depgraph

import "testing"

// TestHasCycleFromZeroAllocs pins the epoch-based cycle detection:
// after the first traversal grows the graph-owned stack, repeated
// checks over a long dependency chain never touch the heap. (Race
// builds skip — instrumentation allocates.)
func TestHasCycleFromZeroAllocs(t *testing.T) {
	g := New()
	const n = 200
	// A dense "every writer depends on every earlier writer" shape,
	// like the cycle-detection benchmark.
	for i := TxnID(1); i <= n; i++ {
		for j := TxnID(1); j < i; j++ {
			g.AddEdge(i, j, CommitDep)
		}
	}
	if g.HasCycleFrom(n) {
		t.Fatal("acyclic graph reported a cycle")
	}
	if avg := testing.AllocsPerRun(200, func() {
		if g.HasCycleFrom(n) {
			t.Fatal("acyclic graph reported a cycle")
		}
	}); avg != 0 {
		t.Fatalf("HasCycleFrom allocates %.2f times per check, want 0", avg)
	}
}

// TestMirrorChurnZeroAllocs pins the coordinator's steady state:
// observe/cycle-check/remove churn over pooled nodes and the
// epoch-stamped DFS never touches the heap — including the removal of
// a transaction with two dependants, whose list is graph-owned scratch.
func TestMirrorChurnZeroAllocs(t *testing.T) {
	m := New()
	var next TxnID = 1
	cycle := func() {
		next += 3
		a, b, to := next, next+1, next+2
		m.Observe(0, a, []Edge{{From: a, To: to, Kind: CommitDep}})
		m.Observe(1, b, []Edge{{From: b, To: to, Kind: WaitFor}})
		if m.HasCycleFrom(a) {
			t.Fatal("phantom cycle")
		}
		// Removing the target frees both sources with their last edge.
		if deps := m.RemoveTxn(to); len(deps) != 2 || deps[0] != a || deps[1] != b {
			t.Fatalf("dependants of T%d = %v, want [%d %d]", to, deps, a, b)
		}
		if m.EdgeCount() != 0 {
			t.Fatalf("%d edges survive the churn", m.EdgeCount())
		}
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("mirror churn allocates %.2f times per cycle, want 0", avg)
	}
}

// TestNodeChurnZeroAllocs pins the node pool: a steady-state
// add/remove cycle reuses pooled nodes and scratch.
func TestNodeChurnZeroAllocs(t *testing.T) {
	g := New()
	var next TxnID = 1
	cycle := func() {
		next++
		g.AddEdge(next, next-1, WaitFor)
		g.RemoveTxn(next - 1)
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("node churn allocates %.2f times per cycle, want 0", avg)
	}
}
