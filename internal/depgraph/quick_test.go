package depgraph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// graphScript is a random sequence of graph mutations, generated for
// testing/quick.
type graphScript struct {
	steps []gstep
}

type gstep struct {
	kind byte // 0 add edge, 1 remove node, 2 remove wait edges
	a, b TxnID
	ek   EdgeKind
}

const quickNodes = 10

// Generate implements quick.Generator.
func (graphScript) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(size%80 + 20)
	steps := make([]gstep, n)
	for i := range steps {
		steps[i] = gstep{
			kind: byte(r.Intn(6)), // bias toward adds (kinds 0..3 add)
			a:    TxnID(r.Intn(quickNodes)),
			b:    TxnID(r.Intn(quickNodes)),
			ek:   EdgeKind(r.Intn(2)),
		}
		if steps[i].kind < 4 {
			steps[i].kind = 0
		} else {
			steps[i].kind -= 3 // 1 or 2
		}
	}
	return reflect.ValueOf(graphScript{steps: steps})
}

// runScript replays a script with the scheduler's discipline: after any
// edge addition that closes a cycle, the source node is removed (the
// requester is the victim).
func runScript(s graphScript) *Graph {
	g := New()
	for _, st := range s.steps {
		switch st.kind {
		case 0:
			g.AddEdge(st.a, st.b, st.ek)
			if g.HasCycleFrom(st.a) {
				g.RemoveTxn(st.a)
			}
		case 1:
			g.RemoveTxn(st.a)
		case 2:
			g.RemoveWaitEdges(st.a)
		}
	}
	return g
}

// TestQuickDisciplineKeepsAcyclic: under the scheduler's add-check-
// abort discipline the graph is acyclic after every script.
func TestQuickDisciplineKeepsAcyclic(t *testing.T) {
	f := func(s graphScript) bool {
		return runScript(s).Acyclic()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickNoDanglingEdges: in/out bookkeeping agree (removal via
// either endpoint works). Removing every transaction in ascending order
// reports each edge whose source is still present at its target, and
// leaves no edge behind.
func TestQuickNoDanglingEdges(t *testing.T) {
	f := func(s graphScript) bool {
		g := runScript(s)
		want := map[[2]TxnID]bool{}
		for n := TxnID(0); n < quickNodes; n++ {
			for _, e := range g.OutEdgesAppend(n, nil) {
				if e.From > e.To {
					want[[2]TxnID{e.From, e.To}] = true
				}
			}
		}
		got := map[[2]TxnID]bool{}
		for m := TxnID(0); m < quickNodes; m++ {
			for _, d := range g.RemoveTxn(m) {
				got[[2]TxnID{d, m}] = true
			}
		}
		return reflect.DeepEqual(got, want) && g.EdgeCount() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickOutDegreeMatchesEdges: OutDegree equals len(OutEdgesAppend) for
// every node after any script.
func TestQuickOutDegreeMatchesEdges(t *testing.T) {
	f := func(s graphScript) bool {
		g := runScript(s)
		for n := TxnID(0); n < quickNodes; n++ {
			if g.OutDegree(n) != len(g.OutEdgesAppend(n, nil)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickRemoveWaitKeepsCommitDeps: RemoveWaitEdges never deletes a
// commit dependency.
func TestQuickRemoveWaitKeepsCommitDeps(t *testing.T) {
	f := func(s graphScript, victim uint8) bool {
		g := runScript(s)
		v := TxnID(victim) % quickNodes
		var deps []Edge
		for _, e := range g.OutEdgesAppend(v, nil) {
			if e.Kind == CommitDep {
				deps = append(deps, e)
			}
		}
		g.RemoveWaitEdges(v)
		after := g.OutEdgesAppend(v, nil)
		if len(after) != len(deps) {
			return false
		}
		for i := range deps {
			if after[i] != deps[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickRemoveNodeReportsExactDependants: RemoveTxn returns exactly
// the nodes that had an edge into the removed node.
func TestQuickRemoveNodeReportsExactDependants(t *testing.T) {
	f := func(s graphScript, victim uint8) bool {
		g := runScript(s)
		v := TxnID(victim) % quickNodes
		want := make(map[TxnID]bool)
		for n := TxnID(0); n < quickNodes; n++ {
			if n == v {
				continue
			}
			for _, e := range g.OutEdgesAppend(n, nil) {
				if e.To == v {
					want[n] = true
				}
			}
		}
		got := g.RemoveTxn(v)
		if len(got) != len(want) {
			return false
		}
		for _, d := range got {
			if !want[d] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
