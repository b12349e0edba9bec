package depgraph

import (
	"reflect"
	"testing"
)

// TestRemoveTxnReusesScratch checks RemoveTxn's dependant list is
// graph-owned scratch: sorted, and backed by the same array on the
// next removal.
func TestRemoveTxnReusesScratch(t *testing.T) {
	g := New()
	g.AddEdge(3, 1, CommitDep)
	g.AddEdge(2, 1, WaitFor)
	g.AddEdge(1, 4, WaitFor)
	g.AddEdge(5, 4, WaitFor)

	first := g.RemoveTxn(1)
	if !reflect.DeepEqual(first, []TxnID{2, 3}) {
		t.Fatalf("RemoveTxn dependants = %v, want [2 3]", first)
	}
	second := g.RemoveTxn(4)
	if !reflect.DeepEqual(second, []TxnID{5}) {
		t.Fatalf("RemoveTxn dependants = %v, want [5]", second)
	}
	if &first[0] != &second[0] {
		t.Fatal("RemoveTxn did not reuse its scratch")
	}
	if got := g.RemoveTxn(99); len(got) != 0 {
		t.Fatalf("RemoveTxn(missing) = %v, want empty", got)
	}
}

// TestOutEdgesAppendReusesBuffer checks the export is sorted by target
// and appends into the provided buffer.
func TestOutEdgesAppendReusesBuffer(t *testing.T) {
	g := New()
	g.AddEdge(1, 3, WaitFor)
	g.AddEdge(1, 2, CommitDep)

	buf := make([]Edge, 0, 8)
	got := g.OutEdgesAppend(1, buf)
	if !reflect.DeepEqual(got, []Edge{{1, 2, CommitDep}, {1, 3, WaitFor}}) {
		t.Fatalf("OutEdgesAppend = %v", got)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("OutEdgesAppend did not use the provided buffer")
	}

	if got := g.OutEdgesAppend(42, buf); len(got) != 0 {
		t.Fatalf("OutEdgesAppend(missing) = %v, want empty", got)
	}
}

// TestNodePoolReuse checks a freed node's record is recycled intact:
// edges added after reuse behave like a fresh node's.
func TestNodePoolReuse(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, WaitFor)
	g.AddEdge(4, 2, WaitFor)
	g.RemoveTxn(1)             // frees node 1's record
	g.AddEdge(3, 2, CommitDep) // reuses it
	if d := g.OutDegree(3); d != 1 {
		t.Fatalf("reused node out-degree = %d, want 1", d)
	}
	if g.HasCycleFrom(3) {
		t.Fatal("reused node reported a phantom cycle")
	}
	g.AddEdge(2, 3, WaitFor)
	if !g.HasCycleFrom(2) {
		t.Fatal("cycle through reused node not detected")
	}
}
