package wire

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
)

// TestSiteAnswersInIDOrder: a site with several live transactions
// answers an adoption listing and its edge report in ascending id
// order, so the same state answers the same bytes every time, and the
// ordering costs the answer no allocation.
func TestSiteAnswersInIDOrder(t *testing.T) {
	sched := core.NewScheduler(core.Options{})
	if err := sched.Register(1, adt.Stack{}, compat.StackTable()); err != nil {
		t.Fatal(err)
	}
	s := &SiteServer{}
	ss := &servedSite{backend: sched, txns: make(map[core.TxnID]struct{})}
	begun := []core.TxnID{7, 3, 11, 5, 9, 1, 13, 2}
	for _, id := range begun {
		// Distinct pushes are recoverable: each executes with a commit
		// dependency on every earlier one, so the report carries edges.
		push := adt.Op{Name: adt.StackPush, Arg: int(id), HasArg: true}
		if st, out := s.serve(ss, kRequest, appendRequest(nil, id, true, 1, push)); st != kOK {
			t.Fatalf("request of T%d: %v", id, (&reader{b: out}).errResp())
		}
	}
	want := slices.Clone(begun)
	slices.Sort(want)

	st, first := s.serve(ss, kAdopt, nil)
	if st != kOK {
		t.Fatalf("adopt: %v", (&reader{b: first}).errResp())
	}
	for i := 0; i < 3; i++ {
		if _, again := s.serve(ss, kAdopt, nil); !bytes.Equal(again, first) {
			t.Fatalf("answer %d differs from the first:\n%x\n%x", i+2, again, first)
		}
	}
	r := &reader{b: first}
	var listed []core.TxnID
	for n := r.count(9); n > 0; n-- {
		listed = append(listed, core.TxnID(r.u64()))
		if kind := r.u8(); kind != adoptActive {
			t.Fatalf("T%d listed as %d, want active", listed[len(listed)-1], kind)
		}
	}
	var reported []core.TxnID
	edges := 0
	for _, set := range r.edgeSets() {
		reported = append(reported, set.txn)
		edges += len(set.edges)
	}
	if r.err != nil || len(r.b) != 0 {
		t.Fatalf("decode: %v, %d bytes left", r.err, len(r.b))
	}
	if !slices.Equal(listed, want) || !slices.Equal(reported, want) {
		t.Fatalf("listed %v, reported %v, want %v", listed, reported, want)
	}
	if edges == 0 {
		t.Fatal("the report carries no edges")
	}

	buf := ss.report(nil)
	if allocs := testing.AllocsPerRun(100, func() { buf = ss.report(buf[:0]) }); allocs != 0 {
		t.Errorf("a report into a large enough buffer allocates %.0f times, want 0", allocs)
	}
}
