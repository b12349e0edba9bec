package adt

import (
	"sort"
	"strconv"
	"strings"
)

// Set is the set object of §3.2.3 with Insert, Delete and Member.
// Insert adds the element and returns ok (the paper's set insert always
// succeeds: "invoking insert(i) inserts the element i into the set and
// returns 'ok'"). Delete removes the element, returning Success if it
// was present and Failure otherwise. Member reports membership as
// yes/no.
type Set struct{}

// Set operation names.
const (
	SetInsert = "insert"
	SetDelete = "delete"
	SetMember = "member"
)

// SetState is the state of a Set.
type SetState struct {
	m map[int]bool
}

// NewSetState returns a set holding the given elements.
func NewSetState(vals ...int) *SetState {
	s := &SetState{m: make(map[int]bool, len(vals))}
	for _, v := range vals {
		s.m[v] = true
	}
	return s
}

// Contains reports membership.
func (s *SetState) Contains(v int) bool { return s.m[v] }

// Len returns the cardinality.
func (s *SetState) Len() int { return len(s.m) }

// Elements returns the members in ascending order.
func (s *SetState) Elements() []int {
	out := make([]int, 0, len(s.m))
	for v := range s.m {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Clone implements State.
func (s *SetState) Clone() State {
	c := &SetState{m: make(map[int]bool, len(s.m))}
	for v := range s.m {
		c.m[v] = true
	}
	return c
}

// Equal implements State.
func (s *SetState) Equal(o State) bool {
	q, ok := o.(*SetState)
	if !ok || len(s.m) != len(q.m) {
		return false
	}
	for v := range s.m {
		if !q.m[v] {
			return false
		}
	}
	return true
}

// String implements State.
func (s *SetState) String() string {
	parts := make([]string, 0, len(s.m))
	for _, v := range s.Elements() {
		parts = append(parts, strconv.Itoa(v))
	}
	return "set{" + strings.Join(parts, " ") + "}"
}

// Name implements Type.
func (Set) Name() string { return "set" }

// New implements Type.
func (Set) New() State { return NewSetState() }

// Specs implements Type.
func (Set) Specs() []OpSpec {
	return []OpSpec{
		{Name: SetInsert, HasArg: true},
		{Name: SetDelete, HasArg: true},
		{Name: SetMember, HasArg: true, ReadOnly: true},
	}
}

// Apply implements Type. Implemented directly (not via ApplyU) so the
// no-undo paths never allocate a discarded undo record.
func (t Set) Apply(s State, op Op) (Ret, error) {
	ss, ok := s.(*SetState)
	if !ok || !op.HasArg {
		return Ret{}, badOp(t, op)
	}
	switch op.Name {
	case SetInsert:
		ss.m[op.Arg] = true
		return RetOK, nil
	case SetDelete:
		if ss.m[op.Arg] {
			delete(ss.m, op.Arg)
			return RetOK, nil
		}
		return Ret{Code: Fail}, nil
	case SetMember:
		if ss.m[op.Arg] {
			return Ret{Code: Yes}, nil
		}
		return Ret{Code: No}, nil
	}
	return Ret{}, badOp(t, op)
}

// RestoreFrom implements Restorer: only the elements ops name can differ
// from base, so only their membership is restored.
func (s *SetState) RestoreFrom(base State, ops []Op) bool {
	q, ok := base.(*SetState)
	if !ok {
		return false
	}
	for i := range ops {
		op := &ops[i]
		if op.Name == SetMember {
			continue
		}
		if q.m[op.Arg] {
			s.m[op.Arg] = true
		} else {
			delete(s.m, op.Arg)
		}
	}
	return true
}

// setRec remembers whether an insert actually added / a delete actually
// removed its element, so undo restores exactly the prior membership.
type setRec struct {
	changed bool
}

// ApplyU implements Undoer.
func (t Set) ApplyU(s State, op Op) (Ret, UndoRec, error) {
	ss, ok := s.(*SetState)
	if !ok || !op.HasArg {
		return Ret{}, nil, badOp(t, op)
	}
	switch op.Name {
	case SetInsert:
		rec := &setRec{changed: !ss.m[op.Arg]}
		ss.m[op.Arg] = true
		return RetOK, rec, nil
	case SetDelete:
		if ss.m[op.Arg] {
			delete(ss.m, op.Arg)
			return RetOK, &setRec{changed: true}, nil
		}
		return Ret{Code: Fail}, &setRec{}, nil
	case SetMember:
		if ss.m[op.Arg] {
			return Ret{Code: Yes}, nil, nil
		}
		return Ret{Code: No}, nil, nil
	}
	return Ret{}, nil, badOp(t, op)
}

// Undo implements Undoer. The concurrency control protocol guarantees no
// uncommitted same-element insert/delete follows an uncommitted
// insert/delete (those pairs are Yes-DP, i.e. conflicts when the element
// matches), so a local membership flip is always correct.
func (t Set) Undo(s State, op Op, rec UndoRec, _ []UndoEntry) error {
	ss, ok := s.(*SetState)
	if !ok {
		return badOp(t, op)
	}
	switch op.Name {
	case SetMember:
		return nil
	case SetInsert:
		if rec.(*setRec).changed {
			delete(ss.m, op.Arg)
		}
		return nil
	case SetDelete:
		if rec.(*setRec).changed {
			ss.m[op.Arg] = true
		}
		return nil
	}
	return badOp(t, op)
}

// EnumStates implements Enumerable: every subset of {1, 2, 3}.
func (Set) EnumStates() []State {
	var out []State
	for mask := 0; mask < 8; mask++ {
		var vals []int
		for b := 0; b < 3; b++ {
			if mask&(1<<b) != 0 {
				vals = append(vals, b+1)
			}
		}
		out = append(out, NewSetState(vals...))
	}
	return out
}

// EnumArgs implements Enumerable.
func (Set) EnumArgs() []int { return []int{1, 2, 3} }
