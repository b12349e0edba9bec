package adt

import (
	"fmt"
	"sort"
	"strings"
)

// KTable is the Table type of §3.2.4: unique (key, item) pairs with
// Insert, Delete, Lookup, Size and Modify.
//
//   - Insert(key, item) adds the pair; Failure if the key is present.
//   - Delete(key) removes the pair; Failure if the key is absent.
//   - Lookup(key) returns the item, or not_found.
//   - Size() returns the number of entries.
//   - Modify(key, item) replaces the item; Failure if the key is absent.
//
// (Named KTable to avoid colliding with the compatibility-table types in
// the compat package; the object's paper name is simply "Table".)
type KTable struct{}

// KTable operation names.
const (
	TableInsert = "insert"
	TableDelete = "delete"
	TableLookup = "lookup"
	TableSize   = "size"
	TableModify = "modify"
)

// KTableState is the state of a KTable.
type KTableState struct {
	m map[int]int
}

// NewKTableState returns a table holding the given pairs. Pairs
// alternate key, item.
func NewKTableState(kv ...int) *KTableState {
	if len(kv)%2 != 0 {
		panic("adt: NewKTableState needs key/item pairs")
	}
	s := &KTableState{m: make(map[int]int, len(kv)/2)}
	for i := 0; i < len(kv); i += 2 {
		s.m[kv[i]] = kv[i+1]
	}
	return s
}

// Get returns the item bound to key.
func (s *KTableState) Get(key int) (int, bool) { v, ok := s.m[key]; return v, ok }

// Len returns the number of entries.
func (s *KTableState) Len() int { return len(s.m) }

// Keys returns the keys in ascending order.
func (s *KTableState) Keys() []int {
	out := make([]int, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Clone implements State.
func (s *KTableState) Clone() State {
	c := &KTableState{m: make(map[int]int, len(s.m))}
	for k, v := range s.m {
		c.m[k] = v
	}
	return c
}

// Equal implements State.
func (s *KTableState) Equal(o State) bool {
	q, ok := o.(*KTableState)
	if !ok || len(s.m) != len(q.m) {
		return false
	}
	for k, v := range s.m {
		if qv, ok := q.m[k]; !ok || qv != v {
			return false
		}
	}
	return true
}

// String implements State.
func (s *KTableState) String() string {
	parts := make([]string, 0, len(s.m))
	for _, k := range s.Keys() {
		parts = append(parts, fmt.Sprintf("%d:%d", k, s.m[k]))
	}
	return "table{" + strings.Join(parts, " ") + "}"
}

// Name implements Type.
func (KTable) Name() string { return "table" }

// New implements Type.
func (KTable) New() State { return NewKTableState() }

// Specs implements Type.
func (KTable) Specs() []OpSpec {
	return []OpSpec{
		{Name: TableInsert, HasArg: true, HasAux: true},
		{Name: TableDelete, HasArg: true},
		{Name: TableLookup, HasArg: true, ReadOnly: true},
		{Name: TableSize, ReadOnly: true},
		{Name: TableModify, HasArg: true, HasAux: true},
	}
}

// Apply implements Type. Implemented directly (not via ApplyU) so the
// no-undo paths never allocate a discarded undo record.
func (t KTable) Apply(s State, op Op) (Ret, error) {
	ts, ok := s.(*KTableState)
	if !ok {
		return Ret{}, badOp(t, op)
	}
	switch op.Name {
	case TableInsert:
		if !op.HasArg || !op.HasAux {
			return Ret{}, badOp(t, op)
		}
		if _, exists := ts.m[op.Arg]; exists {
			return Ret{Code: Fail}, nil
		}
		ts.m[op.Arg] = op.Aux
		return RetOK, nil
	case TableDelete:
		if !op.HasArg {
			return Ret{}, badOp(t, op)
		}
		if _, exists := ts.m[op.Arg]; exists {
			delete(ts.m, op.Arg)
			return RetOK, nil
		}
		return Ret{Code: Fail}, nil
	case TableLookup:
		if !op.HasArg {
			return Ret{}, badOp(t, op)
		}
		if item, exists := ts.m[op.Arg]; exists {
			return Ret{Code: Value, Val: item}, nil
		}
		return Ret{Code: NotFound}, nil
	case TableSize:
		return Ret{Code: Count, Val: len(ts.m)}, nil
	case TableModify:
		if !op.HasArg || !op.HasAux {
			return Ret{}, badOp(t, op)
		}
		if _, exists := ts.m[op.Arg]; exists {
			ts.m[op.Arg] = op.Aux
			return RetOK, nil
		}
		return Ret{Code: Fail}, nil
	}
	return Ret{}, badOp(t, op)
}

// RestoreFrom implements Restorer: only the keys ops name can differ
// from base, so only their bindings are restored.
func (s *KTableState) RestoreFrom(base State, ops []Op) bool {
	q, ok := base.(*KTableState)
	if !ok {
		return false
	}
	for i := range ops {
		op := &ops[i]
		if op.Name == TableLookup || op.Name == TableSize {
			continue
		}
		if item, bound := q.m[op.Arg]; bound {
			s.m[op.Arg] = item
		} else {
			delete(s.m, op.Arg)
		}
	}
	return true
}

// tableInsRec remembers whether an insert succeeded (undo removes the
// key) — a failed insert changed nothing.
type tableInsRec struct {
	added bool
}

// tableDelRec remembers the removed pair for re-insertion on undo.
type tableDelRec struct {
	removed bool
	item    int
}

// tableModRec remembers a modify's before-image. Like page writes,
// modifies of the same key are mutually recoverable, so undoing an
// earlier modify must re-point the before-image of a later uncommitted
// modify of the same key rather than clobbering its effect.
type tableModRec struct {
	ok     bool
	before int
}

// ApplyU implements Undoer.
func (t KTable) ApplyU(s State, op Op) (Ret, UndoRec, error) {
	ts, ok := s.(*KTableState)
	if !ok {
		return Ret{}, nil, badOp(t, op)
	}
	switch op.Name {
	case TableInsert:
		if !op.HasArg || !op.HasAux {
			return Ret{}, nil, badOp(t, op)
		}
		if _, exists := ts.m[op.Arg]; exists {
			return Ret{Code: Fail}, &tableInsRec{}, nil
		}
		ts.m[op.Arg] = op.Aux
		return RetOK, &tableInsRec{added: true}, nil
	case TableDelete:
		if !op.HasArg {
			return Ret{}, nil, badOp(t, op)
		}
		if item, exists := ts.m[op.Arg]; exists {
			delete(ts.m, op.Arg)
			return RetOK, &tableDelRec{removed: true, item: item}, nil
		}
		return Ret{Code: Fail}, &tableDelRec{}, nil
	case TableLookup:
		if !op.HasArg {
			return Ret{}, nil, badOp(t, op)
		}
		if item, exists := ts.m[op.Arg]; exists {
			return Ret{Code: Value, Val: item}, nil, nil
		}
		return Ret{Code: NotFound}, nil, nil
	case TableSize:
		return Ret{Code: Count, Val: len(ts.m)}, nil, nil
	case TableModify:
		if !op.HasArg || !op.HasAux {
			return Ret{}, nil, badOp(t, op)
		}
		if before, exists := ts.m[op.Arg]; exists {
			ts.m[op.Arg] = op.Aux
			return RetOK, &tableModRec{ok: true, before: before}, nil
		}
		return Ret{Code: Fail}, &tableModRec{}, nil
	}
	return Ret{}, nil, badOp(t, op)
}

// Undo implements Undoer.
func (t KTable) Undo(s State, op Op, rec UndoRec, later []UndoEntry) error {
	ts, ok := s.(*KTableState)
	if !ok {
		return badOp(t, op)
	}
	switch op.Name {
	case TableLookup, TableSize:
		return nil
	case TableInsert:
		if rec.(*tableInsRec).added {
			delete(ts.m, op.Arg)
		}
		return nil
	case TableDelete:
		if dr := rec.(*tableDelRec); dr.removed {
			ts.m[op.Arg] = dr.item
		}
		return nil
	case TableModify:
		mr := rec.(*tableModRec)
		if !mr.ok {
			return nil
		}
		for _, e := range later {
			if e.Op.Name == TableModify && e.Op.Arg == op.Arg {
				if lr := e.Rec.(*tableModRec); lr.ok {
					lr.before = mr.before
					return nil
				}
			}
		}
		ts.m[op.Arg] = mr.before
		return nil
	}
	return badOp(t, op)
}

// EnumStates implements Enumerable: every partial map {1,2} -> {1,2}.
func (KTable) EnumStates() []State {
	items := []int{0, 1, 2} // 0 means absent
	var out []State
	for _, i1 := range items {
		for _, i2 := range items {
			s := NewKTableState()
			if i1 != 0 {
				s.m[1] = i1
			}
			if i2 != 0 {
				s.m[2] = i2
			}
			out = append(out, s)
		}
	}
	return out
}

// EnumArgs implements Enumerable. Args are keys; Aux items are drawn
// from the same sample by the derivation engine.
func (KTable) EnumArgs() []int { return []int{1, 2} }
