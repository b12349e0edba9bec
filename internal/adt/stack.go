package adt

import (
	"fmt"
	"strings"
)

// Stack is the stack object of §3.2.2 with Push, Pop and Top. Push adds
// an element to the top and returns ok. Pop removes and returns the top
// element, or null if the stack is empty. Top returns the top element
// without removing it, or null if the stack is empty.
type Stack struct{}

// Stack operation names.
const (
	StackPush = "push"
	StackPop  = "pop"
	StackTop  = "top"
)

// stackCell is one element of a stack. Each pushed cell carries a unique
// token so semantic undo can remove exactly the cell a given push created
// even after later pushes have buried it (undo of a push "involves
// removing the pushed element from the stack", §4.4).
type stackCell struct {
	v   int
	tok uint64
}

// StackState is the state of a Stack; the last cell is the top.
type StackState struct {
	cells   []stackCell
	nextTok uint64
}

// NewStackState returns a stack holding the given values bottom-to-top.
func NewStackState(vals ...int) *StackState {
	s := &StackState{}
	for _, v := range vals {
		s.push(v)
	}
	return s
}

func (s *StackState) push(v int) uint64 {
	s.nextTok++
	s.cells = append(s.cells, stackCell{v: v, tok: s.nextTok})
	return s.nextTok
}

// Values returns the stack contents bottom-to-top.
func (s *StackState) Values() []int {
	out := make([]int, len(s.cells))
	for i, c := range s.cells {
		out[i] = c.v
	}
	return out
}

// Len returns the number of elements on the stack.
func (s *StackState) Len() int { return len(s.cells) }

// Clone implements State.
func (s *StackState) Clone() State {
	c := &StackState{cells: make([]stackCell, len(s.cells)), nextTok: s.nextTok}
	copy(c.cells, s.cells)
	return c
}

// Equal implements State. Equality compares values only, not undo
// tokens: two stacks with the same elements in the same order are the
// same abstract state.
func (s *StackState) Equal(o State) bool {
	q, ok := o.(*StackState)
	if !ok || len(s.cells) != len(q.cells) {
		return false
	}
	for i := range s.cells {
		if s.cells[i].v != q.cells[i].v {
			return false
		}
	}
	return true
}

// String implements State.
func (s *StackState) String() string {
	var b strings.Builder
	b.WriteString("stack[")
	for i, c := range s.cells {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", c.v)
	}
	b.WriteString("]")
	return b.String()
}

// Name implements Type.
func (Stack) Name() string { return "stack" }

// New implements Type.
func (Stack) New() State { return &StackState{} }

// Specs implements Type.
func (Stack) Specs() []OpSpec {
	return []OpSpec{
		{Name: StackPush, HasArg: true},
		{Name: StackPop},
		{Name: StackTop, ReadOnly: true},
	}
}

// Apply implements Type. Implemented directly (not via ApplyU) so the
// no-undo paths never allocate a discarded undo record.
func (t Stack) Apply(s State, op Op) (Ret, error) {
	ss, ok := s.(*StackState)
	if !ok {
		return Ret{}, badOp(t, op)
	}
	switch op.Name {
	case StackPush:
		if !op.HasArg {
			return Ret{}, badOp(t, op)
		}
		ss.push(op.Arg)
		return RetOK, nil
	case StackPop:
		if len(ss.cells) == 0 {
			return Ret{Code: Null}, nil
		}
		top := ss.cells[len(ss.cells)-1]
		ss.cells = ss.cells[:len(ss.cells)-1]
		return Ret{Code: Value, Val: top.v}, nil
	case StackTop:
		if len(ss.cells) == 0 {
			return Ret{Code: Null}, nil
		}
		return Ret{Code: Value, Val: ss.cells[len(ss.cells)-1].v}, nil
	}
	return Ret{}, badOp(t, op)
}

// RestoreFrom implements Restorer. With k pops in ops the stack never
// dipped more than k cells below base's height, so the bottom
// len(base)-k cells still agree with base; only the cells above them are
// rewritten. nextTok is not restored: undo tokens matter to undo-log
// recovery only, which never restores from a base.
func (s *StackState) RestoreFrom(base State, ops []Op) bool {
	q, ok := base.(*StackState)
	if !ok {
		return false
	}
	keep := len(q.cells)
	for i := range ops {
		if ops[i].Name == StackPop && keep > 0 {
			keep--
		}
	}
	s.cells = append(s.cells[:keep], q.cells[keep:]...)
	return true
}

// stackPushRec identifies the pushed cell by token.
type stackPushRec struct {
	tok uint64
}

// stackPopRec remembers the removed cell and its depth from the bottom,
// so undo can re-insert it beneath any cells pushed after the pop
// (push is recoverable relative to pop, so such cells may exist).
type stackPopRec struct {
	cell  stackCell
	depth int
	empty bool
}

// ApplyU implements Undoer.
func (t Stack) ApplyU(s State, op Op) (Ret, UndoRec, error) {
	ss, ok := s.(*StackState)
	if !ok {
		return Ret{}, nil, badOp(t, op)
	}
	switch op.Name {
	case StackPush:
		if !op.HasArg {
			return Ret{}, nil, badOp(t, op)
		}
		tok := ss.push(op.Arg)
		return RetOK, &stackPushRec{tok: tok}, nil
	case StackPop:
		if len(ss.cells) == 0 {
			return Ret{Code: Null}, &stackPopRec{empty: true}, nil
		}
		top := ss.cells[len(ss.cells)-1]
		rec := &stackPopRec{cell: top, depth: len(ss.cells) - 1}
		ss.cells = ss.cells[:len(ss.cells)-1]
		return Ret{Code: Value, Val: top.v}, rec, nil
	case StackTop:
		if len(ss.cells) == 0 {
			return Ret{Code: Null}, nil, nil
		}
		return Ret{Code: Value, Val: ss.cells[len(ss.cells)-1].v}, nil, nil
	}
	return Ret{}, nil, badOp(t, op)
}

// Undo implements Undoer.
func (t Stack) Undo(s State, op Op, rec UndoRec, later []UndoEntry) error {
	ss, ok := s.(*StackState)
	if !ok {
		return badOp(t, op)
	}
	switch op.Name {
	case StackTop:
		return nil
	case StackPush:
		// The cell sits within the uncommitted suffix, so search from the
		// top: undoing a push must not cost the committed depth.
		tok := rec.(*stackPushRec).tok
		for i := len(ss.cells) - 1; i >= 0; i-- {
			if ss.cells[i].tok == tok {
				ss.cells = append(ss.cells[:i], ss.cells[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("adt: stack undo: pushed cell %d not found", tok)
	case StackPop:
		pr := rec.(*stackPopRec)
		if pr.empty {
			return nil
		}
		if pr.depth > len(ss.cells) {
			return fmt.Errorf("adt: stack undo: pop depth %d beyond stack of %d", pr.depth, len(ss.cells))
		}
		ss.cells = append(ss.cells, stackCell{})
		copy(ss.cells[pr.depth+1:], ss.cells[pr.depth:])
		ss.cells[pr.depth] = pr.cell
		return nil
	}
	return badOp(t, op)
}

// EnumStates implements Enumerable: all stacks of depth ≤ 2 over {1, 2},
// plus one deeper stack. Stack semantics only inspect the top element,
// so this sample distinguishes every behaviourally distinct case.
func (Stack) EnumStates() []State {
	return []State{
		NewStackState(),
		NewStackState(1),
		NewStackState(2),
		NewStackState(1, 1),
		NewStackState(1, 2),
		NewStackState(2, 1),
		NewStackState(2, 2),
		NewStackState(1, 2, 1),
	}
}

// EnumArgs implements Enumerable.
func (Stack) EnumArgs() []int { return []int{1, 2} }
