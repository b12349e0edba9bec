package adt

import "strconv"

// Page is the read/write object of §3.2.1: a single storage cell with
// Read and Write operations. Read returns the page's value; Write
// replaces it and returns ok.
type Page struct{}

// Page operation names.
const (
	PageRead  = "read"
	PageWrite = "write"
)

// PageState is the state of a Page: its current value.
type PageState struct {
	V int
}

// Clone implements State.
func (p *PageState) Clone() State { c := *p; return &c }

// Equal implements State.
func (p *PageState) Equal(o State) bool {
	q, ok := o.(*PageState)
	return ok && p.V == q.V
}

// String implements State.
func (p *PageState) String() string { return "page{" + strconv.Itoa(p.V) + "}" }

// Name implements Type.
func (Page) Name() string { return "page" }

// New implements Type. A fresh page holds zero.
func (Page) New() State { return &PageState{} }

// Specs implements Type.
func (Page) Specs() []OpSpec {
	return []OpSpec{
		{Name: PageRead, ReadOnly: true},
		{Name: PageWrite, HasArg: true},
	}
}

// Apply implements Type. It is implemented directly rather than through
// ApplyU so the no-undo paths (intentions-list execution and replay, the
// derivation engine) never allocate a discarded undo record.
func (t Page) Apply(s State, op Op) (Ret, error) {
	ps, ok := s.(*PageState)
	if !ok {
		return Ret{}, badOp(t, op)
	}
	switch op.Name {
	case PageRead:
		return Ret{Code: Value, Val: ps.V}, nil
	case PageWrite:
		if !op.HasArg {
			return Ret{}, badOp(t, op)
		}
		ps.V = op.Arg
		return RetOK, nil
	}
	return Ret{}, badOp(t, op)
}

// RestoreFrom implements Restorer: the whole state is one value.
func (p *PageState) RestoreFrom(base State, _ []Op) bool {
	q, ok := base.(*PageState)
	if !ok {
		return false
	}
	p.V = q.V
	return true
}

// pageWriteRec remembers the value overwritten by a write (its
// before-image). It is a pointer so that undoing an *earlier* write can
// re-point a later uncommitted write's before-image (§4.4: "(write,
// write) is recoverable but a write operation needs undo").
type pageWriteRec struct {
	before int
}

// ApplyU implements Undoer.
func (t Page) ApplyU(s State, op Op) (Ret, UndoRec, error) {
	ps, ok := s.(*PageState)
	if !ok {
		return Ret{}, nil, badOp(t, op)
	}
	switch op.Name {
	case PageRead:
		return Ret{Code: Value, Val: ps.V}, nil, nil
	case PageWrite:
		if !op.HasArg {
			return Ret{}, nil, badOp(t, op)
		}
		rec := &pageWriteRec{before: ps.V}
		ps.V = op.Arg
		return RetOK, rec, nil
	}
	return Ret{}, nil, badOp(t, op)
}

// Undo implements Undoer. Undoing a write restores its before-image —
// unless a later uncommitted write exists, in which case the state
// already reflects that later write and must keep doing so; instead the
// later write's before-image chain is fixed up, so that if *it* later
// aborts the page falls back to the value it would have had all along.
func (t Page) Undo(s State, op Op, rec UndoRec, later []UndoEntry) error {
	ps, ok := s.(*PageState)
	if !ok {
		return badOp(t, op)
	}
	switch op.Name {
	case PageRead:
		return nil
	case PageWrite:
		wr := rec.(*pageWriteRec)
		for _, e := range later {
			if e.Op.Name == PageWrite {
				e.Rec.(*pageWriteRec).before = wr.before
				return nil
			}
		}
		ps.V = wr.before
		return nil
	}
	return badOp(t, op)
}

// EnumStates implements Enumerable.
func (Page) EnumStates() []State {
	return []State{&PageState{V: 0}, &PageState{V: 1}, &PageState{V: 2}, &PageState{V: 7}}
}

// EnumArgs implements Enumerable.
func (Page) EnumArgs() []int { return []int{1, 2, 7} }
