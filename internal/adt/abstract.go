package adt

import "strconv"

// Abstract is the synthetic data type used by the paper's abstract-data-
// type simulation model (§5.5.2): an object with σ parameter-less
// operations ("op0" … "opσ−1") whose conflict behaviour is given entirely
// by a randomly generated compatibility table rather than by real
// semantics. Every operation returns ok and leaves the (empty) state
// unchanged; the simulator pairs Abstract objects with generated tables
// from the compat package.
type Abstract struct {
	// Sigma is the number of operations defined on the object. The
	// paper's experiments use σ = 4.
	Sigma int
}

// abstractOpNames serves the names every experiment draws (σ = 4)
// without building a string per step.
var abstractOpNames = [...]string{"op0", "op1", "op2", "op3", "op4", "op5", "op6", "op7"}

// AbstractOpName returns the name of abstract operation i.
func AbstractOpName(i int) string {
	if uint(i) < uint(len(abstractOpNames)) {
		return abstractOpNames[i]
	}
	return "op" + strconv.Itoa(i)
}

// abstractState is the (information-free) state of an Abstract object.
type abstractState struct{}

func (abstractState) Clone() State       { return abstractState{} }
func (abstractState) Equal(o State) bool { _, ok := o.(abstractState); return ok }
func (abstractState) String() string     { return "abstract{}" }

// Name implements Type.
func (Abstract) Name() string { return "abstract" }

// New implements Type.
func (Abstract) New() State { return abstractState{} }

// Specs implements Type.
func (a Abstract) Specs() []OpSpec {
	specs := make([]OpSpec, a.Sigma)
	for i := range specs {
		specs[i] = OpSpec{Name: AbstractOpName(i)}
	}
	return specs
}

// Apply implements Type.
func (a Abstract) Apply(s State, op Op) (Ret, error) {
	ret, _, err := a.ApplyU(s, op)
	return ret, err
}

// ApplyU implements Undoer. Abstract operations carry no state, so undo
// is trivial.
func (a Abstract) ApplyU(s State, op Op) (Ret, UndoRec, error) {
	if _, ok := s.(abstractState); !ok {
		return Ret{}, nil, badOp(a, op)
	}
	for i := 0; i < a.Sigma; i++ {
		if op.Name == AbstractOpName(i) {
			return RetOK, nil, nil
		}
	}
	return Ret{}, nil, badOp(a, op)
}

// Undo implements Undoer.
func (a Abstract) Undo(s State, op Op, _ UndoRec, _ []UndoEntry) error {
	if _, ok := s.(abstractState); !ok {
		return badOp(a, op)
	}
	return nil
}
