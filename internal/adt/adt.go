// Package adt implements the atomic data types of Badrinath &
// Ramamritham's "Semantics-Based Concurrency Control: Beyond
// Commutativity" (§3.2): Page, Stack, Set and Table.
//
// Each type defines a set of states and a set of operations. The
// specification of an operation is a total function S -> S x V: for a
// state s, Apply produces the successor state state(o, s) and the return
// value return(o, s). Those two components are exactly what the paper's
// Definitions 1 and 2 (recoverability and commutativity) are stated in
// terms of, and the compat package derives the paper's compatibility
// tables by enumerating them.
//
// Every operation returns a value — at least a status code — matching the
// paper's footnote 1.
package adt

import (
	"fmt"
	"strconv"
)

// Code is the status portion of an operation's return value.
type Code uint8

// Return status codes used across the built-in types.
const (
	OK       Code = iota // operation completed ("ok")
	Fail                 // operation failed ("Failure")
	Yes                  // membership test positive
	No                   // membership test negative
	Null                 // stack operation on an empty stack
	NotFound             // table lookup miss ("not_found")
	Value                // a data-carrying return; Val holds the data
	Count                // a count-carrying return; Val holds the count
)

// String returns the paper's name for the code.
func (c Code) String() string {
	switch c {
	case OK:
		return "ok"
	case Fail:
		return "failure"
	case Yes:
		return "yes"
	case No:
		return "no"
	case Null:
		return "null"
	case NotFound:
		return "not_found"
	case Value:
		return "value"
	case Count:
		return "count"
	}
	return "code(" + strconv.Itoa(int(c)) + ")"
}

// Ret is an operation's return value: a status code plus, for
// data-carrying returns (Value, Count), the datum itself. Ret is
// comparable with ==, which is what the recoverability definition needs.
type Ret struct {
	Code Code
	Val  int
}

// RetOK is the plain success return.
var RetOK = Ret{Code: OK}

// String renders the return the way the paper writes it, e.g. "ok" or
// "value(3)".
func (r Ret) String() string {
	switch r.Code {
	case Value:
		return fmt.Sprintf("value(%d)", r.Val)
	case Count:
		return fmt.Sprintf("count(%d)", r.Val)
	default:
		return r.Code.String()
	}
}

// Op is an operation invocation: a name plus its input parameter(s).
//
// Arg is the parameter the paper's Yes-SP / Yes-DP table entries compare
// ("Same input Parameter" / "Different input Parameter"): the element for
// set operations, the key for table operations, the pushed value for
// stack pushes, the written value for page writes. Aux carries a second
// datum where the operation needs one (the item in table insert/modify).
type Op struct {
	Name   string
	Arg    int
	HasArg bool
	Aux    int
	HasAux bool
}

// SameArg reports whether two operations have equal input parameters.
// Operations without parameters are never "same parameter" in the sense
// of the paper's Yes-SP entries (those entries only appear for
// parameterised pairs).
func (o Op) SameArg(p Op) bool {
	return o.HasArg && p.HasArg && o.Arg == p.Arg
}

// String renders the invocation, e.g. "insert(3)" or "size".
func (o Op) String() string {
	switch {
	case o.HasArg && o.HasAux:
		return fmt.Sprintf("%s(%d,%d)", o.Name, o.Arg, o.Aux)
	case o.HasArg:
		return fmt.Sprintf("%s(%d)", o.Name, o.Arg)
	default:
		return o.Name
	}
}

// OpSpec describes one operation of a type: its name, arity, and whether
// it can modify the state (ReadOnly operations never need undo).
type OpSpec struct {
	Name     string
	HasArg   bool
	HasAux   bool
	ReadOnly bool
}

// Invoke builds an Op for this spec with the given parameters. Extra
// parameters beyond the spec's arity are ignored; missing ones are zero.
func (s OpSpec) Invoke(args ...int) Op {
	op := Op{Name: s.Name}
	if s.HasArg && len(args) > 0 {
		op.Arg, op.HasArg = args[0], true
	}
	if s.HasAux && len(args) > 1 {
		op.Aux, op.HasAux = args[1], true
	}
	return op
}

// State is an object state. Implementations are mutable; Clone produces
// an independent deep copy (used by the derivation engine, the history
// checker and the intentions-list fallback below). A state whose
// operations have a bounded footprint should also implement Restorer,
// or every intentions-list abort pays a Clone of the committed state.
type State interface {
	Clone() State
	Equal(State) bool
	fmt.Stringer
}

// Restorer is optionally implemented by states that can roll back to a
// base state in time proportional to what a log of operations touched
// rather than to the size of the state. It is what makes an
// intentions-list abort (§4.4) cost the departing transaction's work,
// not the object's committed contents.
//
// The caller guarantees the receiver Equals base ⊕ ops: base with every
// operation of ops applied in order. RestoreFrom makes the receiver
// Equal base again, reading and writing only the part of the state ops
// can have touched (read-only operations touch nothing), without
// allocating in steady state. It reports false, leaving the receiver
// unchanged, when base has a different concrete type; a state that
// cannot bound the footprint of its operations does not implement
// Restorer at all, and its holders fall back to base.Clone().
type Restorer interface {
	State
	RestoreFrom(base State, ops []Op) bool
}

// Type is an atomic data type: a state space plus operations.
type Type interface {
	// Name identifies the type ("page", "stack", "set", "table", ...).
	Name() string
	// New returns the initial (empty) state.
	New() State
	// Specs lists the operations the type defines.
	Specs() []OpSpec
	// Apply executes op on s, mutating s, and returns return(op, s).
	// It returns an error only for malformed invocations (unknown
	// operation name, missing parameter).
	Apply(s State, op Op) (Ret, error)
}

// Undoer is implemented by types that support semantic undo-log recovery
// (§4.4 of the paper). ApplyU behaves like Apply but additionally
// captures an undo record; Undo reverses the operation given that record
// and the log entries of uncommitted operations that executed after it
// (needed for before-image chain fix-ups, e.g. undoing a page write that
// a later uncommitted write has overwritten).
type Undoer interface {
	Type
	ApplyU(s State, op Op) (Ret, UndoRec, error)
	Undo(s State, op Op, rec UndoRec, later []UndoEntry) error
}

// UndoRec is an opaque, type-specific undo record. Records are pointers
// so Undo can fix up the records of later entries in place.
type UndoRec interface{}

// UndoEntry pairs a later uncommitted operation with its undo record, as
// seen by Undo.
type UndoEntry struct {
	Op  Op
	Rec UndoRec
}

// Enumerable is implemented by types whose state and parameter spaces can
// be sampled finitely. The compat package derives compatibility tables by
// exhausting these samples; for the built-in types the samples are
// exhaustive up to a size bound, which is sufficient because all four
// types' semantics are insensitive to values outside the sampled range.
type Enumerable interface {
	Type
	// EnumStates returns representative states (including the empty
	// state).
	EnumStates() []State
	// EnumArgs returns representative parameter values.
	EnumArgs() []int
}

// SpecByName returns the OpSpec with the given name, if the type defines
// one.
func SpecByName(t Type, name string) (OpSpec, bool) {
	for _, s := range t.Specs() {
		if s.Name == name {
			return s, true
		}
	}
	return OpSpec{}, false
}

// builtinOpNames are the operation names of the package's own types.
var builtinOpNames = func() (names []string) {
	for _, t := range []Type{Page{}, Stack{}, Set{}, KTable{}, Abstract{Sigma: len(abstractOpNames)}} {
		for _, sp := range t.Specs() {
			names = append(names, sp.Name)
		}
	}
	return names
}()

// CanonicalOpName returns b as an operation name: the package's own
// constant when b spells a built-in operation (no allocation, and every
// holder of the name shares one string), a copy of b otherwise. Decoders
// use it so that logs retaining decoded operations do not retain one
// string each. A new built-in Type lists itself in builtinOpNames.
func CanonicalOpName(b []byte) string {
	for _, n := range builtinOpNames {
		if string(b) == n {
			return n
		}
	}
	return string(b)
}

// MustApply is Apply but panics on malformed invocations. It is a
// convenience for tests and examples where the operation is statically
// well-formed.
func MustApply(t Type, s State, op Op) Ret {
	ret, err := t.Apply(s, op)
	if err != nil {
		panic(fmt.Sprintf("adt: %s.Apply(%s): %v", t.Name(), op, err))
	}
	return ret
}

// ApplySeq applies a sequence of operations in order and returns their
// return values.
func ApplySeq(t Type, s State, ops []Op) ([]Ret, error) {
	rets := make([]Ret, 0, len(ops))
	for _, op := range ops {
		r, err := t.Apply(s, op)
		if err != nil {
			return rets, err
		}
		rets = append(rets, r)
	}
	return rets, nil
}

func badOp(t Type, op Op) error {
	return fmt.Errorf("adt: type %s has no operation %q (or missing parameter)", t.Name(), op.Name)
}
