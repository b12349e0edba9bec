// Package compat models the commutativity and recoverability relations of
// the paper and the compatibility tables built from them (Tables I–VIII).
//
// A table entry is Yes, Yes-SP, Yes-DP or No (§3.2): Yes-SP (Yes-DP)
// means the property holds exactly when the two operations have the Same
// (Different) input Parameter. Tables are state-independent but
// parameter-dependent, matching the paper's restriction.
//
// The package provides three things:
//
//   - the relation and table types plus classification of a concrete
//     operation pair into commutes / recoverable / conflict, which is what
//     the object managers in internal/core consume;
//   - the paper's tables, hardcoded (paper.go);
//   - a derivation engine (derive.go) that recomputes any Enumerable
//     type's tables directly from Definitions 1 and 2 by exhaustive state
//     enumeration — the test suite proves the two agree.
package compat

import (
	"sync/atomic"

	"repro/internal/adt"
)

// Entry is one cell of a compatibility table.
type Entry uint8

// Entry values. YesSP/YesDP follow the paper's Yes-SP/Yes-DP notation.
const (
	No    Entry = iota // the property never holds
	Yes                // the property always holds
	YesSP              // holds iff the operations have the same parameter
	YesDP              // holds iff the operations have different parameters
)

// String renders the entry in the paper's notation.
func (e Entry) String() string {
	switch e {
	case No:
		return "No"
	case Yes:
		return "Yes"
	case YesSP:
		return "Yes-SP"
	case YesDP:
		return "Yes-DP"
	}
	return "Entry(?)"
}

// Holds reports whether the entry's property holds for a request/executed
// pair with the given parameter relationship.
func (e Entry) Holds(sameArg bool) bool {
	switch e {
	case Yes:
		return true
	case YesSP:
		return sameArg
	case YesDP:
		return !sameArg
	default:
		return false
	}
}

// Rel classifies one requested operation against one executed,
// uncommitted operation.
type Rel uint8

// Rel values, in decreasing permissiveness.
const (
	// Commutes: the pair commutes; the request may execute with no
	// commit dependency.
	Commutes Rel = iota
	// Recoverable: the request is recoverable relative to the executed
	// operation; it may execute after forcing a commit dependency.
	Recoverable
	// Conflict: neither; the requester must wait.
	Conflict
)

// String implements fmt.Stringer.
func (r Rel) String() string {
	switch r {
	case Commutes:
		return "commutes"
	case Recoverable:
		return "recoverable"
	case Conflict:
		return "conflict"
	}
	return "rel(?)"
}

// Table is a compatibility table for one data type: for each
// (requested, executed) operation-name pair, the commutativity entry and
// the recoverability entry. Rows and columns are identified by operation
// name, in the order of Ops.
//
// A table is compiled once (Compile) and the compiled form shared by
// every object registered with it. SetComm and SetRec drop that form, so
// the next Compile sees the new entries; objects registered before a
// mutation keep the relation they were registered with. Fill the Comm
// and Rec grids directly only before the first Compile (as derive.go
// does): a direct write after it is not seen by later Compiles
// (TestCompileMemoIgnoresDirectGridWrite). A Table holds that memo in an
// atomic and must not be copied by value; pass *Table.
type Table struct {
	// TypeName names the data type the table describes.
	TypeName string
	// Ops lists the operation names in row/column order.
	Ops []string
	// Comm[i][j] is the commutativity entry for requested Ops[i]
	// against executed Ops[j] (Tables I, III, V, VII).
	Comm [][]Entry
	// Rec[i][j] is the recoverability entry for requested Ops[i]
	// against executed Ops[j] (Tables II, IV, VI, VIII).
	Rec [][]Entry

	// index maps operation name to row/column index. Built by NewTable
	// (Ops is fixed from then on); nil for hand-rolled Table literals,
	// which fall back to the linear scan.
	index map[string]int

	// compiled memoises Compile; nil until the first call and again
	// after each SetComm/SetRec.
	compiled atomic.Pointer[Compiled]
}

// NewTable returns an empty table over the given operations with every
// entry No.
func NewTable(typeName string, ops []string) *Table {
	t := &Table{TypeName: typeName, Ops: append([]string(nil), ops...)}
	t.Comm = newGrid(len(ops))
	t.Rec = newGrid(len(ops))
	t.index = make(map[string]int, len(ops))
	for i, name := range t.Ops {
		if _, ok := t.index[name]; !ok {
			t.index[name] = i
		}
	}
	return t
}

func newGrid(n int) [][]Entry {
	g := make([][]Entry, n)
	for i := range g {
		g[i] = make([]Entry, n)
	}
	return g
}

// Index returns the row/column index of the named operation, or -1.
func (t *Table) Index(op string) int {
	if t.index != nil {
		if i, ok := t.index[op]; ok {
			return i
		}
		return -1
	}
	for i, name := range t.Ops {
		if name == op {
			return i
		}
	}
	return -1
}

// CommEntry returns the commutativity entry for requested req against
// executed exec.
func (t *Table) CommEntry(req, exec string) Entry { return t.Comm[t.Index(req)][t.Index(exec)] }

// RecEntry returns the recoverability entry for requested req against
// executed exec.
func (t *Table) RecEntry(req, exec string) Entry { return t.Rec[t.Index(req)][t.Index(exec)] }

// SetComm sets the commutativity entry (and, by Lemma 1 of the paper,
// commutativity implies recoverability, so callers typically also set
// the recoverability entry at least as permissive — paper.go does).
func (t *Table) SetComm(req, exec string, e Entry) {
	t.Comm[t.Index(req)][t.Index(exec)] = e
	t.compiled.Store(nil)
}

// SetRec sets the recoverability entry.
func (t *Table) SetRec(req, exec string, e Entry) {
	t.Rec[t.Index(req)][t.Index(exec)] = e
	t.compiled.Store(nil)
}

// Classifier decides the relation between a requested operation and an
// executed, uncommitted operation. Object managers consult a Classifier
// for every uncommitted log entry (Figure 2 of the paper).
type Classifier interface {
	Classify(requested, executed adt.Op) Rel
}

// Classify implements Classifier using the table's entries: commutativity
// is checked first, then recoverability; otherwise the pair conflicts.
func (t *Table) Classify(requested, executed adt.Op) Rel {
	i, j := t.Index(requested.Name), t.Index(executed.Name)
	if i < 0 || j < 0 {
		return Conflict
	}
	same := requested.SameArg(executed)
	if t.Comm[i][j].Holds(same) {
		return Commutes
	}
	if t.Rec[i][j].Holds(same) {
		return Recoverable
	}
	return Conflict
}

// CommutativityOnly wraps a Classifier, demoting Recoverable to Conflict.
// This is the baseline protocol the paper compares against ("when
// conflicts are defined based only on commutativity").
type CommutativityOnly struct {
	C Classifier
}

// Classify implements Classifier.
func (c CommutativityOnly) Classify(requested, executed adt.Op) Rel {
	if r := c.C.Classify(requested, executed); r == Commutes {
		return Commutes
	}
	return Conflict
}

// Equal reports whether two tables have identical operations and entries.
func (t *Table) Equal(o *Table) bool {
	if t.TypeName != o.TypeName || len(t.Ops) != len(o.Ops) {
		return false
	}
	for i := range t.Ops {
		if t.Ops[i] != o.Ops[i] {
			return false
		}
		for j := range t.Ops {
			if t.Comm[i][j] != o.Comm[i][j] || t.Rec[i][j] != o.Rec[i][j] {
				return false
			}
		}
	}
	return true
}
