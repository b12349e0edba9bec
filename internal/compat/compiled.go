package compat

import "repro/internal/adt"

// Compiled is a compatibility table lowered into dense arrays indexed by
// interned operation ids, for the protocol's two hottest call sites: the
// object manager's per-uncommitted-log-entry classification (Figure 2)
// and the fair-scheduling admission test. Where Table.Classify resolves
// both operation names and evaluates the Yes/Yes-SP/Yes-DP/No entry
// logic on every call, a Compiled classifier resolves each name to an
// adt.OpID once (per request, per log entry at execute time) and then
// classifies with an indexed load and a parameter compare:
//
//	rel[((req+1)*stride + exec+1)*2 + sameArg]
//
// Both the recoverability-aware relation and the commutativity-only
// baseline (the CommutativityOnly wrapper, §5's comparison protocol) are
// composed at compile time, so selecting the predicate on the hot path
// is a branch, not an allocation.
//
// A Compiled classifier is immutable after Compile and safe for
// concurrent readers.
type Compiled struct {
	typeName string
	in       *adt.Interner
	n        int
	// stride is n+1: the dense grids carry a sentinel row and column 0
	// holding Conflict, onto which NoOpID (-1) lands after the +1 bias
	// in ClassifyIDs — unknown names classify as Conflict without a
	// branch on the hot path.
	stride int
	// rel and relComm hold one Rel per (requested, executed, sameArg)
	// triple; relComm is the CommutativityOnly composition (Recoverable
	// demoted to Conflict).
	rel     []Rel
	relComm []Rel
}

// Classify implements Classifier. It resolves both names through the
// interner; hot paths that classify one request against many executed
// entries should intern once and use ClassifyIDs instead.
func (c *Compiled) Classify(requested, executed adt.Op) Rel {
	return c.ClassifyIDs(c.in.ID(requested.Name), c.in.ID(executed.Name),
		requested.SameArg(executed), false)
}

// ClassifyIDs classifies a pre-interned (requested, executed) pair.
// commOnly selects the commutativity-only baseline composed at compile
// time. Ids must come from OpID: in-table ids hit their cell and NoOpID
// lands on the sentinel Conflict row/column, matching Table.Classify's
// unknown-name behaviour without a branch.
func (c *Compiled) ClassifyIDs(req, exec adt.OpID, sameArg, commOnly bool) Rel {
	idx := (int(req+1)*c.stride + int(exec+1)) * 2
	if sameArg {
		idx++
	}
	if commOnly {
		return c.relComm[idx]
	}
	return c.rel[idx]
}

// Row is one requested-operation row of a compiled table with the
// predicate already selected: what the object manager resolves once per
// request, making the per-uncommitted-log-entry classification a single
// indexed load.
type Row struct {
	rel []Rel // the requested op's row, sentinel column included
}

// Classify classifies the row's requested operation against a
// pre-interned executed operation.
func (r Row) Classify(exec adt.OpID, sameArg bool) Rel {
	idx := int(exec+1) * 2
	if sameArg {
		idx++
	}
	return r.rel[idx]
}

// Row resolves the requested operation's row under the given predicate.
// req must come from OpID (NoOpID selects the sentinel all-Conflict
// row).
func (c *Compiled) Row(req adt.OpID, commOnly bool) Row {
	rel := c.rel
	if commOnly {
		rel = c.relComm
	}
	base := int(req+1) * c.stride * 2
	return Row{rel: rel[base : base+c.stride*2]}
}

// OpID interns an operation name against the compiled table's universe.
func (c *Compiled) OpID(name string) adt.OpID { return c.in.ID(name) }

// NumOps returns the number of operations in the compiled table.
func (c *Compiled) NumOps() int { return c.n }

// TypeName names the data type the compiled table describes.
func (c *Compiled) TypeName() string { return c.typeName }

// set records the relation for one (requested, executed, sameArg) cell,
// keeping the commutativity-only composition in lockstep.
func (c *Compiled) set(req, exec int, sameArg bool, r Rel) {
	idx := ((req+1)*c.stride + exec + 1) * 2
	if sameArg {
		idx++
	}
	c.rel[idx] = r
	if r == Recoverable {
		r = Conflict
	}
	c.relComm[idx] = r
}

func newCompiled(typeName string, names []string) *Compiled {
	in := adt.NewInterner(names)
	n := in.Len()
	c := &Compiled{
		typeName: typeName,
		in:       in,
		n:        n,
		stride:   n + 1,
		rel:      make([]Rel, (n+1)*(n+1)*2),
		relComm:  make([]Rel, (n+1)*(n+1)*2),
	}
	// Sentinel cells (row/column 0) classify as Conflict; Conflict is
	// not the zero Rel, so fill explicitly.
	for i := range c.rel {
		c.rel[i] = Conflict
		c.relComm[i] = Conflict
	}
	return c
}

// Compile lowers the table into a Compiled classifier. The table's
// entries are evaluated per (requested, executed, sameArg) cell exactly
// as Table.Classify would (commutativity first, then recoverability), so
// the two agree on every concrete operation pair; the equivalence tests
// prove it for all paper, derived and generated tables. The result is
// memoised on the table until the next SetComm/SetRec, so every caller
// (and every object registered with the table) shares one read-only
// Compiled; a returned snapshot never reflects later mutations.
func (t *Table) Compile() *Compiled {
	if c := t.compiled.Load(); c != nil {
		return c
	}
	c := t.compile()
	if !t.compiled.CompareAndSwap(nil, c) {
		// A concurrent Compile published first: share its form.
		if won := t.compiled.Load(); won != nil {
			return won
		}
	}
	return c
}

func (t *Table) compile() *Compiled {
	c := newCompiled(t.TypeName, t.Ops)
	for i, req := range t.Ops {
		if t.Index(req) != i {
			continue // duplicated name: Classify resolves the first row
		}
		for j, exec := range t.Ops {
			if t.Index(exec) != j {
				continue
			}
			ci := c.in.ID(req)
			cj := c.in.ID(exec)
			for _, same := range [2]bool{false, true} {
				r := Conflict
				switch {
				case t.Comm[i][j].Holds(same):
					r = Commutes
				case t.Rec[i][j].Holds(same):
					r = Recoverable
				}
				c.set(int(ci), int(cj), same, r)
			}
		}
	}
	return c
}

// Compile lowers the generated merged table (§5.5.2) into a Compiled
// classifier over the abstract operation names. Generated cells carry no
// parameter dependence, so both sameArg variants hold the same relation.
func (g *Generated) Compile() *Compiled {
	names := make([]string, g.Sigma)
	for i := range names {
		names[i] = adt.AbstractOpName(i)
	}
	c := newCompiled("abstract", names)
	for i := 0; i < g.Sigma; i++ {
		for j := 0; j < g.Sigma; j++ {
			c.set(i, j, false, g.Cell[i][j])
			c.set(i, j, true, g.Cell[i][j])
		}
	}
	return c
}

// CompileClassifier lowers any of the package's table-backed classifiers
// into a Compiled classifier: *Table, *Generated, a CommutativityOnly
// wrapper around either, or an already-Compiled classifier. It reports
// false for classifiers with unknown structure (custom implementations
// fall back to the interface path).
func CompileClassifier(cl Classifier) (*Compiled, bool) {
	switch v := cl.(type) {
	case *Compiled:
		return v, true
	case *Table:
		return v.Compile(), true
	case *Generated:
		return v.Compile(), true
	case CommutativityOnly:
		inner, ok := CompileClassifier(v.C)
		if !ok {
			return nil, false
		}
		// Demote by making the commutativity-only composition the
		// primary relation as well.
		return &Compiled{
			typeName: inner.typeName,
			in:       inner.in,
			n:        inner.n,
			stride:   inner.stride,
			rel:      inner.relComm,
			relComm:  inner.relComm,
		}, true
	}
	return nil, false
}
