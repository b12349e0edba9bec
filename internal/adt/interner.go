package adt

// OpID is a small dense integer identifying an operation name within one
// Interner's universe. The compat package's compiled classifiers index
// their dense relation arrays by OpID, turning the per-log-entry table
// lookup of Figure 2 into an array load. NoOpID marks a name outside the
// universe.
type OpID int32

// NoOpID is returned for names the interner has never seen.
const NoOpID OpID = -1

// Interner assigns dense OpIDs to operation names. It is built once
// (per compatibility table) and read-only afterwards, so it is safe for
// concurrent readers. Lookup is a scan: every table has 2–5 operations,
// and comparing against a handful of short strings (equal constants
// share a pointer) costs less than one string hash and map probe.
type Interner struct {
	names []string
}

// NewInterner interns the given names in order: names[i] gets OpID(i).
// Duplicate names keep their first id.
func NewInterner(names []string) *Interner {
	in := &Interner{names: make([]string, 0, len(names))}
	for _, n := range names {
		if in.ID(n) == NoOpID {
			in.names = append(in.names, n)
		}
	}
	return in
}

// ID returns the OpID for name, or NoOpID.
func (in *Interner) ID(name string) OpID {
	for i, n := range in.names {
		if n == name {
			return OpID(i)
		}
	}
	return NoOpID
}

// Len returns the number of interned names.
func (in *Interner) Len() int { return len(in.names) }

// Name returns the name interned at id.
func (in *Interner) Name(id OpID) string { return in.names[id] }
