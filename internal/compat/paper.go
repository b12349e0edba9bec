package compat

import "repro/internal/adt"

// This file hardcodes the paper's compatibility tables (Tables I–VIII).
// The derivation engine in derive.go recomputes them from the data type
// semantics; TestDerivedMatchesPaper proves the two agree (with the one
// documented Page exception below).

// PageTable returns Tables I and II for the Page (read/write) object.
//
// Table I (commutativity) follows the paper's traditional convention:
// two operations conflict if either is a write, so only (read, read) is
// Yes. Note that Definition 2 actually yields Yes-SP for (write, write) —
// two writes of the same value commute — which the derivation engine
// discovers; see DerivedPageCommWriteWrite in the tests. The simulation
// experiments use the paper's convention.
//
// Table II (recoverability) leaves (read, write) as the only conflicting
// pair: a read requested after an uncommitted write is not recoverable,
// everything else is.
func PageTable() *Table {
	t := NewTable("page", []string{adt.PageRead, adt.PageWrite})
	t.SetComm(adt.PageRead, adt.PageRead, Yes)

	t.SetRec(adt.PageRead, adt.PageRead, Yes)
	t.SetRec(adt.PageWrite, adt.PageRead, Yes)
	t.SetRec(adt.PageWrite, adt.PageWrite, Yes)
	// (read requested, write executed) stays No.
	return t
}

// StackTable returns Tables III and IV for the Stack object.
//
// Commutativity: only (top, top) is Yes; (push, push) is Yes-SP (two
// pushes of the same element commute). Recoverability: a push is
// recoverable relative to anything (its return is always ok), and any
// operation is recoverable relative to top (top leaves the state
// unchanged).
func StackTable() *Table {
	t := NewTable("stack", []string{adt.StackPush, adt.StackPop, adt.StackTop})
	t.SetComm(adt.StackPush, adt.StackPush, YesSP)
	t.SetComm(adt.StackTop, adt.StackTop, Yes)

	t.SetRec(adt.StackPush, adt.StackPush, Yes)
	t.SetRec(adt.StackPush, adt.StackPop, Yes)
	t.SetRec(adt.StackPush, adt.StackTop, Yes)
	t.SetRec(adt.StackPop, adt.StackTop, Yes)
	t.SetRec(adt.StackTop, adt.StackTop, Yes)
	return t
}

// SetTable returns Tables V and VI for the Set object.
func SetTable() *Table {
	t := NewTable("set", []string{adt.SetInsert, adt.SetDelete, adt.SetMember})
	// Table V (commutativity), exactly as printed in the paper:
	//             Insert   Delete   Member
	//   Insert    Yes      Yes-DP   Yes-DP
	//   Delete    Yes-DP   Yes-DP   Yes-DP
	//   Member    Yes-DP   Yes-DP   Yes
	t.SetComm(adt.SetInsert, adt.SetInsert, Yes)
	t.SetComm(adt.SetInsert, adt.SetDelete, YesDP)
	t.SetComm(adt.SetInsert, adt.SetMember, YesDP)
	t.SetComm(adt.SetDelete, adt.SetInsert, YesDP)
	t.SetComm(adt.SetDelete, adt.SetDelete, YesDP)
	t.SetComm(adt.SetDelete, adt.SetMember, YesDP)
	t.SetComm(adt.SetMember, adt.SetInsert, YesDP)
	t.SetComm(adt.SetMember, adt.SetDelete, YesDP)
	t.SetComm(adt.SetMember, adt.SetMember, Yes)

	// Table VI (recoverability). Insert's return is always ok, so
	// insert is recoverable relative to everything ("insert is
	// recoverable relative to member", §3.2.3); delete and member are
	// recoverable relative to member (no state change) and, for
	// different elements, relative to insert/delete.
	t.SetRec(adt.SetInsert, adt.SetInsert, Yes)
	t.SetRec(adt.SetInsert, adt.SetDelete, Yes)
	t.SetRec(adt.SetInsert, adt.SetMember, Yes)
	t.SetRec(adt.SetDelete, adt.SetInsert, YesDP)
	t.SetRec(adt.SetDelete, adt.SetDelete, YesDP)
	t.SetRec(adt.SetDelete, adt.SetMember, Yes)
	t.SetRec(adt.SetMember, adt.SetInsert, YesDP)
	t.SetRec(adt.SetMember, adt.SetDelete, YesDP)
	t.SetRec(adt.SetMember, adt.SetMember, Yes)
	return t
}

// KTableTable returns Tables VII and VIII for the Table object. The
// parameter compared by SP/DP entries is the key.
func KTableTable() *Table {
	ins, del, lku, siz, mod := adt.TableInsert, adt.TableDelete, adt.TableLookup, adt.TableSize, adt.TableModify
	t := NewTable("table", []string{ins, del, lku, siz, mod})

	// Table VII (commutativity), rows = requested, cols = executed:
	//            Insert   Delete   Lookup   Size   Modify
	//   Insert   Yes-DP   Yes-DP   Yes-DP   No     Yes-DP
	//   Delete   Yes-DP   Yes-DP   Yes-DP   No     Yes-DP
	//   Lookup   Yes-DP   Yes-DP   Yes      Yes    Yes-DP
	//   Size     No       No       Yes      Yes    Yes
	//   Modify   Yes-DP   Yes-DP   Yes-DP   Yes    Yes-DP
	comm := [][]Entry{
		{YesDP, YesDP, YesDP, No, YesDP},
		{YesDP, YesDP, YesDP, No, YesDP},
		{YesDP, YesDP, Yes, Yes, YesDP},
		{No, No, Yes, Yes, Yes},
		{YesDP, YesDP, YesDP, Yes, YesDP},
	}
	// Table VIII (recoverability):
	//            Insert   Delete   Lookup   Size   Modify
	//   Insert   Yes-DP   Yes-DP   Yes      Yes    Yes
	//   Delete   Yes-DP   Yes-DP   Yes      Yes    Yes
	//   Lookup   Yes-DP   Yes-DP   Yes      Yes    Yes-DP
	//   Size     No       No       Yes      Yes    Yes
	//   Modify   Yes-DP   Yes-DP   Yes      Yes    Yes
	rec := [][]Entry{
		{YesDP, YesDP, Yes, Yes, Yes},
		{YesDP, YesDP, Yes, Yes, Yes},
		{YesDP, YesDP, Yes, Yes, YesDP},
		{No, No, Yes, Yes, Yes},
		{YesDP, YesDP, Yes, Yes, Yes},
	}
	t.Comm = comm
	t.Rec = rec
	return t
}
