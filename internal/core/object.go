package core

import (
	"fmt"

	"repro/internal/adt"
	"repro/internal/compat"
)

// logEntry is one uncommitted operation in an object's execution log.
type logEntry struct {
	txn  TxnID
	op   adt.Op
	opid adt.OpID // op.Name interned against the compiled classifier, or NoOpID
	ret  adt.Ret
	rec  adt.UndoRec // undo-log recovery only
	seq  uint64      // global execution sequence number
}

// request is a pending (possibly blocked) operation request.
type request struct {
	txn  TxnID
	obj  ObjectID
	op   adt.Op
	opid adt.OpID // like logEntry.opid, for the fair-admission test
}

// object is the per-object manager: type, classifier, state(s),
// execution log of uncommitted operations, and the FIFO blocked queue.
type object struct {
	id    ObjectID
	typ   adt.Type
	und   adt.Undoer // non-nil iff typ implements adt.Undoer
	class compat.Classifier

	// comp is the classifier lowered to interned-id array lookups
	// (non-nil whenever the classifier is table-backed); commOnly
	// selects the compile-time-composed commutativity-only baseline.
	// classEff is the effective classifier for fallback paths — the
	// predicate wrapper is applied once here instead of being boxed on
	// every request.
	comp     *compat.Compiled
	commOnly bool
	classEff compat.Classifier

	base    adt.State // committed state (intentions-list recovery only)
	cur     adt.State // materialised current state
	log     []logEntry
	blocked []*request
}

func newObject(id ObjectID, typ adt.Type, class compat.Classifier, rec Recovery, pred Predicate) (*object, error) {
	o := &object{id: id, typ: typ, class: class, cur: typ.New()}
	if u, ok := typ.(adt.Undoer); ok {
		o.und = u
	}
	o.comp, _ = compat.CompileClassifier(class)
	o.commOnly = pred == PredCommutativity
	if o.commOnly {
		o.classEff = compat.CommutativityOnly{C: class}
	} else {
		o.classEff = class
	}
	switch rec {
	case RecoveryIntentions:
		o.base = typ.New()
	case RecoveryUndo:
		if o.und == nil {
			return nil, fmt.Errorf("%w: type %s", ErrNeedsUndoer, typ.Name())
		}
	}
	return o, nil
}

// opID interns an operation name against the object's compiled
// classifier (NoOpID when the classifier did not compile).
func (o *object) opID(op adt.Op) adt.OpID {
	if o.comp == nil {
		return adt.NoOpID
	}
	return o.comp.OpID(op.Name)
}

// classify relates a requested operation (pre-interned as reqID) to an
// executed or blocked one under the object's effective predicate.
func (o *object) classify(reqID adt.OpID, req adt.Op, execID adt.OpID, exec adt.Op) compat.Rel {
	if o.comp != nil {
		return o.comp.ClassifyIDs(reqID, execID, req.SameArg(exec), o.commOnly)
	}
	return o.classEff.Classify(req, exec)
}

// appendUniqueTxn appends t unless present. Holder lists are short (a
// handful of uncommitted transactions), so the linear scan beats the
// map the old implementation allocated per call.
func appendUniqueTxn(list []TxnID, t TxnID) []TxnID {
	for _, x := range list {
		if x == t {
			return list
		}
	}
	return append(list, t)
}

// classifyAgainstLog classifies op (requested by txn) against every
// uncommitted log entry of other transactions and returns the
// de-duplicated holders it conflicts with and the holders it is
// recoverable (but not commuting) with, in log order. Results are
// appended to conflicts[:0] and recovs[:0]; passing reused scratch
// buffers makes the scan allocation-free.
func (o *object) classifyAgainstLog(txn TxnID, op adt.Op, conflicts, recovs []TxnID) (c, r []TxnID) {
	conflicts, recovs = conflicts[:0], recovs[:0]
	if o.comp != nil {
		// Resolve the requested op's table row (and the predicate)
		// once; each log entry is then one indexed load.
		row := o.comp.Row(o.comp.OpID(op.Name), o.commOnly)
		for i := range o.log {
			e := &o.log[i]
			if e.txn == txn {
				continue
			}
			switch row.Classify(e.opid, op.SameArg(e.op)) {
			case compat.Conflict:
				conflicts = appendUniqueTxn(conflicts, e.txn)
			case compat.Recoverable:
				recovs = appendUniqueTxn(recovs, e.txn)
			}
		}
		return conflicts, recovs
	}
	for i := range o.log {
		e := &o.log[i]
		if e.txn == txn {
			continue
		}
		switch o.classEff.Classify(op, e.op) {
		case compat.Conflict:
			conflicts = appendUniqueTxn(conflicts, e.txn)
		case compat.Recoverable:
			recovs = appendUniqueTxn(recovs, e.txn)
		}
	}
	return conflicts, recovs
}

// conflictsWithBlocked reports whether op (requested by txn) fails the
// fair-scheduling admission test: it is not commutative with some
// blocked request of another transaction. It returns the blocked
// requesters op must wait behind, appended to waits[:0].
func (o *object) conflictsWithBlocked(txn TxnID, op adt.Op, waits []TxnID) []TxnID {
	waits = waits[:0]
	if len(o.blocked) == 0 {
		return waits
	}
	if o.comp != nil {
		row := o.comp.Row(o.comp.OpID(op.Name), o.commOnly)
		for _, r := range o.blocked {
			if r.txn == txn {
				continue
			}
			if row.Classify(r.opid, op.SameArg(r.op)) != compat.Commutes {
				waits = appendUniqueTxn(waits, r.txn)
			}
		}
		return waits
	}
	for _, r := range o.blocked {
		if r.txn == txn {
			continue
		}
		if o.classEff.Classify(op, r.op) != compat.Commutes {
			waits = appendUniqueTxn(waits, r.txn)
		}
	}
	return waits
}

// execute applies op for txn, appends the log entry and returns the
// operation's return value.
func (o *object) execute(txn TxnID, op adt.Op, seq uint64, rec Recovery) (adt.Ret, error) {
	var (
		ret adt.Ret
		ur  adt.UndoRec
		err error
	)
	if rec == RecoveryUndo {
		ret, ur, err = o.und.ApplyU(o.cur, op)
	} else {
		ret, err = o.typ.Apply(o.cur, op)
	}
	if err != nil {
		return adt.Ret{}, err
	}
	o.log = append(o.log, logEntry{txn: txn, op: op, opid: o.opID(op), ret: ret, rec: ur, seq: seq})
	return ret, nil
}

// removeTxn removes txn's entries from the log, folding them into the
// committed state (commit=true) or reversing their effects
// (commit=false) according to the recovery strategy. With debug set it
// asserts the soundness property: surviving entries' return values are
// unchanged by the removal. sc provides reusable buffers.
func (o *object) removeTxn(txn TxnID, commit bool, rec Recovery, debug bool, sc *schedScratch) error {
	if rec == RecoveryUndo {
		return o.removeTxnUndo(txn, commit, sc)
	}
	return o.removeTxnIntentions(txn, commit, debug, sc)
}

func (o *object) removeTxnIntentions(txn TxnID, commit bool, debug bool, sc *schedScratch) error {
	// Compact the log in place, collecting the transaction's entries
	// into the reusable scratch buffer (the old version allocated a
	// fresh kept slice plus a removed slice on every termination). An
	// abort also needs every operation of the pre-removal log, departing
	// and surviving: together they bound what the materialised state can
	// differ from the base in.
	removed := sc.removed[:0]
	logged := sc.loggedOps[:0]
	kept := o.log[:0]
	for i := range o.log {
		if !commit {
			logged = append(logged, o.log[i].op)
		}
		if o.log[i].txn == txn {
			removed = append(removed, o.log[i])
		} else {
			kept = append(kept, o.log[i])
		}
	}
	sc.loggedOps = logged
	if len(removed) == 0 {
		sc.removed = removed
		return nil
	}
	// Zero the vacated tail so undo records and op payloads don't leak
	// past the shrunk length.
	tail := o.log[len(kept):len(o.log)]
	for i := range tail {
		tail[i] = logEntry{}
	}
	o.log = kept

	var err error
	if commit {
		err = o.fold(removed, debug)
	} else {
		err = o.replay(logged, debug)
	}
	sc.removed = clearLogEntries(removed)
	return err
}

// fold finishes an intentions-list commit: the departing transaction's
// operations are applied to the base, O(|its operations|). Every
// surviving earlier entry commutes with them (the committing
// transaction has out-degree zero), so applying them directly to the
// base is sound.
func (o *object) fold(removed []logEntry, debug bool) error {
	for i := range removed {
		e := &removed[i]
		ret, err := o.typ.Apply(o.base, e.op)
		if err != nil {
			return fmt.Errorf("core: intentions commit replay on object %d: %w", o.id, err)
		}
		if debug && ret != e.ret {
			return fmt.Errorf("core: object %d: commit fold changed return of %v: logged %v, replayed %v",
				o.id, e.op, e.ret, ret)
		}
	}
	if debug {
		return o.checkReplayMatchesCur()
	}
	return nil
}

// replay finishes an intentions-list abort: the materialised state is
// taken back to the base and the surviving log replayed onto it.
// Soundness (Theorem 1) guarantees every replayed return equals the
// logged one. logged is the pre-removal log's operations; a Restorer
// state rolls back in place touching only what they touched, so an
// abort costs O(|log| + their footprint) whatever the committed state
// holds, and allocates nothing. Other states pay a Clone of the base. A
// replay error leaves the object unusable either way (the caller treats
// it as a broken internal invariant).
func (o *object) replay(logged []adt.Op, debug bool) error {
	if r, ok := o.cur.(adt.Restorer); !ok || !r.RestoreFrom(o.base, logged) {
		o.cur = o.base.Clone()
	}
	for i := range o.log {
		ret, err := o.typ.Apply(o.cur, o.log[i].op)
		if err != nil {
			return fmt.Errorf("core: intentions abort replay on object %d: %w", o.id, err)
		}
		if debug && ret != o.log[i].ret {
			return fmt.Errorf("core: object %d: abort replay changed return of %v: logged %v, replayed %v (soundness violation)",
				o.id, o.log[i].op, o.log[i].ret, ret)
		}
		o.log[i].ret = ret
	}
	return nil
}

// checkReplayMatchesCur asserts base+log == cur (debug only).
func (o *object) checkReplayMatchesCur() error {
	s := o.base.Clone()
	for _, e := range o.log {
		if _, err := o.typ.Apply(s, e.op); err != nil {
			return err
		}
	}
	if !s.Equal(o.cur) {
		return fmt.Errorf("core: object %d: base+log = %v diverges from materialised state %v", o.id, s, o.cur)
	}
	return nil
}

func (o *object) removeTxnUndo(txn TxnID, commit bool, sc *schedScratch) error {
	if commit {
		o.compactLogExcluding(txn, -1)
		return nil
	}
	// Undo the transaction's operations in reverse execution order.
	// Each undo must see the later entries still present in the log so
	// it can fix up before-image chains; walking backwards, those are
	// exactly the surviving (other-transaction) entries processed so
	// far, maintained as the suffix later[pos:] of one reusable buffer.
	// The old version rebuilt a fresh `later` slice and shifted the log
	// with append(log[:i], log[i+1:]...) per undone entry — O(n²) for
	// a transaction with many operations on one object.
	n := len(o.log)
	later := sc.undoLater
	if cap(later) < n {
		later = make([]adt.UndoEntry, n)
	}
	later = later[:n]
	pos := n
	undone := false
	for i := n - 1; i >= 0; i-- {
		e := &o.log[i]
		if e.txn != txn {
			pos--
			later[pos] = adt.UndoEntry{Op: e.op, Rec: e.rec}
			continue
		}
		undone = true
		if err := o.und.Undo(o.cur, e.op, e.rec, later[pos:]); err != nil {
			// Keep the log consistent with the undos applied so far:
			// drop the entries at index > i that were already undone.
			o.compactLogExcluding(txn, i)
			sc.undoLater = clearUndoEntries(later)
			return fmt.Errorf("core: undo on object %d: %w", o.id, err)
		}
	}
	if undone {
		o.compactLogExcluding(txn, -1)
	}
	sc.undoLater = clearUndoEntries(later)
	return nil
}

// compactLogExcluding removes txn's entries with index > from in a
// single pass, preserving order (from = -1 removes them all).
func (o *object) compactLogExcluding(txn TxnID, from int) {
	kept := o.log[:0]
	for i := range o.log {
		if o.log[i].txn == txn && i > from {
			continue
		}
		kept = append(kept, o.log[i])
	}
	tail := o.log[len(kept):len(o.log)]
	for i := range tail {
		tail[i] = logEntry{}
	}
	o.log = kept
}

// clearUndoEntries drops the buffer's references so pooled undo records
// don't pin aborted transactions' state, and returns it for reuse.
func clearUndoEntries(buf []adt.UndoEntry) []adt.UndoEntry {
	for i := range buf {
		buf[i] = adt.UndoEntry{}
	}
	return buf[:0]
}

// clearLogEntries likewise zeroes extracted log entries (undo records,
// op payloads) so the scratch buffer's capacity doesn't pin them, and
// returns it for reuse.
func clearLogEntries(buf []logEntry) []logEntry {
	for i := range buf {
		buf[i] = logEntry{}
	}
	return buf[:0]
}

// dequeueBlocked removes txn's blocked request, if any.
func (o *object) dequeueBlocked(txn TxnID) {
	for i, r := range o.blocked {
		if r.txn == txn {
			copy(o.blocked[i:], o.blocked[i+1:])
			o.blocked[len(o.blocked)-1] = nil
			o.blocked = o.blocked[:len(o.blocked)-1]
			return
		}
	}
}

// hasEntries reports whether txn has uncommitted operations here.
func (o *object) hasEntries(txn TxnID) bool {
	for i := range o.log {
		if o.log[i].txn == txn {
			return true
		}
	}
	return false
}
