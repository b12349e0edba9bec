package core

// txn is the scheduler's bookkeeping for one transaction.
type txn struct {
	id      TxnID
	state   txnState
	visited map[ObjectID]struct{} // objects with log entries of this txn
	blocked *request              // outstanding blocked request, if any
	// held marks a pseudo-committed transaction whose real commit is
	// controlled by an external coordinator (distributed commit): it
	// is excluded from the automatic out-degree-zero cascade and
	// finalised only by ReleaseInto.
	held bool
}

// txnStore owns the transaction table. Like objectStore it is a
// lock-free component; the owning scheduler serialises access.
// Forgotten transactions are pooled and reused so a steady-state
// begin/terminate/forget cycle allocates nothing.
type txnStore struct {
	m    map[TxnID]*txn
	free []*txn
}

func newTxnStore() txnStore {
	return txnStore{m: make(map[TxnID]*txn)}
}

// begin registers a fresh transaction.
func (ts *txnStore) begin(id TxnID) (*txn, error) {
	if _, ok := ts.m[id]; ok {
		return nil, ErrDuplicateTxn
	}
	var t *txn
	if n := len(ts.free); n > 0 {
		t = ts.free[n-1]
		ts.free[n-1] = nil
		ts.free = ts.free[:n-1]
		visited := t.visited
		clear(visited)
		*t = txn{id: id, state: stActive, visited: visited}
	} else {
		t = &txn{id: id, state: stActive, visited: make(map[ObjectID]struct{})}
	}
	ts.m[id] = t
	return t, nil
}

// lookup returns the transaction or ErrUnknownTxn.
func (ts *txnStore) lookup(id TxnID) (*txn, error) {
	t, ok := ts.m[id]
	if !ok {
		return nil, ErrUnknownTxn
	}
	return t, nil
}

// get returns the transaction without an error wrapper.
func (ts *txnStore) get(id TxnID) (*txn, bool) {
	t, ok := ts.m[id]
	return t, ok
}

// forget drops a terminated transaction's bookkeeping and recycles the
// record.
func (ts *txnStore) forget(id TxnID) {
	if t, ok := ts.m[id]; ok && (t.state == stCommitted || t.state == stAborted) {
		delete(ts.m, id)
		t.blocked = nil
		ts.free = append(ts.free, t)
	}
}
