package wire

import (
	"fmt"
	"sync"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// servedTxn is one client transaction's session state at the
// coordinator. It outlives its connection when a commit conversation
// is in flight: a client whose connection died mid-commit reconnects
// and resolves the outcome against this record (or, after a
// coordinator restart, against the decision log).
type servedTxn struct {
	t    core.Txn
	conn *srvConn // the connection that began it; its hangup rolls it back

	mu         sync.Mutex
	committing bool
	status     core.CommitStatus
	err        error
	done       chan struct{} // closed when the commit attempt returns
}

// coordServer serves the client plane: core.Store calls from remote
// clients against the wrapped cluster, with exactly-once commit
// resolution across connection loss and coordinator restart.
type coordServer struct {
	server
	cluster *dist.Cluster
	// factory resolves object types for kCliRegister (nil rejects
	// remote registration); it comes from the cluster config's workload
	// spec, like the site daemons' factories.
	factory func(core.ObjectID) (adt.Type, compat.Classifier)
	// flight, when non-nil, is dumped before a panic in a request
	// handler takes the process down.
	flight *telemetry.FlightRecorder

	tmu  sync.Mutex // guards txns
	txns map[core.TxnID]*servedTxn
}

// dispatch runs each client request in its own goroutine: a Do parks
// until granted and a Wait until the real commit lands, and pipelining
// by correlation id must keep the connection flowing underneath them.
func (s *coordServer) dispatch(rq request) {
	rq.body = append([]byte(nil), rq.body...)
	go s.serve(rq)
}

func (s *coordServer) serve(rq request) {
	defer dumpOnPanic(s.flight)
	kind, payload := s.handle(rq)
	rq.c.send(rq.corr, kind, payload)
}

// connCleanup runs when a client connection dies: transactions the
// connection began are rolled back — unless a commit conversation is
// in flight or finished, in which case the session detaches and waits
// for the client to reconnect and resolve (the decision, once logged,
// is gated on that resolution; see Cluster.GateDecision).
func (s *coordServer) connCleanup(c *srvConn) {
	var orphans []core.Txn
	s.tmu.Lock()
	for id, sv := range s.txns {
		if sv.conn != c {
			continue
		}
		sv.mu.Lock()
		committing := sv.committing
		sv.mu.Unlock()
		if committing {
			continue // detached: resolve owns it now
		}
		delete(s.txns, id)
		orphans = append(orphans, sv.t)
	}
	s.tmu.Unlock()
	for _, t := range orphans {
		go t.Abort()
	}
}

func (s *coordServer) lookup(id core.TxnID) *servedTxn {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	return s.txns[id]
}

func (s *coordServer) drop(id core.TxnID) {
	s.tmu.Lock()
	delete(s.txns, id)
	s.tmu.Unlock()
}

// open begins a transaction and registers its session on the
// connection that asked, whose hangup rolls it back.
func (s *coordServer) open(c *srvConn) (*servedTxn, error) {
	t := s.cluster.Begin()
	if t.ID() == 0 {
		return nil, core.ErrClosed
	}
	sv := &servedTxn{t: t, conn: c}
	s.tmu.Lock()
	s.txns[t.ID()] = sv
	s.tmu.Unlock()
	return sv, nil
}

// handle executes one client request and builds its answer.
func (s *coordServer) handle(rq request) (uint8, []byte) {
	r := &reader{b: rq.body}
	c := s.cluster
	switch rq.kind {
	case kCliBegin:
		sv, err := s.open(rq.c)
		if err != nil {
			return errReply(err)
		}
		return kOK, appendU64(nil, uint64(sv.t.ID()))

	case kCliDo:
		id := core.TxnID(r.u64())
		obj := core.ObjectID(r.u64())
		op := r.op()
		if r.err != nil {
			return errReply(r.err)
		}
		// Id 0 is a transaction's first Do: begin the session here and
		// name it before the Ret.
		var b []byte
		var sv *servedTxn
		if id == 0 {
			var err error
			if sv, err = s.open(rq.c); err != nil {
				return errReply(err)
			}
			id = sv.t.ID()
			b = appendU64(nil, uint64(id))
		} else if sv = s.lookup(id); sv == nil {
			return errReply(fmt.Errorf("T%d: %w", id, core.ErrUnknownTxn))
		}
		ret, err := sv.t.Do(obj, op)
		if err != nil {
			if b != nil {
				// The client never learns this id, so nothing it sends
				// can end the session: end it here.
				s.drop(id)
				_ = sv.t.Abort() // a no-op when the Do already aborted it
			}
			return errReply(err)
		}
		return kOK, appendRet(b, ret)

	case kCliCommit:
		id := core.TxnID(r.u64())
		if r.err != nil {
			return errReply(r.err)
		}
		sv := s.lookup(id)
		if sv == nil {
			return errReply(fmt.Errorf("T%d: %w", id, core.ErrUnknownTxn))
		}
		sv.mu.Lock()
		if sv.committing {
			// A duplicate commit (client retried on a blip that did not
			// actually kill the session): wait for the first attempt.
			done := sv.done
			sv.mu.Unlock()
			<-done
		} else {
			sv.committing = true
			sv.done = make(chan struct{})
			sv.mu.Unlock()
			// Gate the decision before the conversation can log it: if
			// the connection dies before the client learns the outcome,
			// the log entry survives for resolution.
			c.GateDecision(id)
			st, err := sv.t.Commit()
			sv.mu.Lock()
			sv.status, sv.err = st, err
			close(sv.done)
			sv.mu.Unlock()
		}
		sv.mu.Lock()
		st, err := sv.status, sv.err
		sv.mu.Unlock()
		if err != nil {
			return errReply(err)
		}
		return kOK, appendU8(nil, uint8(st))

	case kCliAbort:
		id := core.TxnID(r.u64())
		if r.err != nil {
			return errReply(r.err)
		}
		if sv := s.lookup(id); sv != nil {
			s.drop(id)
			if err := sv.t.Abort(); err != nil {
				return errReply(err)
			}
		}
		return kOK, nil // aborting an unknown (already cleaned) txn is a no-op

	case kCliWait:
		id := core.TxnID(r.u64())
		if r.err != nil {
			return errReply(r.err)
		}
		sv := s.lookup(id)
		if sv == nil {
			// Coordinator restarted under the client: answer from the
			// decision log (logged = the commit will land; absent =
			// presumed abort).
			if s.loggedCommit(id) {
				return kOK, appendU8(nil, 1)
			}
			return kOK, appendErrResp(appendU8(nil, 0), fmt.Errorf("T%d: %w", id,
				&core.ErrAborted{Txn: id, Reason: core.ReasonSiteFailed}))
		}
		<-sv.t.Done()
		if err := sv.t.Err(); err != nil {
			return kOK, appendErrResp(appendU8(nil, 0), err)
		}
		return kOK, appendU8(nil, 1)

	case kCliResolve:
		id := core.TxnID(r.u64())
		if r.err != nil {
			return errReply(r.err)
		}
		committed := false
		if sv := s.lookup(id); sv != nil {
			sv.mu.Lock()
			committing, done := sv.committing, sv.done
			sv.mu.Unlock()
			if committing {
				<-done // the in-flight conversation decides the answer
				sv.mu.Lock()
				committed = sv.err == nil
				sv.mu.Unlock()
			}
			// A session that never reached commit resolves as abort; the
			// connection cleanup (possibly still pending) rolls it back.
		} else {
			committed = s.loggedCommit(id)
		}
		return kOK, appendBool(nil, committed)

	case kCliAck:
		id := core.TxnID(r.u64())
		if r.err == nil { // one-way (corr 0): a bad ack is dropped unanswered
			c.AckDecision(id)
			s.drop(id)
		}
		return kOK, nil

	case kCliStatus:
		b := appendU32(nil, uint32(c.NumSites()))
		for sid := 0; sid < c.NumSites(); sid++ {
			b = appendBool(b, c.SiteDown(dist.SiteID(sid)))
		}
		b = appendStats(b, c.Stats())
		return kOK, appendU64(b, uint64(c.DecisionLog().Len()))

	case kCliStateLen:
		return stateSummary(r, func(obj core.ObjectID) dist.SiteBackend { return c.Site(c.SiteOf(obj)) })

	case kCliRegister:
		obj := core.ObjectID(r.u64())
		if r.err != nil {
			return errReply(r.err)
		}
		if s.factory == nil {
			return errReply(fmt.Errorf("coordinator has no workload factory for registration"))
		}
		typ, class := s.factory(obj)
		if err := c.Register(obj, typ, class); err != nil {
			return errReply(err)
		}
		return kOK, nil
	}
	return errReply(fmt.Errorf("unknown client request kind %#x", rq.kind))
}

// stateSummary answers a state-len request on either plane: it reads
// the object id and the committed flag, and reports the object's state
// at the backend site(obj) picks as its description and length (-1
// when the type has none) — the summary RemoteState decodes.
func stateSummary(r *reader, site func(core.ObjectID) dist.SiteBackend) (uint8, []byte) {
	obj := core.ObjectID(r.u64())
	committed := r.u8() == 1
	if r.err != nil {
		return errReply(r.err)
	}
	b := site(obj)
	var st adt.State
	var err error
	if committed {
		st, err = b.CommittedState(obj)
	} else {
		st, err = b.ObjectState(obj)
	}
	if err != nil {
		return errReply(err)
	}
	n := -1
	if l, ok := st.(interface{ Len() int }); ok {
		n = l.Len()
	}
	return kOK, appendI64(appendStr(nil, st.String()), int64(n))
}

// loggedCommit consults the decision log for a transaction with no
// live session: under presumed abort, a logged commit is the only way
// the transaction committed.
func (s *coordServer) loggedCommit(id core.TxnID) bool {
	l := s.cluster.DecisionLog()
	if l == nil {
		return false
	}
	o, ok := l.Lookup(id)
	return ok && o == fault.OutcomeCommit
}
