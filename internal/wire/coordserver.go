package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// CoordConfig parameterises the coordinator's client-plane server.
type CoordConfig struct {
	// Addr is the TCP listen address for clients.
	Addr string
	// Cluster is the coordinator this server fronts.
	Cluster *dist.Cluster
	// Factory resolves object types for kCliRegister (nil rejects
	// remote registration). Comes from the cluster config's workload
	// spec, like the site daemons' factories.
	Factory func(core.ObjectID) (adt.Type, compat.Classifier)
	// Flight, when non-nil, is dumped before a panic in a request
	// handler takes the process down, so the crash leaves a black box.
	Flight *telemetry.FlightRecorder
}

// servedTxn is one client transaction's session state at the
// coordinator. It outlives its connection when a commit conversation
// is in flight: a client whose connection died mid-commit reconnects
// and resolves the outcome against this record (or, after a
// coordinator restart, against the decision log).
type servedTxn struct {
	t core.Txn

	mu         sync.Mutex
	committing bool
	finished   bool
	status     core.CommitStatus
	err        error
	done       chan struct{} // closed when the commit attempt returns
}

// cliConn is one accepted client connection and the transactions it
// owns.
type cliConn struct {
	conn net.Conn
	wmu  sync.Mutex
	bw   *bufio.Writer

	mu    sync.Mutex
	owned map[core.TxnID]*servedTxn
}

func (c *cliConn) send(corr uint64, kind uint8, payload []byte) {
	if corr == 0 {
		return
	}
	c.wmu.Lock()
	if err := writeFrame(c.bw, corr, kind, telemetry.TraceContext{}, payload); err == nil {
		_ = c.bw.Flush()
	}
	c.wmu.Unlock()
}

// CoordServer serves the client plane: core.Store calls from remote
// clients against the wrapped cluster, with exactly-once commit
// resolution across connection loss and coordinator restart.
type CoordServer struct {
	cfg CoordConfig
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]*cliConn
	txns   map[core.TxnID]*servedTxn
	closed bool
}

// ServeCoord starts the client-plane server on cfg.Addr.
func ServeCoord(cfg CoordConfig) (*CoordServer, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &CoordServer{
		cfg:   cfg,
		ln:    ln,
		conns: make(map[net.Conn]*cliConn),
		txns:  make(map[core.TxnID]*servedTxn),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *CoordServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and closes every client connection. Sessions
// mid-commit finish server-side; the cluster itself is not closed.
func (s *CoordServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

func (s *CoordServer) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
		cc := &cliConn{
			conn:  conn,
			bw:    bufio.NewWriterSize(conn, 64<<10),
			owned: make(map[core.TxnID]*servedTxn),
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = cc
		s.mu.Unlock()
		go s.readLoop(cc)
	}
}

// readLoop parses frames and runs each request in its own goroutine —
// client operations block (a Do parks until granted, a Wait until the
// real commit lands), and pipelining by correlation id keeps the
// connection usable underneath them.
func (s *CoordServer) readLoop(cc *cliConn) {
	defer s.connCleanup(cc)
	br := bufio.NewReaderSize(cc.conn, 64<<10)
	var buf []byte
	for {
		corr, kind, payload, nbuf, err := readFrame(br, buf)
		if err != nil {
			return
		}
		buf = nbuf
		kind, tc, payload, err := splitTrace(kind, payload)
		if err != nil {
			cc.send(corr, kErr, appendErrResp(nil, err))
			continue
		}
		body := append([]byte(nil), payload...)
		go s.handle(cc, corr, kind, tc, body)
	}
}

// connCleanup runs when a client connection dies: transactions the
// connection owned are rolled back — unless a commit conversation is
// in flight or finished, in which case the session detaches and waits
// for the client to reconnect and resolve (the decision, once logged,
// is gated on that resolution; see Cluster.GateDecision).
func (s *CoordServer) connCleanup(cc *cliConn) {
	s.mu.Lock()
	delete(s.conns, cc.conn)
	s.mu.Unlock()
	cc.conn.Close()
	cc.mu.Lock()
	owned := cc.owned
	cc.owned = make(map[core.TxnID]*servedTxn)
	cc.mu.Unlock()
	for id, sv := range owned {
		sv.mu.Lock()
		committing := sv.committing
		sv.mu.Unlock()
		if committing {
			continue // detached: resolve owns it now
		}
		s.mu.Lock()
		delete(s.txns, id)
		s.mu.Unlock()
		go sv.t.Abort()
	}
}

func (s *CoordServer) lookup(id core.TxnID) *servedTxn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.txns[id]
}

func (s *CoordServer) drop(id core.TxnID) {
	s.mu.Lock()
	delete(s.txns, id)
	s.mu.Unlock()
}

// handle executes one client request and answers it. A trace context
// on kCliBegin is a client-minted root: it is attached to the new
// transaction and overrides the coordinator's own sampling decision,
// so the client's trace id spans the whole cluster.
func (s *CoordServer) handle(cc *cliConn, corr uint64, kind uint8, tc telemetry.TraceContext, body []byte) {
	defer dumpOnPanic(s.cfg.Flight)
	r := &reader{b: body}
	fail := func(err error) { cc.send(corr, kErr, appendErrResp(nil, err)) }
	ok := func(payload []byte) { cc.send(corr, kOK, payload) }
	c := s.cfg.Cluster
	switch kind {
	case kCliBegin:
		t := c.Begin()
		if t.ID() == 0 {
			fail(core.ErrClosed)
			return
		}
		attachTrace(t, tc)
		sv := &servedTxn{t: t}
		s.mu.Lock()
		s.txns[t.ID()] = sv
		s.mu.Unlock()
		cc.mu.Lock()
		cc.owned[t.ID()] = sv
		cc.mu.Unlock()
		// The response carries the transaction's trace context (the
		// coordinator-minted one unless the client just overrode it), so
		// the client can adopt the cluster's trace id.
		b := appendU64(nil, uint64(t.ID()))
		if tt, okT := any(t).(interface {
			Trace() telemetry.TraceContext
		}); okT {
			ttc := tt.Trace()
			b = appendU64(b, ttc.Trace)
			b = appendU64(b, ttc.Span)
			b = appendU8(b, ttc.Flags)
		}
		ok(b)

	case kCliDo:
		id := core.TxnID(r.u64())
		obj := core.ObjectID(r.u64())
		op := r.op()
		if r.err != nil {
			fail(r.err)
			return
		}
		sv := s.lookup(id)
		if sv == nil {
			fail(fmt.Errorf("T%d: %w", id, core.ErrUnknownTxn))
			return
		}
		attachTrace(sv.t, tc)
		ret, err := sv.t.Do(obj, op)
		if err != nil {
			fail(err)
			return
		}
		ok(appendRet(nil, ret))

	case kCliCommit:
		id := core.TxnID(r.u64())
		if r.err != nil {
			fail(r.err)
			return
		}
		sv := s.lookup(id)
		if sv == nil {
			fail(fmt.Errorf("T%d: %w", id, core.ErrUnknownTxn))
			return
		}
		attachTrace(sv.t, tc)
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
			sv.status, sv.err, sv.finished = st, err, true
			close(sv.done)
			sv.mu.Unlock()
		}
		sv.mu.Lock()
		st, err := sv.status, sv.err
		sv.mu.Unlock()
		if err != nil {
			fail(err)
			return
		}
		ok(appendU8(nil, uint8(st)))

	case kCliAbort:
		id := core.TxnID(r.u64())
		if r.err != nil {
			fail(r.err)
			return
		}
		if sv := s.lookup(id); sv != nil {
			s.drop(id)
			cc.mu.Lock()
			delete(cc.owned, id)
			cc.mu.Unlock()
			if err := sv.t.Abort(); err != nil {
				fail(err)
				return
			}
		}
		ok(nil) // aborting an unknown (already cleaned) txn is a no-op

	case kCliWait:
		id := core.TxnID(r.u64())
		if r.err != nil {
			fail(r.err)
			return
		}
		sv := s.lookup(id)
		if sv == nil {
			// Coordinator restarted under the client: answer from the
			// decision log (logged = the commit will land; absent =
			// presumed abort).
			if committed := s.loggedCommit(id); committed {
				ok(appendU8(nil, 1))
			} else {
				b := appendU8(nil, 0)
				ok(appendErrResp(b, fmt.Errorf("T%d: %w", id,
					&core.ErrAborted{Txn: id, Reason: core.ReasonSiteFailed})))
			}
			return
		}
		<-sv.t.Done()
		if err := sv.t.Err(); err != nil {
			b := appendU8(nil, 0)
			ok(appendErrResp(b, err))
			return
		}
		ok(appendU8(nil, 1))

	case kCliResolve:
		id := core.TxnID(r.u64())
		if r.err != nil {
			fail(r.err)
			return
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
		var b []byte
		if committed {
			b = appendU8(nil, 1)
		} else {
			b = appendU8(nil, 0)
		}
		ok(b)

	case kCliAck:
		id := core.TxnID(r.u64())
		if r.err != nil {
			return // one-way
		}
		c.AckDecision(id)
		s.drop(id)
		cc.mu.Lock()
		delete(cc.owned, id)
		cc.mu.Unlock()

	case kCliStatus:
		b := appendU32(nil, uint32(c.NumSites()))
		for sid := 0; sid < c.NumSites(); sid++ {
			var down uint8
			if c.SiteDown(dist.SiteID(sid)) {
				down = 1
			}
			b = appendU8(b, down)
		}
		b = appendStats(b, c.Stats())
		var logLen uint64
		if l := c.DecisionLog(); l != nil {
			logLen = uint64(l.Len())
		}
		ok(appendU64(b, logLen))

	case kCliStateLen:
		obj := core.ObjectID(r.u64())
		committed := r.u8() == 1
		if r.err != nil {
			fail(r.err)
			return
		}
		site := c.Site(c.SiteOf(obj))
		var st adt.State
		var err error
		if committed {
			st, err = site.CommittedState(obj)
		} else {
			st, err = site.ObjectState(obj)
		}
		if err != nil {
			fail(err)
			return
		}
		n := -1
		if l, okLen := st.(interface{ Len() int }); okLen {
			n = l.Len()
		}
		b := appendStr(nil, st.String())
		ok(appendI64(b, int64(n)))

	case kCliRegister:
		obj := core.ObjectID(r.u64())
		if r.err != nil {
			fail(r.err)
			return
		}
		if s.cfg.Factory == nil {
			fail(fmt.Errorf("coordinator has no workload factory for registration"))
			return
		}
		typ, class := s.cfg.Factory(obj)
		if err := c.Register(obj, typ, class); err != nil {
			fail(err)
			return
		}
		ok(nil)

	default:
		fail(fmt.Errorf("unknown client request kind %#x", kind))
	}
}

// attachTrace hands a client-carried trace context to the transaction.
// A no-op for invalid contexts or transactions without tracing; for a
// context the transaction already carries it is an idempotent store.
func attachTrace(t core.Txn, tc telemetry.TraceContext) {
	if !tc.Valid() {
		return
	}
	if at, ok := any(t).(interface {
		AttachTrace(telemetry.TraceContext)
	}); ok {
		at.AttachTrace(tc)
	}
}

// loggedCommit consults the decision log for a transaction with no
// live session: under presumed abort, a logged commit is the only way
// the transaction committed.
func (s *CoordServer) loggedCommit(id core.TxnID) bool {
	l := s.cfg.Cluster.DecisionLog()
	if l == nil {
		return false
	}
	o, ok := l.Lookup(id)
	return ok && o == fault.OutcomeCommit
}
