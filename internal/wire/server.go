package wire

import (
	"bufio"
	"net"
	"sync"

	"repro/internal/telemetry"
)

// server is the accept/read/send loop both planes run on: one
// listener, the set of open connections, one frame read loop per
// connection, and a write-locked send. A plane embeds it and supplies
// the dispatch function that takes each request off the read loop; the
// dispatch function alone decides how the request executes, because
// each plane's execution model is what makes it correct (see
// coordServer.dispatch and SiteServer.dispatch).
type server struct {
	ln net.Listener
	// dispatch takes one request frame off a connection's read loop.
	// rq.body aliases the read buffer: dispatch copies what outlives it.
	dispatch func(rq request)
	// hangup, when set, runs once a connection's read loop has ended
	// and the connection is closed.
	hangup func(c *srvConn)
	// done closes with Close, releasing anything parked on the plane.
	done chan struct{}

	mu     sync.Mutex
	conns  map[*srvConn]struct{}
	closed bool
}

// srvConn is one accepted connection. Its writer is locked because
// several goroutines answer onto it: the client plane's per-request
// goroutines, the participant plane's site workers.
type srvConn struct {
	nc  net.Conn
	seq uint64 // accept order on this server: a later connection has a larger seq
	wmu sync.Mutex
	bw  *bufio.Writer
}

// request is one decoded request frame: the connection to answer on,
// the correlation id to echo, the base kind, the trace context (zero
// when the frame had none) and the payload.
type request struct {
	c    *srvConn
	corr uint64
	kind uint8
	tc   telemetry.TraceContext
	body []byte
}

// send writes one response frame and flushes it. Correlation id 0 is a
// one-way request: nothing is sent.
func (c *srvConn) send(corr uint64, kind uint8, payload []byte) {
	if corr == 0 {
		return
	}
	c.wmu.Lock()
	if err := writeFrame(c.bw, corr, kind, telemetry.TraceContext{}, payload); err == nil {
		_ = c.bw.Flush()
	}
	c.wmu.Unlock()
}

// start listens on addr and accepts connections in the background.
func (s *server) start(addr string, dispatch func(request), hangup func(*srvConn)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln, s.dispatch, s.hangup = ln, dispatch, hangup
	s.done = make(chan struct{})
	s.conns = make(map[*srvConn]struct{})
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listen address.
func (s *server) Addr() string { return s.ln.Addr().String() }

// Close stops the server: the listener and every connection close and
// done is closed. Idempotent. What the plane serves (a cluster, site
// backends) is left as it is.
func (s *server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.done)
	s.ln.Close()
	for c := range s.conns {
		c.nc.Close()
	}
}

func (s *server) acceptLoop() {
	for seq := uint64(1); ; seq++ {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
		c := &srvConn{nc: nc, seq: seq, bw: bufio.NewWriterSize(nc, 64<<10)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go s.readLoop(c)
	}
}

// readLoop parses frames off one connection until it dies. A frame
// whose trace block does not decode is answered kErr here, and the
// connection keeps serving; every other frame goes to dispatch.
func (s *server) readLoop(c *srvConn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.nc.Close()
		if s.hangup != nil {
			s.hangup(c)
		}
	}()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var buf []byte
	for {
		corr, kind, payload, nbuf, err := readFrame(br, buf)
		if err != nil {
			return
		}
		buf = nbuf
		kind, tc, payload, err := splitTrace(kind, payload)
		if err != nil {
			c.send(corr, kErr, appendErrResp(nil, err))
			continue
		}
		s.dispatch(request{c: c, corr: corr, kind: kind, tc: tc, body: payload})
	}
}

// errReply is a request handler's kErr answer.
func errReply(err error) (uint8, []byte) { return kErr, appendErrResp(nil, err) }

// dumpOnPanic (deferred in request handlers) writes the flight
// recorder's black box before letting a panic take the process down,
// so even an invariant-violation crash leaves a post-mortem artifact.
func dumpOnPanic(fr *telemetry.FlightRecorder) {
	if r := recover(); r != nil {
		if fr != nil {
			_, _ = fr.DumpOnce("panic")
		}
		panic(r)
	}
}
