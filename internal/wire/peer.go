package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// PeerConfig parameterises a Peer.
type PeerConfig struct {
	// Addr is the remote daemon's TCP address.
	Addr string
	// DialTimeout bounds one dial attempt (default 2s).
	DialTimeout time.Duration
	// RedialDelay is the pause between Connect's attempts, and the
	// redial loop's pause after a failed dial or a failed OnUp
	// (default 50ms); the first redial after a loss is immediate.
	// Redial runs until the peer is closed.
	RedialDelay time.Duration
	// Redial keeps a background loop re-dialling after a connection
	// loss, and after a Connect that gave up. Without it the peer stays
	// down until Connect is called again.
	Redial bool
	// OnUp and OnDown map connection state onto the owner's model. The
	// peer calls them with no peer lock held, one at a time and in
	// order. OnUp runs once a connection is established, before Connect
	// returns; calls on the peer work inside it. An OnUp error drops the
	// connection, so the redial loop is its only retry. OnDown runs once
	// per lost connection, after its in-flight calls failed and its OnUp
	// returned, and once when Connect gives up; the next dial starts
	// only after it returned.
	OnDown func()
	OnUp   func() error
	// Metrics, when set, counts frames/bytes both ways, tracks the
	// outstanding-call depth, reconnects, and per-verb round-trip
	// latency. Typically one shared instance across all of a
	// coordinator's peers.
	Metrics *telemetry.WireMetrics
}

// resp is one response as delivered to a waiting call.
type resp struct {
	kind    uint8
	payload []byte
	err     error
}

// Peer is one pipelined connection to a remote daemon. Any number of
// goroutines may call concurrently: each request gets a fresh
// correlation id, frames interleave on the connection, and the reader
// loop routes responses back by id. A lost connection fails every
// in-flight call with ErrPeerDown and (with Redial) keeps re-dialling
// in the background; OnUp/OnDown let the owner map connection state to
// cluster-level crash/restart handling.
type Peer struct {
	cfg PeerConfig

	mu      sync.Mutex
	conn    net.Conn // nil while the peer is down
	bw      *bufio.Writer
	closed  bool
	corr    uint64
	pending map[uint64]chan resp
	dials   int // connections made, so the metrics count reconnects
}

// NewPeer returns an unconnected peer; Connect establishes the first
// connection.
func NewPeer(cfg PeerConfig) *Peer {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.RedialDelay <= 0 {
		cfg.RedialDelay = 50 * time.Millisecond
	}
	return &Peer{cfg: cfg, pending: make(map[uint64]chan resp)}
}

// Addr returns the configured remote address.
func (p *Peer) Addr() string { return p.cfg.Addr }

// Up reports whether the connection is currently established.
func (p *Peer) Up() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn != nil
}

// Connect dials the peer, retrying until the deadline (a zero wait
// means one attempt), and returns once the connection's OnUp did. A
// Connect that gives up runs OnDown, as the daemon is down, and with
// Redial leaves the redial loop dialling in the background. Without
// Redial it is also the manual reconnect.
func (p *Peer) Connect(wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		made, err := p.dialOnce()
		if made || errors.Is(err, ErrPeerDown) {
			return err
		}
		if !time.Now().Before(deadline) {
			p.down(true)
			return fmt.Errorf("wire: connect %s: %w", p.cfg.Addr, err)
		}
		time.Sleep(p.cfg.RedialDelay)
	}
}

// dialOnce makes one connection attempt. A connection it makes starts
// an incarnation: installed, its reader started, OnUp run. It reports
// whether a connection was made (or was already up); err is the
// dial's error or OnUp's.
func (p *Peer) dialOnce() (bool, error) {
	p.mu.Lock()
	closed, up := p.closed, p.conn != nil
	p.mu.Unlock()
	if closed {
		return false, ErrPeerDown
	}
	if up {
		return true, nil
	}
	conn, err := net.DialTimeout("tcp", p.cfg.Addr, p.cfg.DialTimeout)
	if err != nil {
		return false, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	p.mu.Lock()
	if p.closed || p.conn != nil {
		p.mu.Unlock()
		conn.Close()
		if p.closed {
			return false, ErrPeerDown
		}
		return true, nil
	}
	p.conn = conn
	p.bw = bufio.NewWriterSize(conn, 64<<10)
	p.dials++
	dials := p.dials
	p.mu.Unlock()
	if m := p.cfg.Metrics; m != nil && dials > 1 {
		m.Reconnects.Inc()
	}
	upDone := make(chan error, 1)
	go p.readLoop(conn, upDone)
	if p.cfg.OnUp != nil {
		err = p.cfg.OnUp()
	}
	upDone <- err
	if err != nil {
		conn.Close() // the reader runs this incarnation's down
	}
	return true, err
}

// readLoop routes responses to waiting calls until the connection
// dies, then runs the down transition for its own incarnation.
func (p *Peer) readLoop(conn net.Conn, upDone <-chan error) {
	br := bufio.NewReaderSize(conn, 64<<10)
	var buf []byte
	for {
		corr, kind, payload, nbuf, err := readFrame(br, buf)
		if err != nil {
			p.connLost(conn, upDone)
			return
		}
		buf = nbuf
		if m := p.cfg.Metrics; m != nil {
			m.FramesIn.Inc()
			m.BytesIn.Add(uint64(frameOverhead + len(payload)))
		}
		body := append([]byte(nil), payload...) // reader buffer is reused
		p.mu.Lock()
		ch := p.pending[corr]
		delete(p.pending, corr)
		if m := p.cfg.Metrics; m != nil {
			m.Pipeline.Set(int64(len(p.pending)))
		}
		p.mu.Unlock()
		if ch != nil {
			ch <- resp{kind: kind, payload: body}
		}
	}
}

// connLost ends one connection incarnation, in order: every in-flight
// call fails with ErrPeerDown, the incarnation's OnUp is waited out,
// and then the down transition runs, its redial paced when OnUp
// failed. A connection Close already tore down has no down transition.
func (p *Peer) connLost(conn net.Conn, upDone <-chan error) {
	p.mu.Lock()
	if p.conn != conn {
		p.mu.Unlock()
		return
	}
	p.conn = nil
	p.bw = nil
	failed := p.pending
	p.pending = make(map[uint64]chan resp)
	p.mu.Unlock()
	conn.Close()
	for _, ch := range failed {
		ch <- resp{err: ErrPeerDown}
	}
	p.down(<-upDone != nil)
}

// down runs OnDown and then, with Redial, starts the redial loop;
// paced delays its first attempt by RedialDelay.
func (p *Peer) down(paced bool) {
	if p.cfg.OnDown != nil {
		p.cfg.OnDown()
	}
	if p.cfg.Redial {
		go p.redialLoop(paced)
	}
}

// redialLoop re-dials, RedialDelay apart, until a connection is made
// or the peer closes.
func (p *Peer) redialLoop(paced bool) {
	for ; ; paced = true {
		if paced {
			time.Sleep(p.cfg.RedialDelay)
		}
		if made, err := p.dialOnce(); made || errors.Is(err, ErrPeerDown) {
			return
		}
	}
}

// roundTrip sends one request and waits for its response frame. A
// valid trace context rides the request frame's trace block so the
// remote process records its spans into the same trace; the zero
// context writes no trace block.
func (p *Peer) roundTrip(kind uint8, tc telemetry.TraceContext, payload []byte) (uint8, []byte, error) {
	m := p.cfg.Metrics
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	p.mu.Lock()
	if p.conn == nil { // down, or closed
		p.mu.Unlock()
		return 0, nil, ErrPeerDown
	}
	p.corr++
	corr := p.corr
	ch := make(chan resp, 1)
	p.pending[corr] = ch
	if m != nil {
		m.FramesOut.Inc()
		m.BytesOut.Add(uint64(frameOverhead + len(payload)))
		m.Pipeline.Set(int64(len(p.pending)))
	}
	err := writeFrame(p.bw, corr, kind, tc, payload)
	if err == nil {
		err = p.bw.Flush()
	}
	if err != nil {
		delete(p.pending, corr)
		conn := p.conn
		p.mu.Unlock()
		if conn != nil {
			conn.Close() // the reader observes the close and runs connLost
		}
		return 0, nil, fmt.Errorf("%w (write: %v)", ErrPeerDown, err)
	}
	p.mu.Unlock()
	r := <-ch
	if m != nil && r.err == nil {
		m.RTT(kind).Observe(uint64(time.Since(start)))
	}
	return r.kind, r.payload, r.err
}

// call is roundTrip plus the kOK/kErr convention: a kErr response is
// decoded into its typed error, a kOK response returned as a payload
// reader.
func (p *Peer) call(kind uint8, tc telemetry.TraceContext, payload []byte) (*reader, error) {
	rkind, body, err := p.roundTrip(kind, tc, payload)
	if err != nil {
		return nil, err
	}
	r := &reader{b: body}
	if rkind == kErr {
		return nil, r.errResp()
	}
	if rkind != kOK {
		return nil, fmt.Errorf("wire: unexpected response kind %#x", rkind)
	}
	return r, nil
}

// oneway sends a request that expects no response (correlation id 0).
func (p *Peer) oneway(kind uint8, payload []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil { // down, or closed
		return
	}
	if m := p.cfg.Metrics; m != nil {
		m.FramesOut.Inc()
		m.BytesOut.Add(uint64(frameOverhead + len(payload)))
	}
	if err := writeFrame(p.bw, 0, kind, telemetry.TraceContext{}, payload); err == nil {
		_ = p.bw.Flush()
	}
}

// DropConnection closes the current connection without closing the
// peer — fault injection for tests and chaos tooling. In-flight calls
// fail with ErrPeerDown and, with Redial, the background loop brings
// the connection back.
func (p *Peer) DropConnection() {
	p.mu.Lock()
	conn := p.conn
	p.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// Close shuts the peer down: the connection is closed, in-flight calls
// fail, redial stops.
func (p *Peer) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	conn := p.conn
	p.conn = nil
	p.bw = nil
	failed := p.pending
	p.pending = make(map[uint64]chan resp)
	p.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	for _, ch := range failed {
		ch <- resp{err: ErrPeerDown}
	}
}
