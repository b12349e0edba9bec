package wire

import (
	"bufio"
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
	// RedialDelay is the pause between reconnect attempts (default
	// 50ms). Redial runs until the peer is closed.
	RedialDelay time.Duration
	// Redial keeps a background loop re-dialling after a connection
	// loss. Without it the peer stays down until Connect is called
	// again.
	Redial bool
	// OnDown/OnUp observe connection-state transitions, called from
	// the peer's own goroutines with no peer lock held. OnUp fires
	// after every successful (re)connect, OnDown after every loss.
	// Both receive the connection incarnation the transition belongs
	// to: the callbacks race under rapid drop/redial cycles, and the
	// incarnation (monotone per dial; up precedes down within one)
	// lets the observer discard a stale event that lost the race to a
	// newer one.
	OnDown func(gen int)
	OnUp   func(gen int)
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
// in the background; OnDown/OnUp let the owner map connection state to
// cluster-level crash/restart handling.
type Peer struct {
	cfg PeerConfig

	mu      sync.Mutex
	conn    net.Conn
	bw      *bufio.Writer
	up      bool
	closed  bool
	corr    uint64
	pending map[uint64]chan resp
	gen     int // connection incarnation, so a stale reader cannot fail its successor
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
	return p.up
}

// Connect dials the peer, retrying until the deadline (a zero wait
// means one attempt). It is also the manual reconnect for peers
// without Redial.
func (p *Peer) Connect(wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		err := p.dialOnce()
		if err == nil {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("wire: connect %s: %w", p.cfg.Addr, err)
		}
		time.Sleep(p.cfg.RedialDelay)
	}
}

// dialOnce attempts one connection and installs it on success.
func (p *Peer) dialOnce() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPeerDown
	}
	if p.up {
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()
	conn, err := net.DialTimeout("tcp", p.cfg.Addr, p.cfg.DialTimeout)
	if err != nil {
		return err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	p.mu.Lock()
	if p.closed || p.up {
		p.mu.Unlock()
		conn.Close()
		if p.closed {
			return ErrPeerDown
		}
		return nil
	}
	p.conn = conn
	p.bw = bufio.NewWriterSize(conn, 64<<10)
	p.up = true
	p.gen++
	gen := p.gen
	p.mu.Unlock()
	if m := p.cfg.Metrics; m != nil && gen > 1 {
		m.Reconnects.Inc()
	}
	go p.readLoop(conn, gen)
	if p.cfg.OnUp != nil {
		p.cfg.OnUp(gen)
	}
	return nil
}

// readLoop routes responses to waiting calls until the connection
// dies, then runs the down transition for its own incarnation.
func (p *Peer) readLoop(conn net.Conn, gen int) {
	br := bufio.NewReaderSize(conn, 64<<10)
	var buf []byte
	for {
		corr, kind, payload, nbuf, err := readFrame(br, buf)
		if err != nil {
			p.connLost(conn, gen)
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

// connLost tears down one connection incarnation: every in-flight call
// fails with ErrPeerDown, OnDown fires, and (with Redial) the redial
// loop starts.
func (p *Peer) connLost(conn net.Conn, gen int) {
	p.mu.Lock()
	if p.gen != gen || !p.up {
		p.mu.Unlock()
		return
	}
	p.up = false
	p.conn = nil
	p.bw = nil
	failed := p.pending
	p.pending = make(map[uint64]chan resp)
	closed := p.closed
	p.mu.Unlock()
	conn.Close()
	for _, ch := range failed {
		ch <- resp{err: ErrPeerDown}
	}
	if closed {
		return
	}
	if p.cfg.OnDown != nil {
		p.cfg.OnDown(gen)
	}
	if p.cfg.Redial {
		go p.redialLoop()
	}
}

// redialLoop re-dials until the connection is back or the peer closes.
func (p *Peer) redialLoop() {
	for {
		p.mu.Lock()
		stop := p.closed || p.up
		p.mu.Unlock()
		if stop {
			return
		}
		if p.dialOnce() == nil {
			return
		}
		time.Sleep(p.cfg.RedialDelay)
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
	if p.closed || !p.up {
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
	if p.closed || !p.up {
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
	p.up = false
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
