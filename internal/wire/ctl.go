package wire

import (
	"errors"
	"time"

	"repro/internal/telemetry"
)

// ShutdownDaemon asks the site daemon at addr to exit (the wire
// protocol's shutdown request). The daemon acknowledges and then
// exits; a connection that dies right after the request was sent
// counts as success.
func ShutdownDaemon(addr string, wait time.Duration) error {
	p := NewPeer(PeerConfig{Addr: addr})
	if err := p.Connect(wait); err != nil {
		return err
	}
	defer p.Close()
	if _, err := p.call(kShutdown, telemetry.TraceContext{}, nil); err != nil && !errors.Is(err, ErrPeerDown) {
		return err
	}
	return nil
}

// PingDaemon checks the site daemon at addr answers the participant
// plane (sccctl's readiness probe).
func PingDaemon(addr string, sid uint16, wait time.Duration) error {
	p := NewPeer(PeerConfig{Addr: addr})
	if err := p.Connect(wait); err != nil {
		return err
	}
	defer p.Close()
	_, err := p.call(kPing, telemetry.TraceContext{}, appendU16(nil, sid))
	return err
}
