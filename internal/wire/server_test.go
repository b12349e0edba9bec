package wire

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// TestServerAnswersBadFrames: both planes read frames through the one
// server loop, and a malformed request is answered kErr under its own
// correlation id without costing the connection — a truncated trace
// block, an unknown kind, and on the participant plane a short payload
// and an unknown site id. The same connection then serves a good
// request, and Close is idempotent on both planes.
func TestServerAnswersBadFrames(t *testing.T) {
	cr, err := fault.New(core.Options{}, fault.NewMemLog())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeSites(SiteServerConfig{Addr: "127.0.0.1:0", Sites: map[uint16]dist.SiteBackend{0: cr}, Workload: "pushes:4"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	co, err := StartCoordinator(CoordinatorConfig{
		ClientAddr: "127.0.0.1:0",
		Daemons:    []DaemonSpec{{Listen: srv.Addr(), Sites: []uint16{0}}},
		Workload:   "pushes:4",
		DialWait:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	type frame struct {
		kind    uint8
		payload []byte
	}
	truncated := []byte{traceBlockKnown, 1, 2, 3} // the block promises 17 bytes
	site0 := appendU16(nil, 0)
	for _, plane := range []struct {
		name string
		addr string
		bad  []frame
		good frame
	}{
		{"participant", srv.Addr(), []frame{
			{kPing | kindTrace, truncated},
			{0x7f, site0},
			{kPing, []byte{0}},
			{kPing, appendU16(nil, 9)},
		}, frame{kPing, site0}},
		{"client", co.Addr(), []frame{
			{kCliStatus | kindTrace, truncated},
			{0x7f, nil},
		}, frame{kCliStatus, nil}},
	} {
		rc := dialRaw(t, plane.addr)
		for i, f := range plane.bad {
			if kind, r := rc.exchange(uint64(100+i), f.kind, f.payload); kind != kErr || r.errResp() == nil {
				t.Errorf("%s plane, frame %#x %v: answer kind %#x, want kErr with an error", plane.name, f.kind, f.payload, kind)
			}
		}
		if kind, r := rc.exchange(999, plane.good.kind, plane.good.payload); kind != kOK {
			t.Errorf("%s plane: good request after bad frames answered %#x (%v), want kOK", plane.name, kind, r.errResp())
		}
	}

	srv.Close()
	srv.Close()
	co.server.Close()
	co.server.Close()
}

// rawConn speaks frames on one raw TCP connection, one exchange at a
// time: a peer the test steers frame by frame.
type rawConn struct {
	t  *testing.T
	bw *bufio.Writer
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawConn{t: t, bw: bufio.NewWriter(nc), br: bufio.NewReader(nc)}
}

// exchange sends one request under corr and reads its answer, which
// must echo corr.
func (rc *rawConn) exchange(corr uint64, kind uint8, payload []byte) (uint8, *reader) {
	rc.t.Helper()
	if err := writeFrame(rc.bw, corr, kind, telemetry.TraceContext{}, payload); err != nil {
		rc.t.Fatal(err)
	}
	if err := rc.bw.Flush(); err != nil {
		rc.t.Fatal(err)
	}
	gotCorr, rkind, body, _, err := readFrame(rc.br, nil)
	if err != nil {
		rc.t.Fatalf("frame %#x: %v", kind, err)
	}
	if gotCorr != corr {
		rc.t.Fatalf("frame %#x: answered under corr %d, want %d", kind, gotCorr, corr)
	}
	return rkind, &reader{b: body}
}

// TestStaleConnectionIsFenced: once a newer connection adopted a site,
// the daemon refuses the site's transaction verbs from an older one —
// a frame of a dropped coordinator connection that arrives after the
// redial's adoption — as site-down without running them, a late adopt
// from the older connection included. The newer connection keeps the
// site, and probes stay open to the older one.
func TestStaleConnectionIsFenced(t *testing.T) {
	cr, err := fault.New(core.Options{}, fault.NewMemLog())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeSites(SiteServerConfig{Addr: "127.0.0.1:0", Sites: map[uint16]dist.SiteBackend{0: cr}, Workload: "pushes:4"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	site0 := appendU16(nil, 0)
	// A is accepted before B: its ping is answered before B dials.
	a := dialRaw(t, srv.Addr())
	if kind, _ := a.exchange(1, kPing, site0); kind != kOK {
		t.Fatal("ping on A refused")
	}
	b := dialRaw(t, srv.Addr())
	if kind, r := b.exchange(1, kRegister, appendU64(appendU16(nil, 0), 1)); kind != kOK {
		t.Fatalf("register on B: %v", r.errResp())
	}
	if kind, r := b.exchange(2, kAdopt, site0); kind != kOK {
		t.Fatalf("adopt on B: %v", r.errResp())
	}
	refused := func(what string, kind uint8, r *reader) {
		t.Helper()
		if kind != kErr {
			t.Fatalf("%s from the older connection answered %#x, want kErr", what, kind)
		}
		if err := r.errResp(); !errors.Is(err, fault.ErrSiteDown) {
			t.Fatalf("%s from the older connection: %v, want the site-down error", what, err)
		}
	}
	kind, r := a.exchange(2, kRequest, appendRequest(appendU16(nil, 0), 1, true, 1, push(1)))
	refused("a begin-flagged request", kind, r)
	if kind, r := b.exchange(3, kTxnState, appendU64(appendU16(nil, 0), 1)); kind != kOK || r.str() != "unknown" {
		t.Fatalf("the refused request ran: T1 is %q at the site, want unknown", r.str())
	}
	kind, r = a.exchange(3, kAdopt, site0)
	refused("a late adopt", kind, r)
	if kind, _ := a.exchange(4, kPing, site0); kind != kOK {
		t.Fatal("ping on the older connection refused; probes stay open")
	}
	if kind, r := b.exchange(4, kRequest, appendRequest(appendU16(nil, 0), 2, true, 1, push(2))); kind != kOK {
		t.Fatalf("B's request after A's late adopt: %v; B must keep the site", r.errResp())
	}
}
