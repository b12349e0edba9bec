package wire

import (
	"bufio"
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
		nc, err := net.Dial("tcp", plane.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
		bw, br := bufio.NewWriter(nc), bufio.NewReader(nc)
		exchange := func(corr uint64, f frame) (uint8, *reader) {
			t.Helper()
			if err := writeFrame(bw, corr, f.kind, telemetry.TraceContext{}, f.payload); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			gotCorr, kind, body, _, err := readFrame(br, nil)
			if err != nil {
				t.Fatalf("%s plane, frame %#x: %v", plane.name, f.kind, err)
			}
			if gotCorr != corr {
				t.Fatalf("%s plane, frame %#x: answered under corr %d, want %d", plane.name, f.kind, gotCorr, corr)
			}
			return kind, &reader{b: body}
		}
		for i, f := range plane.bad {
			if kind, r := exchange(uint64(100+i), f); kind != kErr || r.errResp() == nil {
				t.Errorf("%s plane, frame %#x %v: answer kind %#x, want kErr with an error", plane.name, f.kind, f.payload, kind)
			}
		}
		if kind, r := exchange(999, plane.good); kind != kOK {
			t.Errorf("%s plane: good request after bad frames answered %#x (%v), want kOK", plane.name, kind, r.errResp())
		}
	}

	srv.Close()
	srv.Close()
	co.server.Close()
	co.server.Close()
}
