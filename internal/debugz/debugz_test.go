package debugz

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/internal/workload"
)

func httpGet(t *testing.T, addr, path string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestDebugPlaneEndToEnd drives a real loopback deployment — one site
// daemon, a coordinator with a hold policy and tracing, both debug
// planes — through a conversation-heavy load, then scrapes /metrics,
// /statusz and /tracez and asserts the instruments observed the run:
// phase histograms populated, PolicyStats surfaced, per-verb RTTs
// recorded, and the decision-log conservation invariant (logged +
// adopted == resolved + live, live == 0) holding at quiesce.
func TestDebugPlaneEndToEnd(t *testing.T) {
	const spec = "pushes:32"
	sites := make(map[uint16]dist.SiteBackend, 2)
	for sid := uint16(0); sid < 2; sid++ {
		cr, err := fault.New(core.Options{}, fault.NewMemLog())
		if err != nil {
			t.Fatal(err)
		}
		sites[sid] = cr
	}
	srv, err := wire.ServeSites(wire.SiteServerConfig{Addr: "127.0.0.1:0", Sites: sites, Workload: spec})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spans := telemetry.NewSpanBuffer(1024, 0, 0)
	co, err := wire.StartCoordinator(wire.CoordinatorConfig{
		ClientAddr: "127.0.0.1:0",
		Daemons:    []wire.DaemonSpec{{Listen: srv.Addr(), Sites: []uint16{0, 1}}},
		Workload:   spec,
		DialWait:   2 * time.Second,
		Policy:     dist.DepthBound{Max: 8},
		Spans:      spans,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	dbg, err := Serve(Config{Addr: "127.0.0.1:0", Role: "coord", Cluster: co.Cluster, Wire: co.WireMetrics(), Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	// The site plane runs the cluster file's default sample rate (0):
	// its /statusz must report the rate its sampler uses, as the
	// coordinator's does.
	sdbg, err := Serve(Config{Addr: "127.0.0.1:0", Role: "site", Sites: sites, Spans: telemetry.NewSpanBuffer(64, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer sdbg.Close()

	cl, err := wire.Dial(co.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := workload.RunLoad(cl, workload.LoadConfig{
		Workload:        workload.Sharded{Inner: workload.Pushes{DBSize: 32}, Sites: 2, CrossProb: 0.5},
		Workers:         4,
		TxnsPerWorker:   25,
		Seed:            1,
		MaxRestarts:     10000,
		RetryHeldAborts: true,
	}); err != nil {
		t.Fatal(err)
	}

	metrics := string(httpGet(t, dbg.Addr(), "/metrics"))
	for _, want := range []string{
		"scc_sched_commits_total",
		"scc_conversations_total",
		`scc_phase_nanos_bucket{phase="hold",le="+Inf"}`,
		`scc_phase_nanos_bucket{phase="decide",le="+Inf"}`,
		"scc_wave_size_count",
		"scc_decisions_logged_total",
		`scc_policy_tail_aborts_total{policy="depth=8"}`,
		`scc_wire_rtt_nanos_count{verb="request"}`,
		`scc_site_up{site="0"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("coordinator /metrics missing %q", want)
		}
	}

	var st Statusz
	deadline := time.Now().Add(5 * time.Second)
	for {
		// A fresh document per poll: decoding into the previous one
		// would keep any field the new poll omits.
		st = Statusz{}
		if err := json.Unmarshal(httpGet(t, dbg.Addr(), "/statusz"), &st); err != nil {
			t.Fatal(err)
		}
		// Quiesce: the client has acked every outcome, so every logged
		// decision must be resolved and none live.
		if st.LiveDecisions == 0 && st.DecisionsLogged+st.DecisionsAdopted == st.DecisionsResolved {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("conservation violated at quiesce: logged=%d adopted=%d resolved=%d live=%d",
				st.DecisionsLogged, st.DecisionsAdopted, st.DecisionsResolved, st.LiveDecisions)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.Role != "coord" || st.Policy != "depth=8" {
		t.Errorf("statusz role/policy = %q/%q", st.Role, st.Policy)
	}
	if st.Stats == nil || st.Stats.Commits == 0 {
		t.Errorf("statusz stats missing or empty: %+v", st.Stats)
	}
	if st.PolicyStats == nil {
		t.Errorf("statusz policy_stats missing")
	}
	if st.Conversations == 0 && st.FastCommits == 0 {
		t.Errorf("no commits observed: %+v", st)
	}
	if st.Wire == nil || st.Wire.FramesOut == 0 || st.Wire.BytesOut == 0 {
		t.Errorf("wire block missing or empty: %+v", st.Wire)
	}

	var doc SpanzDoc
	if err := json.Unmarshal(httpGet(t, dbg.Addr(), "/tracez"), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Process != "coord" || len(doc.Spans) == 0 {
		t.Errorf("tracez = process %q with %d spans, want the coordinator's span ring", doc.Process, len(doc.Spans))
	}
	if st.Tracing == nil || st.Tracing.SpanLen == 0 {
		t.Errorf("statusz tracing block = %+v, want the span ring's fill", st.Tracing)
	}

	siteMetrics := string(httpGet(t, sdbg.Addr(), "/metrics"))
	if !strings.Contains(siteMetrics, `scc_sched_commits_total{site="0"}`) ||
		!strings.Contains(siteMetrics, `scc_sched_commits_total{site="1"}`) {
		t.Errorf("site daemon /metrics missing per-site commit counters")
	}
	if !strings.Contains(siteMetrics, `scc_sched_blocked{site="0"}`) ||
		!strings.Contains(siteMetrics, `scc_sched_blocked{site="1"}`) {
		t.Errorf("site daemon /metrics missing per-site blocked-depth gauges")
	}
	var sst Statusz
	if err := json.Unmarshal(httpGet(t, sdbg.Addr(), "/statusz"), &sst); err != nil {
		t.Fatal(err)
	}
	if sst.Role != "site" || len(sst.SiteStats) != 2 {
		t.Errorf("site statusz role=%q sites=%d", sst.Role, len(sst.SiteStats))
	}
	if sst.Tracing == nil || sst.Tracing.SampleRate != 1 {
		t.Errorf("site statusz tracing = %+v, want sample_rate 1 like the coordinator's", sst.Tracing)
	}
}
