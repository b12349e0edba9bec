// Package debugz is a daemon's opt-in HTTP observability plane:
// /metrics (Prometheus text), /statusz (JSON), /tracez (the span ring)
// and net/http/pprof, served next to — not through — the wire
// transport's listeners.
package debugz

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Config parameterises Serve, the opt-in observability plane a daemon
// exposes next to its wire listener. Exactly one of Cluster
// (coordinator role) or Sites (site-daemon role) should be set; Wire
// optionally adds the transport instrument block to a coordinator.
type Config struct {
	// Addr is the HTTP listen address ("127.0.0.1:0" picks a port).
	Addr string
	// Role labels the process in /statusz ("coord" or "site").
	Role string
	// Cluster, when set, serves the coordinator view: cluster-wide
	// scheduler counters, conversation phase histograms, decision-log
	// conservation counters, hold-policy state, and /tracez.
	Cluster *dist.Cluster
	// Wire, when set, adds frame/byte/RTT transport metrics.
	Wire *telemetry.WireMetrics
	// Sites, when set, serves the site-daemon view: each local
	// backend's scheduler counters under a site label.
	Sites map[uint16]dist.SiteBackend
	// Process labels this process in exported Chrome traces and flight
	// dumps; empty falls back to Role.
	Process string
	// Spans/Flight expose the process's span plane — its one event
	// ring, with the sampler /statusz reports — and the recorder that
	// dumps it on /tracez and /statusz; nil leaves them out.
	Spans  *telemetry.SpanBuffer
	Flight *telemetry.FlightRecorder
}

// processName labels this process in trace exports.
func (cfg Config) processName() string {
	if cfg.Process != "" {
		return cfg.Process
	}
	return cfg.Role
}

// mergedSpans returns the span ring's snapshot with pinned exemplar
// spans appended, deduplicated by (trace, span id) — an exemplar's
// spans may still be live in the ring.
func mergedSpans(sb *telemetry.SpanBuffer) []telemetry.Span {
	if sb == nil {
		return []telemetry.Span{}
	}
	spans := sb.Snapshot()
	seen := make(map[[2]uint64]struct{}, len(spans))
	for _, s := range spans {
		seen[[2]uint64{s.Trace, s.ID}] = struct{}{}
	}
	for _, ex := range sb.Exemplars() {
		for _, s := range ex.Spans {
			if _, dup := seen[[2]uint64{s.Trace, s.ID}]; !dup {
				seen[[2]uint64{s.Trace, s.ID}] = struct{}{}
				spans = append(spans, s)
			}
		}
	}
	return spans
}

// Server is the HTTP observability plane: /metrics (Prometheus
// text), /statusz (JSON), /tracez (the span ring), and net/http/pprof
// under /debug/pprof/. It runs on its own mux so pprof's default-mux
// registration never leaks into the daemon.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the debug plane on cfg.Addr.
func Serve(cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		pw := &telemetry.PromWriter{W: w}
		if cfg.Cluster != nil {
			writeCoordMetrics(pw, cfg.Cluster)
		}
		if cfg.Wire != nil {
			writeWireMetrics(pw, cfg.Wire)
		}
		for sid, b := range cfg.Sites {
			writeSchedMetrics(pw, b.StatsSnapshot(), fmt.Sprintf(`site="%d"`, sid))
			if bd, ok := b.(interface{ BlockedDepth() int }); ok {
				pw.Gauge("scc_sched_blocked", "transactions currently blocked at the site",
					int64(bd.BlockedDepth()), fmt.Sprintf(`site="%d"`, sid))
			}
		}
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(buildStatusz(cfg))
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Query().Get("fmt") == "json" {
			// Chrome trace_event JSON: load straight into chrome://tracing
			// or Perfetto.
			_ = telemetry.WriteChromeTrace(w, cfg.processName(), mergedSpans(cfg.Spans))
			return
		}
		// Raw span records (any other fmt, "spans" included), the sccctl
		// feed: this process's ring plus its pinned exemplars.
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(SpanzDoc{Process: cfg.processName(), Spans: mergedSpans(cfg.Spans)})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the debug server.
func (s *Server) Close() { _ = s.srv.Close() }

// writeSchedMetrics renders one core.Stats block as counter samples.
func writeSchedMetrics(pw *telemetry.PromWriter, st core.Stats, labels string) {
	pw.Counter("scc_sched_executes_total", "operations executed", st.Executes, labels)
	pw.Counter("scc_sched_blocks_total", "requests parked behind a conflict", st.Blocks, labels)
	pw.Counter("scc_sched_grants_total", "parked requests granted", st.Grants, labels)
	pw.Counter("scc_sched_aborts_total", "transactions aborted", st.Aborts, labels)
	pw.Counter("scc_sched_deadlock_aborts_total", "aborts from wait-for deadlocks", st.DeadlockAborts, labels)
	pw.Counter("scc_sched_cycle_aborts_total", "aborts from commit-dependency cycles", st.CycleAborts, labels)
	pw.Counter("scc_sched_withdrawals_total", "blocked requests withdrawn", st.Withdrawals, labels)
	pw.Counter("scc_sched_commits_total", "transactions committed", st.Commits, labels)
	pw.Counter("scc_sched_pseudo_commits_total", "transactions pseudo-committed (held)", st.PseudoCommits, labels)
	pw.Counter("scc_sched_cycle_checks_total", "dependency-graph cycle searches", st.CycleChecks, labels)
	pw.Counter("scc_sched_commit_dep_edges_total", "commit-dependency edges added", st.CommitDepEdges, labels)
	pw.Counter("scc_sched_wait_for_edges_total", "wait-for edges added", st.WaitForEdges, labels)
}

// writeCoordMetrics renders the coordinator instrument block: the
// cluster-wide scheduler sum, the commit-conversation phase
// histograms, the decision-log conservation counters, hold-policy
// state, and the mirror's shape.
func writeCoordMetrics(pw *telemetry.PromWriter, c *dist.Cluster) {
	writeSchedMetrics(pw, c.Stats(), "")
	tel := c.Telemetry()

	pw.Counter("scc_commit_fast_total", "edge-free direct commits (no conversation)", tel.FastCommits.Load(), "")
	pw.Counter("scc_conversations_total", "commit conversations entered", tel.Conversations.Load(), "")
	pw.Histogram("scc_phase_nanos", "commit-conversation phase latency", tel.HoldNanos.Snapshot(), `phase="hold"`)
	pw.Histogram("scc_phase_nanos", "commit-conversation phase latency", tel.DecideNanos.Snapshot(), `phase="decide"`)
	pw.Histogram("scc_phase_nanos", "commit-conversation phase latency", tel.ReleaseNanos.Snapshot(), `phase="release"`)
	pw.Histogram("scc_wave_size", "decide-pipeline flat-combining wave width", tel.WaveSize.Snapshot(), "")
	pw.Histogram("scc_release_width", "transactions released per cascade round", tel.ReleaseWidth.Snapshot(), "")
	pw.Counter("scc_sheds_total", "conversations refused by the hold policy", tel.Sheds.Load(), "")
	pw.Gauge("scc_held", "held (pseudo-committed) transactions", tel.Held.Load(), "")
	pw.Gauge("scc_held_high", "held-set high-water mark", tel.Held.High(), "")

	pw.Counter("scc_decisions_logged_total", "commit decisions forced to the log", tel.DecisionsLogged.Load(), "")
	pw.Counter("scc_decisions_adopted_total", "decisions adopted from a predecessor's log", tel.DecisionsAdopted.Load(), "")
	pw.Counter("scc_decisions_resolved_total", "decisions fully acked and truncated", tel.DecisionsResolved.Load(), "")
	pw.Gauge("scc_decisions_live", "open release-ack sets", tel.LiveDecisions.Load(), "")
	pw.Gauge("scc_decisions_live_high", "open release-ack high-water mark", tel.LiveDecisions.High(), "")

	pw.Counter("scc_site_crashes_total", "site crash transitions observed", tel.Crashes.Load(), "")
	pw.Counter("scc_site_restarts_total", "site recoveries completed", tel.Restarts.Load(), "")

	pw.Gauge("scc_mirror_edges", "dependency-mirror edge count", int64(c.MirrorEdges()), "")
	pw.Histogram("scc_mirror_cycle_cost", "nodes visited per cycle search", tel.Mirror.CycleCost.Snapshot(), "")
	pw.Histogram("scc_mirror_chain_depth", "observed longest-chain depths", tel.Mirror.ChainDepth.Snapshot(), "")

	ps := c.PolicyStats()
	policy := fmt.Sprintf(`policy=%q`, c.PolicyName())
	pw.Counter("scc_policy_tail_aborts_total", "conversations shed by a depth bound", uint64(ps.TailAborts), policy)
	pw.Gauge("scc_policy_held_peak", "held-set peak since start", int64(ps.HeldPeak), policy)

	for sid := 0; sid < c.NumSites(); sid++ {
		up := int64(1)
		if c.SiteDown(dist.SiteID(sid)) {
			up = 0
		}
		pw.Gauge("scc_site_up", "1 when the site is reachable", up, fmt.Sprintf(`site="%d"`, sid))
	}
}

// writeWireMetrics renders the transport instrument block with a
// per-verb RTT histogram family.
func writeWireMetrics(pw *telemetry.PromWriter, m *telemetry.WireMetrics) {
	pw.Counter("scc_wire_frames_out_total", "frames sent", m.FramesOut.Load(), "")
	pw.Counter("scc_wire_frames_in_total", "frames received", m.FramesIn.Load(), "")
	pw.Counter("scc_wire_bytes_out_total", "bytes sent (incl. frame headers)", m.BytesOut.Load(), "")
	pw.Counter("scc_wire_bytes_in_total", "bytes received (incl. frame headers)", m.BytesIn.Load(), "")
	pw.Counter("scc_wire_reconnects_total", "successful re-dials after a loss", m.Reconnects.Load(), "")
	pw.Gauge("scc_wire_pipeline", "outstanding pipelined calls", m.Pipeline.Load(), "")
	pw.Gauge("scc_wire_pipeline_high", "outstanding-call high-water mark", m.Pipeline.High(), "")
	m.EachRTT(func(kind byte, s telemetry.HistSnapshot) {
		pw.Histogram("scc_wire_rtt_nanos", "request round-trip latency", s, fmt.Sprintf(`verb=%q`, wire.KindName(kind)))
	})
}

// Statusz is the /statusz JSON document; counters are omitted when the
// role does not populate them. The gauges (held, live_decisions,
// mirror_edges) are always written: zero is a reading, and a decoder
// reusing one struct across polls must see it overwrite the last one.
type Statusz struct {
	Role   string `json:"role"`
	Policy string `json:"policy,omitempty"`

	Stats     *core.Stats           `json:"stats,omitempty"`
	SiteStats map[string]core.Stats `json:"site_stats,omitempty"`

	PolicyStats *dist.PolicyStats `json:"policy_stats,omitempty"`

	FastCommits   uint64 `json:"fast_commits,omitempty"`
	Conversations uint64 `json:"conversations,omitempty"`
	Sheds         uint64 `json:"sheds,omitempty"`
	Held          int64  `json:"held"`
	HeldHigh      int64  `json:"held_high,omitempty"`

	DecisionsLogged   uint64 `json:"decisions_logged,omitempty"`
	DecisionsAdopted  uint64 `json:"decisions_adopted,omitempty"`
	DecisionsResolved uint64 `json:"decisions_resolved,omitempty"`
	LiveDecisions     int64  `json:"live_decisions"`

	Crashes     uint64 `json:"crashes,omitempty"`
	Restarts    uint64 `json:"restarts,omitempty"`
	MirrorEdges int    `json:"mirror_edges"`

	Tracing *TracingStatusz `json:"tracing,omitempty"`
	Flight  *FlightStatusz  `json:"flight,omitempty"`

	Wire *WireStatusz `json:"wire,omitempty"`
}

// SpanzDoc is the /tracez JSON document: one process's span records,
// ready for cross-process stitching by trace id.
type SpanzDoc struct {
	Process string           `json:"process"`
	Spans   []telemetry.Span `json:"spans"`
}

// TracingStatusz is the span-plane block inside /statusz.
type TracingStatusz struct {
	Enabled    bool    `json:"enabled"`
	SpanLen    int     `json:"span_len"`
	SpanCap    int     `json:"span_cap"`
	Exemplars  int     `json:"exemplars"`
	SampleSeed int64   `json:"sample_seed"`
	SampleRate float64 `json:"sample_rate"`
}

// FlightStatusz is the flight-recorder block inside /statusz; the
// tracing block's span_len/span_cap describe the ring it dumps.
type FlightStatusz struct {
	Enabled  bool   `json:"enabled"`
	Dumps    int    `json:"dumps"`
	LastDump string `json:"last_dump,omitempty"`
}

// WireStatusz is the transport block inside /statusz.
type WireStatusz struct {
	FramesOut    uint64 `json:"frames_out"`
	FramesIn     uint64 `json:"frames_in"`
	BytesOut     uint64 `json:"bytes_out"`
	BytesIn      uint64 `json:"bytes_in"`
	Reconnects   uint64 `json:"reconnects"`
	Pipeline     int64  `json:"pipeline"`
	PipelineHigh int64  `json:"pipeline_high"`
}

func buildStatusz(cfg Config) Statusz {
	st := Statusz{Role: cfg.Role}
	if c := cfg.Cluster; c != nil {
		sum := c.Stats()
		st.Stats = &sum
		st.SiteStats = make(map[string]core.Stats, c.NumSites())
		for sid := 0; sid < c.NumSites(); sid++ {
			st.SiteStats[fmt.Sprintf("%d", sid)] = c.SiteStats(dist.SiteID(sid))
		}
		st.Policy = c.PolicyName()
		ps := c.PolicyStats()
		st.PolicyStats = &ps
		tel := c.Telemetry()
		st.FastCommits = tel.FastCommits.Load()
		st.Conversations = tel.Conversations.Load()
		st.Sheds = tel.Sheds.Load()
		st.Held = tel.Held.Load()
		st.HeldHigh = tel.Held.High()
		st.DecisionsLogged = tel.DecisionsLogged.Load()
		st.DecisionsAdopted = tel.DecisionsAdopted.Load()
		st.DecisionsResolved = tel.DecisionsResolved.Load()
		st.LiveDecisions = tel.LiveDecisions.Load()
		st.Crashes = tel.Crashes.Load()
		st.Restarts = tel.Restarts.Load()
		st.MirrorEdges = c.MirrorEdges()
	}
	if len(cfg.Sites) > 0 {
		st.SiteStats = make(map[string]core.Stats, len(cfg.Sites))
		for sid, b := range cfg.Sites {
			st.SiteStats[fmt.Sprintf("%d", sid)] = b.StatsSnapshot()
		}
	}
	if sb, fr := cfg.Spans, cfg.Flight; sb != nil || fr != nil {
		seed, rate := sb.Sampling()
		st.Tracing = &TracingStatusz{
			Enabled:    sb != nil,
			SampleSeed: seed,
			SampleRate: rate,
		}
		if sb != nil {
			st.Tracing.SpanLen = sb.Len()
			st.Tracing.SpanCap = sb.Cap()
			st.Tracing.Exemplars = len(sb.Exemplars())
		}
		if fr != nil {
			st.Flight = &FlightStatusz{
				Enabled:  true,
				Dumps:    fr.Dumps(),
				LastDump: fr.LastDump(),
			}
		}
	}
	if m := cfg.Wire; m != nil {
		st.Wire = &WireStatusz{
			FramesOut:    m.FramesOut.Load(),
			FramesIn:     m.FramesIn.Load(),
			BytesOut:     m.BytesOut.Load(),
			BytesIn:      m.BytesIn.Load(),
			Reconnects:   m.Reconnects.Load(),
			Pipeline:     m.Pipeline.Load(),
			PipelineHigh: m.Pipeline.High(),
		}
	}
	return st
}
