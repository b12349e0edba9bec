package telemetry

// DistMetrics is the coordinator's instrument block: conversation
// counts, per-phase latency, wave/release shape, and the decision-log
// conservation counters the cluster smoke asserts (per coordinator
// incarnation: Logged + Adopted == Resolved + Live at quiesce).
type DistMetrics struct {
	FastCommits   Counter // edge-free direct commits (no conversation)
	Conversations Counter // commit conversations entered (hold phase run)

	HoldNanos    Histogram // commit-hold phase (all sites held)
	DecideNanos  Histogram // decision round incl. pipeline wait + log force
	ReleaseNanos Histogram // release fan-out after a clean decision

	WaveSize     Histogram // decide-pipeline flat-combining wave width
	ReleaseWidth Histogram // transactions released per cascade round
	Sheds        Counter   // conversations refused by the hold policy
	Held         Gauge     // held (pseudo-committed) set size + high-water

	DecisionsLogged   Counter // commit decisions forced to the log
	DecisionsAdopted  Counter // decisions adopted from a predecessor's log
	DecisionsResolved Counter // decisions fully acked and truncated
	LiveDecisions     Gauge   // open release-ack sets + high-water

	Crashes  Counter // site crash transitions observed
	Restarts Counter // site recoveries completed

	// Mirror is the dependency-mirror instrument block; the cluster
	// attaches it via depgraph.Graph.SetMetrics on its union graph.
	Mirror MirrorMetrics
}

// WireMetrics instruments the coordinator's transport: frame and byte
// flow, reconnects, outstanding-call depth, and a per-verb RTT
// histogram indexed directly by the frame kind byte (all wire kinds
// fit under 64). One instance is shared by every peer connection.
type WireMetrics struct {
	FramesOut Counter
	FramesIn  Counter
	BytesOut  Counter
	BytesIn   Counter

	Reconnects Counter // successful re-dials after a connection loss
	Pipeline   Gauge   // outstanding request/response calls + high-water

	rtt [64]Histogram
}

// RTT returns the round-trip histogram for a frame kind, or nil when
// out of range (so callers can Observe unconditionally).
func (w *WireMetrics) RTT(kind byte) *Histogram {
	if w == nil || int(kind) >= len(w.rtt) {
		return nil
	}
	return &w.rtt[kind]
}

// EachRTT visits every verb histogram that has observations.
func (w *WireMetrics) EachRTT(f func(kind byte, s HistSnapshot)) {
	if w == nil {
		return
	}
	for k := range w.rtt {
		if s := w.rtt[k].Snapshot(); s.Count > 0 {
			f(byte(k), s)
		}
	}
}

// MirrorMetrics instruments the coordinator's dependency mirror:
// cycle-check cost (nodes visited per search) and observed chain
// depth. The mirror runs under the coordinator mutex, so plain
// Observe calls are already serialized.
type MirrorMetrics struct {
	CycleCost  Histogram // nodes visited per HasCycleFrom search
	ChainDepth Histogram // LongestChainFrom results
}
