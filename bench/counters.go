package main

import (
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// counters is one reading of every instrument block the program
// already exposes, plus the process's own resource counters. The
// traced pass reads it when the window opens and after the drain; the
// per-layer metrics are the differences.
type counters struct {
	stats core.Stats

	// dist.Cluster.Telemetry() and PolicyStats(); zero without a cluster.
	fast, conversations, sheds, logged uint64
	hold, decide, release              telemetry.HistSnapshot
	waveSize, releaseWidth             telemetry.HistSnapshot
	cycleCost, chainDepth              telemetry.HistSnapshot
	heldPeak                           int

	// wire.Coordinator.WireMetrics(); zero without a coordinator.
	frames, bytes uint64
	rttRequest    telemetry.HistSnapshot
	pipelinePeak  int64

	cpu       time.Duration // user+system, getrusage
	mallocs   uint64
	allocated uint64
	gcPause   time.Duration
}

func readCounters(inst *instance) counters {
	var c counters
	c.stats = inst.store.Stats()
	if cl := inst.cluster; cl != nil {
		tel := cl.Telemetry()
		c.fast, c.conversations = tel.FastCommits.Load(), tel.Conversations.Load()
		c.sheds, c.logged = tel.Sheds.Load(), tel.DecisionsLogged.Load()
		c.hold, c.decide, c.release = tel.HoldNanos.Snapshot(), tel.DecideNanos.Snapshot(), tel.ReleaseNanos.Snapshot()
		c.waveSize, c.releaseWidth = tel.WaveSize.Snapshot(), tel.ReleaseWidth.Snapshot()
		c.cycleCost, c.chainDepth = tel.Mirror.CycleCost.Snapshot(), tel.Mirror.ChainDepth.Snapshot()
		c.heldPeak = cl.PolicyStats().HeldPeak
	}
	if co := inst.coord; co != nil {
		wm := co.WireMetrics()
		c.frames = wm.FramesOut.Load() + wm.FramesIn.Load()
		c.bytes = wm.BytesOut.Load() + wm.BytesIn.Load()
		c.rttRequest = requestRTT(wm)
		c.pipelinePeak = wm.Pipeline.High()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocated, c.gcPause = ms.Mallocs, ms.TotalAlloc, time.Duration(ms.PauseTotalNs)
	return c
}

// wireRTTRequestName is how wire.KindName labels the participant
// request verb, whose round-trip histogram the traced run reports.
const wireRTTRequestName = "request"

// requestRTT finds the participant-plane request round-trip histogram.
func requestRTT(wm *telemetry.WireMetrics) telemetry.HistSnapshot {
	var out telemetry.HistSnapshot
	wm.EachRTT(func(kind byte, s telemetry.HistSnapshot) {
		if wire.KindName(kind) == wireRTTRequestName {
			out = s
		}
	})
	return out
}

// histDelta is what was observed between two snapshots of a cumulative
// histogram.
func histDelta(from, to telemetry.HistSnapshot) telemetry.HistSnapshot {
	d := telemetry.HistSnapshot{Sum: to.Sum - from.Sum, Count: to.Count - from.Count}
	for i := range d.Counts {
		d.Counts[i] = to.Counts[i] - from.Counts[i]
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the traced per-layer metrics from the counters
// at the window's start and end, the span budget, and the two passes'
// throughput. commits is the number of logical transactions committed
// inside the window. A layer the workload bypasses reads 0.
func layerMetrics(from, to counters, res *loadResult, untracedTPS float64) map[string]float64 {
	m := make(map[string]float64)
	commits := float64(res.committed)
	b := res.budget
	us := func(ns float64) float64 { return ns / 1e3 }

	m["client.begin_us_p50"] = us(b.durs[spBegin].quantile(0.5))
	m["client.do_us_p50"] = us(b.durs[spDo].quantile(0.5))
	m["client.do_us_p99"] = us(b.durs[spDo].quantile(0.99))
	m["client.commit_us_p50"] = us(b.durs[spCommit].quantile(0.5))
	m["client.hold_wait_us_p50"] = us(b.durs[spHoldWait].quantile(0.5))
	m["client.hold_wait_us_p99"] = us(b.durs[spHoldWait].quantile(0.99))
	m["client.backoff_share"] = b.selfShare[spBackoff]
	m["client.yield_share"] = b.selfShare[spYield]
	m["client.self_share"] = b.selfShare[spTxn] + b.selfShare[spAttempt]

	st := to.stats
	sc := float64(st.Commits - from.stats.Commits)
	m["core.abort_ratio"] = ratio(float64(st.Aborts-from.stats.Aborts), sc)
	m["core.deadlock_aborts"] = float64(st.DeadlockAborts - from.stats.DeadlockAborts)
	m["core.cycle_aborts"] = float64(st.CycleAborts - from.stats.CycleAborts)
	m["core.blocks_per_txn"] = ratio(float64(st.Blocks-from.stats.Blocks), sc)
	m["core.pseudo_share"] = ratio(float64(st.PseudoCommits-from.stats.PseudoCommits), sc)
	m["core.cycle_checks_per_op"] = ratio(float64(st.CycleChecks-from.stats.CycleChecks), float64(st.Executes-from.stats.Executes))

	fast, conv := float64(to.fast-from.fast), float64(to.conversations-from.conversations)
	m["dist.fast_commit_share"] = ratio(fast, fast+conv)
	m["dist.hold_us_p50"] = us(histDelta(from.hold, to.hold).Quantile(0.5))
	m["dist.decide_us_p50"] = us(histDelta(from.decide, to.decide).Quantile(0.5))
	m["dist.release_us_p50"] = us(histDelta(from.release, to.release).Quantile(0.5))
	m["dist.wave_size_mean"] = histDelta(from.waveSize, to.waveSize).Mean()
	m["dist.release_width_mean"] = histDelta(from.releaseWidth, to.releaseWidth).Mean()
	m["dist.held_peak"] = float64(to.heldPeak)
	m["dist.sheds"] = float64(to.sheds - from.sheds)
	m["depgraph.mirror_cycle_cost_mean"] = histDelta(from.cycleCost, to.cycleCost).Mean()
	m["depgraph.mirror_chain_depth_p99"] = histDelta(from.chainDepth, to.chainDepth).Quantile(0.99)
	m["fault.decisions_logged_per_txn"] = ratio(float64(to.logged-from.logged), commits)

	m["wire.frames_per_txn"] = ratio(float64(to.frames-from.frames), commits)
	m["wire.bytes_per_txn"] = ratio(float64(to.bytes-from.bytes), commits)
	m["wire.rtt_request_us_p50"] = us(histDelta(from.rttRequest, to.rttRequest).Quantile(0.5))
	m["wire.pipeline_peak"] = float64(to.pipelinePeak)

	m["proc.cpu_us_per_txn"] = ratio(float64(to.cpu-from.cpu)/1e3, commits)
	m["proc.allocs_per_txn"] = ratio(float64(to.mallocs-from.mallocs), commits)
	m["proc.alloc_bytes_per_txn"] = ratio(float64(to.allocated-from.allocated), commits)
	m["proc.gc_pause_ms"] = float64(to.gcPause-from.gcPause) / 1e6

	m["trace.overhead_share"] = 1 - ratio(res.commitTPS(), untracedTPS)
	return m
}
