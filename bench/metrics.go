package main

// metricDef is one line of the benchmark's vocabulary. BENCHMARK.json
// carries name, unit, direction and (for end-to-end metrics) the bound;
// its schema has no room for more, so what each per-layer metric is
// expected to move lives here and in README.md, and is printed beside
// the value.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// moves says which end-to-end metric on which workload the metric
	// should move, and where it should not.
	moves string
}

// endToEnd are the metrics a client of the store sees, reported per
// workload. The bounds are the stated starting values; -calibrate
// replaces each with max(stated, 3 x observed spread), capped at 25%,
// and BENCHMARK.json carries the result. failed_share is not in the list: it must stay 0,
// and the result line reports it as failed/attempted instead.
var endToEnd = []metricDef{
	{name: "commit_tps", unit: "txn/s", better: "higher", bound: 0.15},
	{name: "txn_p50_us", unit: "us", better: "lower", bound: 0.10},
	{name: "txn_p99_us", unit: "us", better: "lower", bound: 0.20},
	{name: "real_p50_us", unit: "us", better: "lower", bound: 0.15},
	{name: "real_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

const (
	movesScheduler = "commit_tps, txn_p50_us @ db-mix; smaller share @ cluster-part; nothing visible @ wire-push, cluster-convoy"
	movesWire      = "commit_tps, txn_p50_us @ wire-push only"
)

// tracedDefs describes the traced run's lines (counters.go).
var tracedDefs = []metricDef{
	{name: "client.begin_us_p50", unit: "us", better: "lower", moves: "txn_p50_us everywhere"},
	{name: "client.do_us_p50", unit: "us", better: "lower", moves: "txn_p50_us everywhere; @ wire-push do x ops is about the whole transaction"},
	{name: "client.do_us_p99", unit: "us", better: "lower", moves: "txn_p99_us everywhere"},
	{name: "client.commit_us_p50", unit: "us", better: "lower", moves: "txn_p50_us everywhere"},
	{name: "client.hold_wait_us_p50", unit: "us", better: "lower", moves: "real_p50_us @ cluster-convoy; not cluster-part"},
	{name: "client.hold_wait_us_p99", unit: "us", better: "lower", moves: "real_p99_us @ cluster-convoy; not cluster-part"},
	{name: "client.backoff_share", unit: "ratio", better: "lower", moves: "txn_p99_us @ db-mix, cluster-convoy; not wire-push"},
	{name: "client.yield_share", unit: "ratio", better: "lower", moves: "share of txn time spent yielded to the other clients: txn_p50_us wherever clients outnumber cores; not wire-push (it waits on the network instead)"},
	{name: "client.self_share", unit: "ratio", better: "lower", moves: "the load generator's own share of txn time; should move nothing"},
	{name: "core.abort_ratio", unit: "ratio", better: "lower", moves: "txn_p99_us, commit_tps @ db-mix"},
	{name: "core.deadlock_aborts", unit: "count", better: "lower", moves: "txn_p99_us, commit_tps @ db-mix"},
	{name: "core.cycle_aborts", unit: "count", better: "lower", moves: "txn_p99_us, commit_tps @ db-mix"},
	{name: "core.blocks_per_txn", unit: "ratio", better: "lower", moves: "txn_p50_us @ db-mix; not wire-push"},
	{name: "core.pseudo_share", unit: "ratio", better: "higher", moves: "txn_p50_us @ db-mix (a promise instead of a wait); not wire-push"},
	{name: "core.cycle_checks_per_op", unit: "ratio", better: "lower", moves: "txn_p50_us @ db-mix; not wire-push"},
	{name: "dist.fast_commit_share", unit: "ratio", better: "higher", moves: "commit_tps @ cluster-part"},
	{name: "dist.hold_us_p50", unit: "us", better: "lower", moves: "txn_p50_us, real_p50_us, commit_tps @ cluster-convoy; not cluster-part; db-mix bypasses it"},
	{name: "dist.decide_us_p50", unit: "us", better: "lower", moves: "txn_p50_us, real_p50_us, commit_tps @ cluster-convoy; not cluster-part; db-mix bypasses it"},
	{name: "dist.release_us_p50", unit: "us", better: "lower", moves: "real_p50_us, commit_tps @ cluster-convoy; not cluster-part; db-mix bypasses it"},
	{name: "dist.wave_size_mean", unit: "count", better: "higher", moves: "commit_tps @ cluster-convoy (decide batching); not cluster-part"},
	{name: "dist.release_width_mean", unit: "count", better: "lower", moves: "real_p50_us @ cluster-convoy; not cluster-part"},
	{name: "dist.held_peak", unit: "count", better: "lower", moves: "real_p50_us, commit_tps @ cluster-convoy; not cluster-part"},
	{name: "dist.sheds", unit: "count", better: "lower", moves: "commit_tps @ cluster-convoy once a hold policy is the default; 0 today"},
	{name: "depgraph.mirror_cycle_cost_mean", unit: "count", better: "lower", moves: "commit_tps @ cluster-convoy; not cluster-part"},
	{name: "depgraph.mirror_chain_depth_p99", unit: "count", better: "lower", moves: "commit_tps @ cluster-convoy; observed only when a hold policy asks for it"},
	{name: "fault.decisions_logged_per_txn", unit: "ratio", better: "lower", moves: "txn_p50_us @ wire-push (with fault.filelog_record_us); not db-mix"},
	{name: "wire.frames_per_txn", unit: "count", better: "lower", moves: "txn_p50_us, commit_tps @ wire-push; in-process workloads bypass it"},
	{name: "wire.bytes_per_txn", unit: "B", better: "lower", moves: "txn_p50_us, commit_tps @ wire-push; in-process workloads bypass it"},
	{name: "wire.rtt_request_us_p50", unit: "us", better: "lower", moves: "txn_p50_us @ wire-push; client.do_us_p50 minus this is the unmeasured client hop"},
	{name: "wire.pipeline_peak", unit: "count", better: "higher", moves: "commit_tps @ wire-push (calls in flight on the participant plane)"},
	{name: "proc.cpu_us_per_txn", unit: "us", better: "lower", moves: "commit_tps @ wire-push (CPU-bound: freeing CPU saves more than its share)"},
	{name: "proc.allocs_per_txn", unit: "count", better: "lower", moves: "txn_p99_us everywhere"},
	{name: "proc.alloc_bytes_per_txn", unit: "B", better: "lower", moves: "txn_p99_us everywhere"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower", moves: "txn_p99_us everywhere"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower", moves: "nothing: reported so the budget's distortion is known"},
}

// perLayer is every per-layer metric, in the order they are printed:
// the price list's lines (layers.go), then the traced run's.
func perLayer() []metricDef {
	defs := make([]metricDef, 0, len(priceList)+len(tracedDefs))
	for _, lb := range priceList {
		defs = append(defs, metricDef{name: lb.name, unit: lb.unit, better: "lower", moves: lb.moves})
	}
	return append(defs, tracedDefs...)
}
