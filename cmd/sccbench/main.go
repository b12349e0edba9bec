// Command sccbench regenerates the paper's evaluation: every figure
// (4–18) and the repository's ablations, printing the same series the
// paper plots.
//
// Usage:
//
//	sccbench -experiment fig4              # one figure, laptop scale
//	sccbench -all                          # the whole grid
//	sccbench -experiment fig14 -paper      # paper scale (50k × 10 runs)
//	sccbench -list                         # available experiments
//	sccbench -tables                       # Tables I–VIII and IX–X
//	sccbench -shardscale                   # 1-shard vs N-shard throughput
//	sccbench -net                          # loopback-TCP wire vs in-process calls
//	sccbench -convoy                       # hold-convoy overload: off vs the default vs the named policies
//	sccbench -convoy -policy depth=8       # one policy against the unbounded baseline
//
// Scale knobs: -completions, -warmup, -runs, -seed, -db, -terminals.
// Shard-scaling knobs: -shards, -workers, -txns, -cross, -skew (zipfian
// hot keys) and -maxprocs (repeat the sweep at each GOMAXPROCS — the
// coordinator scaling matrix).
// Convoy knobs: -convoysites and -policy (plus -workers, -txns, -db,
// -cross, which default to the overload regime: all-push workload,
// small database, 40% cross-site); the clock stops only after every
// pseudo-commit promise is honoured, so txn/s is honest real-commit
// throughput, drain included. -policy also names the hold policy of
// the -net clusters: empty is the cluster default (dist.DefaultPolicy),
// off the paper's unbounded hold.
// Net knobs: -net reuses the -shardscale sweep knobs (-shards,
// -workers, -txns, -cross) to compare loopback TCP against in-process
// calls.
//
// Telemetry: -telemetry prints each cluster's final instrument-block
// snapshot (phase quantiles, wave shape, decision conservation) after
// its throughput line; -telemetryout collects the snapshots into a
// JSON file that -benchjson can embed with -telemetryfile.
//
// Profiling: -cpuprofile / -memprofile write pprof files for any mode,
// so perf work profiles the real workloads without editing code:
//
//	sccbench -experiment fig4 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
//
// Benchmark comparison: -benchjson summarises two saved `go test
// -bench` outputs (see docs/PERF.md) into the BENCH_*.json format the
// repository records its perf trajectory with:
//
//	go test -run xxx -bench . -benchmem -count=10 . > after.txt
//	sccbench -benchjson -before before.txt -after after.txt > BENCH_1.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/wire"
	"repro/internal/workload"
)

// parseIntList parses a comma-separated list of positive ints.
func parseIntList(flagName, list string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad %s list: %w", flagName, err)
		}
		if n <= 0 {
			return nil, fmt.Errorf("bad %s list: counts must be positive, got %d", flagName, n)
		}
		out = append(out, n)
	}
	return out, nil
}

// runShardScale sweeps cluster sizes over a sharded read/write
// workload and prints a throughput table: the §6 cluster doubling as a
// local sharding layer, 1 shard being the single-scheduler baseline.
// A non-empty maxprocsList repeats the sweep at each GOMAXPROCS value —
// the coordinator lock-split scaling matrix docs/PERF.md describes —
// and skew > 1 routes each partition's traffic zipfian-hot.
func runShardScale(shardList, maxprocsList string, workers, txns, db int, cross, skew float64, seed int64) error {
	counts, err := parseIntList("-shards", shardList)
	if err != nil {
		return err
	}
	procs := []int{runtime.GOMAXPROCS(0)}
	if maxprocsList != "" {
		if procs, err = parseIntList("-maxprocs", maxprocsList); err != nil {
			return err
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	}
	fmt.Printf("shard scaling: %d workers x %d txns, read/write db=%d, cross-site prob %.2f, skew %g\n",
		workers, txns, db, cross, skew)
	for _, p := range procs {
		if maxprocsList != "" {
			runtime.GOMAXPROCS(p)
			fmt.Printf("GOMAXPROCS=%d\n", p)
		}
		fmt.Printf("%-8s %12s %12s %10s %10s %12s\n", "shards", "txn/s", "ops", "held", "aborts", "elapsed")
		var baseline float64
		for _, n := range counts {
			c, err := dist.New(n, core.Options{}, dist.RouteByModulo(n), nil)
			if err != nil {
				return err
			}
			res, err := workload.RunLoad(c, workload.LoadConfig{
				Workload: workload.Sharded{
					Inner: workload.ReadWrite{DBSize: db, WriteProb: 0.3},
					Sites: n, CrossProb: cross, Skew: skew,
				},
				Workers:       workers,
				TxnsPerWorker: txns,
				Seed:          seed,
			})
			if err != nil {
				return err
			}
			speedup := ""
			if n == 1 {
				baseline = res.TxnPerSec
			} else if baseline > 0 {
				speedup = fmt.Sprintf("  (%.2fx vs 1 shard)", res.TxnPerSec/baseline)
			}
			fmt.Printf("%-8d %12.0f %12d %10d %10d %12s%s\n",
				n, res.TxnPerSec, res.Ops, res.Pseudo, res.Aborts,
				res.Elapsed.Round(time.Millisecond), speedup)
			emitTelemetry(fmt.Sprintf("shardscale/shards=%d", n), c)
		}
	}
	return nil
}

// runNet measures what the wire costs: the same closed-loop sharded
// conservation workload (all pushes) runs against an in-process
// cluster and against the identical cluster deployed over loopback
// TCP — one site daemon serving every site (wire.ServeSites), a
// coordinator over remote participants (wire.StartCoordinator), and a
// client dialling the coordinator's client plane (wire.Dial). Both sides use crash-stop Crashable sites
// and an in-memory decision log, so the ratio isolates the transport:
// framing, the per-site FIFO workers, and two network hops per
// operation (client → coordinator → site). This is the number behind
// BENCH_4.json.
//
// An all-push workload held unboundedly (-policy off) convoys badly
// over the wire: round trips widen the overlap window, every overlap
// holds, and the end-of-run drain can dwarf the load itself (minutes
// for a seconds-long run, with huge run-to-run variance). Both sides
// run the same hold policy — the cluster default unless -policy names
// one; the canonical BENCH_4 numbers predate the default policy.
func runNet(shardList string, workers, txns, db int, cross float64, seed int64, pol dist.HoldPolicy) error {
	counts, err := parseIntList("-shards", shardList)
	if err != nil {
		return err
	}
	spec := fmt.Sprintf("pushes:%d", db)
	fmt.Printf("net transport: loopback TCP vs in-process, %d workers x %d txns, push db=%d, cross-site prob %.2f\n",
		workers, txns, db, cross)
	fmt.Println("(both clusters crash-stop; the wire side adds the client plane, one site daemon, and 2 hops/op)")
	fmt.Printf("hold policy %s on both sides\n", installedName(pol))
	fmt.Printf("%-8s %-14s %10s %10s %10s %12s\n", "shards", "transport", "txn/s", "ops", "aborts", "elapsed")
	for _, n := range counts {
		lc := workload.LoadConfig{
			Workload: workload.Sharded{
				Inner: workload.Pushes{DBSize: db},
				Sites: n, CrossProb: cross,
			},
			Workers:         workers,
			TxnsPerWorker:   txns,
			Seed:            seed,
			MaxRestarts:     100000,
			RetryHeldAborts: true,
		}

		inproc, err := dist.NewWithConfig(dist.Config{Sites: n, Policy: pol})
		if err != nil {
			return err
		}
		inRes, err := workload.RunLoad(inproc, lc)
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %-14s %10.0f %10d %10d %12s\n",
			n, "in-process", inRes.TxnPerSec, inRes.Ops, inRes.Aborts,
			inRes.Elapsed.Round(time.Millisecond))
		emitTelemetry(fmt.Sprintf("net/in-process/shards=%d", n), inproc)

		netRes, err := runNetOnce(n, spec, lc, pol)
		if err != nil {
			return err
		}
		ratio := ""
		if inRes.TxnPerSec > 0 {
			ratio = fmt.Sprintf("  (%.2fx of in-process)", netRes.TxnPerSec/inRes.TxnPerSec)
		}
		fmt.Printf("%-8d %-14s %10.0f %10d %10d %12s%s\n",
			n, "loopback-tcp", netRes.TxnPerSec, netRes.Ops, netRes.Aborts,
			netRes.Elapsed.Round(time.Millisecond), ratio)
	}
	return nil
}

// installedName names the hold policy a cluster configured with pol
// runs.
func installedName(pol dist.HoldPolicy) string {
	if pol == nil {
		return dist.DefaultPolicy().Name() + " (the default)"
	}
	return pol.Name()
}

// runNetOnce deploys the loopback cluster — daemon, coordinator,
// client — runs the load through the client plane, and tears it down.
func runNetOnce(n int, spec string, lc workload.LoadConfig, pol dist.HoldPolicy) (workload.LoadResult, error) {
	sites := make(map[uint16]dist.SiteBackend, n)
	ids := make([]uint16, 0, n)
	for sid := 0; sid < n; sid++ {
		cr, err := fault.New(core.Options{}, fault.NewMemLog())
		if err != nil {
			return workload.LoadResult{}, err
		}
		sites[uint16(sid)] = cr
		ids = append(ids, uint16(sid))
	}
	srv, err := wire.ServeSites(wire.SiteServerConfig{Addr: "127.0.0.1:0", Sites: sites, Workload: spec})
	if err != nil {
		return workload.LoadResult{}, err
	}
	defer srv.Close()
	cc := wire.CoordinatorConfig{
		ClientAddr: "127.0.0.1:0",
		Daemons:    []wire.DaemonSpec{{Listen: srv.Addr(), Sites: ids}},
		Workload:   spec,
		DialWait:   5 * time.Second,
		Policy:     pol,
	}
	if telemetryOn {
		// Arm the span plane so the -telemetryout artifact carries the
		// causal traces behind the RTT tail; off by default so the
		// benchmark numbers measure the bare transport.
		cc.Spans = 1 << 14
		cc.SpanExemplars = 8
		cc.SampleSeed = lc.Seed
		cc.SampleRate = 1
	}
	co, err := wire.StartCoordinator(cc)
	if err != nil {
		return workload.LoadResult{}, err
	}
	defer co.Close()
	cl, err := wire.Dial(co.Addr(), 5*time.Second)
	if err != nil {
		return workload.LoadResult{}, err
	}
	defer cl.Close()
	res, err := workload.RunLoad(cl, lc)
	if err == nil {
		emitNetTelemetry(fmt.Sprintf("net/loopback-tcp/shards=%d", n), co)
	}
	return res, err
}

// runConvoy reproduces the hold-convoy overload under the wall clock
// and measures what a bounded-hold policy buys back. The workload is
// the Convoy scenario's shape — every operation a recoverable stack
// push, heavy cross-site traffic, a small hot database — driven with
// RetryHeldAborts, so shed holds are resubmitted like any retryable
// abort and a logical transaction counts only when its real commit
// lands. The clock stops after the last promise is honoured: the
// unbounded baseline pays its whole convoy drain inside the elapsed
// time, which is exactly the cost the policies exist to remove.
func runConvoy(sitesN, workers, txns, db int, cross float64, seed int64, holdOpen time.Duration, pol dist.HoldPolicy) error {
	policies := []dist.HoldPolicy{dist.Unbounded{}}
	switch pol.(type) {
	case nil:
		policies = append(policies,
			dist.DefaultPolicy(),
			dist.DepthBound{Max: 16},
		)
	case dist.Unbounded: // the baseline alone
	default:
		policies = append(policies, pol)
	}
	gen := workload.Sharded{
		Inner: workload.Pushes{DBSize: db},
		Sites: sitesN, CrossProb: cross,
	}
	fmt.Printf("convoy overload: %d sites, %d workers x %d txns, push db=%d, cross-site prob %.2f, hold-open %s\n",
		sitesN, workers, txns, db, cross, holdOpen)
	fmt.Println("(txn/s counts real commits with every promise drained before the clock stops)")
	fmt.Printf("%-14s %10s %10s %10s %10s %12s %12s\n",
		"policy", "txn/s", "held", "heldpeak", "aborts", "shed", "elapsed")
	var baseline float64
	for i, p := range policies {
		c, err := dist.NewWithConfig(dist.Config{Sites: sitesN, Policy: p})
		if err != nil {
			return err
		}
		res, err := workload.RunLoad(c, workload.LoadConfig{
			Workload:        gen,
			Workers:         workers,
			TxnsPerWorker:   txns,
			Seed:            seed,
			MaxRestarts:     100000,
			RetryHeldAborts: true,
			HoldOpen:        holdOpen,
		})
		if err != nil {
			return err
		}
		ps := c.PolicyStats()
		name, note := c.PolicyName(), ""
		if i == 0 {
			baseline = res.TxnPerSec
		} else if baseline > 0 {
			note = fmt.Sprintf("  (%.2fx vs off)", res.TxnPerSec/baseline)
		}
		fmt.Printf("%-14s %10.0f %10d %10d %10d %12d %12s%s\n",
			name, res.TxnPerSec, res.Pseudo, ps.HeldPeak, res.Aborts, ps.TailAborts,
			res.Elapsed.Round(time.Millisecond), note)
		emitTelemetry("convoy/policy="+name, c)
	}
	return nil
}

func main() {
	var (
		experiment  = flag.String("experiment", "", "experiment id (fig4..fig18, ablation-*)")
		all         = flag.Bool("all", false, "run every experiment")
		list        = flag.Bool("list", false, "list experiments and exit")
		tables      = flag.Bool("tables", false, "print Tables I-VIII (paper vs derived) and IX-X, then exit")
		paper       = flag.Bool("paper", false, "paper scale: 50,000 completions x 10 runs per point")
		completions = flag.Int("completions", 0, "completions per run (default laptop scale: 4000)")
		warmup      = flag.Int("warmup", 0, "warm-up completions discarded (default: completions/10)")
		runs        = flag.Int("runs", 0, "runs averaged per point (default 3)")
		seed        = flag.Int64("seed", 0, "base RNG seed (default 1)")
		db          = flag.Int("db", 0, "database size in objects (default 1000)")
		terminals   = flag.Int("terminals", 0, "number of terminals (default 200)")

		shardScale = flag.Bool("shardscale", false, "run the 1-shard vs N-shard throughput comparison")
		shards     = flag.String("shards", "1,2,4,8", "comma-separated shard counts for -shardscale")
		workers    = flag.Int("workers", 16, "concurrent workers for -shardscale/-net/-convoy")
		txns       = flag.Int("txns", 2000, "transactions per worker for -shardscale/-net/-convoy")
		cross      = flag.Float64("cross", 0.1, "cross-site step probability for -shardscale/-net/-convoy")
		skew       = flag.Float64("skew", 0, "zipfian key-popularity exponent for -shardscale (>1 enables hot keys)")
		maxprocs   = flag.String("maxprocs", "", "comma-separated GOMAXPROCS values to repeat the -shardscale sweep at (empty: current)")

		netMode = flag.Bool("net", false, "run the loopback-TCP vs in-process transport comparison over the -shards sweep")

		convoy      = flag.Bool("convoy", false, "run the hold-convoy overload: bounded-hold policies vs the unbounded baseline")
		convoySites = flag.Int("convoysites", 8, "participant sites for -convoy")
		holdOpen    = flag.Duration("holdopen", 300*time.Microsecond, "per-transaction open window before commit for -convoy (the overlap that forms the convoy)")
		policyStr   = flag.String("policy", "", "hold policy for -convoy/-net: off (unbounded) or depth=N; empty is the cluster default (with -convoy: compares off, the default and depth=16)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")

		benchjson  = flag.Bool("benchjson", false, "compare two saved `go test -bench` outputs as JSON")
		beforeTxt  = flag.String("before", "", "before-side bench output file for -benchjson")
		afterTxt   = flag.String("after", "", "after-side bench output file for -benchjson")
		benchNote  = flag.String("note", "", "free-form note embedded in the -benchjson report")
		telemFlag  = flag.Bool("telemetry", false, "print each cluster's final telemetry snapshot after its throughput line")
		telemOut   = flag.String("telemetryout", "", "also collect -telemetry snapshots into this JSON file")
		telemEmbed = flag.String("telemetryfile", "", "-benchjson: embed a saved -telemetryout JSON document in the report")
	)
	flag.Parse()
	telemetryOn = *telemFlag
	telemetryOut = *telemOut
	defer flushTelemetry()

	pol, err := dist.ParsePolicy(*policyStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
		os.Exit(2)
	}
	flagSet := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { flagSet[f.Name] = true })

	if *benchjson {
		if *beforeTxt == "" || *afterTxt == "" {
			fmt.Fprintln(os.Stderr, "sccbench: -benchjson needs -before and -after files")
			os.Exit(2)
		}
		if err := writeBenchComparison(os.Stdout, *beforeTxt, *afterTxt, *benchNote, *telemEmbed); err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sccbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "sccbench: -memprofile: %v\n", err)
			}
		}()
	}

	if *shardScale {
		dbSize := *db
		if dbSize == 0 {
			dbSize = 1000
		}
		seedVal := *seed
		if seedVal == 0 {
			seedVal = 1
		}
		if err := runShardScale(*shards, *maxprocs, *workers, *txns, dbSize, *cross, *skew, seedVal); err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *netMode {
		// Wire round trips cost ~100x an in-process call, so the sweep
		// defaults to a shorter load than -shardscale. Explicit flags win.
		dbSize, txnsVal := *db, *txns
		if dbSize == 0 {
			dbSize = 256
		}
		if !flagSet["txns"] {
			txnsVal = 200
		}
		seedVal := *seed
		if seedVal == 0 {
			seedVal = 1
		}
		if err := runNet(*shards, *workers, txnsVal, dbSize, *cross, seedVal, pol); err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *convoy {
		// The overload regime's defaults differ from the shard-scaling
		// ones: a small all-push database, heavy cross-site traffic and
		// a load short enough that the baseline's convoy drain is
		// painful but not interminable. Explicit flags still win.
		dbSize, crossVal, txnsVal, workersVal := *db, *cross, *txns, *workers
		if dbSize == 0 {
			dbSize = 64
		}
		if !flagSet["cross"] {
			crossVal = 0.4
		}
		if !flagSet["txns"] {
			txnsVal = 60
		}
		if !flagSet["workers"] {
			workersVal = 24
		}
		seedVal := *seed
		if seedVal == 0 {
			seedVal = 1
		}
		if err := runConvoy(*convoySites, workersVal, txnsVal, dbSize, crossVal, seedVal, *holdOpen, pol); err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, id := range repro.ExperimentIDs() {
			spec, _ := repro.LookupExperiment(id)
			fmt.Printf("%-22s %s\n", id, spec.Title)
		}
		return
	}
	if *tables {
		fmt.Print(repro.TablesReport())
		fmt.Print(repro.ParametersReport())
		return
	}

	opts := repro.DefaultExperimentOpts()
	if *paper {
		opts = repro.PaperExperimentOpts()
	}
	if *completions > 0 {
		opts.Completions = *completions
	}
	if *warmup > 0 {
		opts.Warmup = *warmup
	}
	if *runs > 0 {
		opts.Runs = *runs
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *db > 0 {
		opts.DBSize = *db
	}
	if *terminals > 0 {
		opts.Terminals = *terminals
	}

	var ids []string
	switch {
	case *all:
		ids = repro.ExperimentIDs()
	case *experiment != "":
		ids = []string{*experiment}
	default:
		fmt.Fprintln(os.Stderr, "sccbench: need -experiment <id>, -all, -list or -tables")
		flag.Usage()
		os.Exit(2)
	}

	for _, id := range ids {
		start := time.Now()
		res, err := repro.RunExperiment(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(res.Table())
		fmt.Printf("elapsed: %v\n\n", time.Since(start).Round(time.Millisecond))
	}
}
