// Command sccsim runs the discrete-event simulations: the paper's §5
// single-site closed queuing model (the default), the §5 figures and
// the repository's ablations (-experiment), and the §6 multi-site
// cluster model (-sites > 0 or -scenario), which drives real per-site
// schedulers, the real coordinator commit conversation and the real
// decision log from a virtual clock, with seeded message latency and
// protocol-step crash injection.
//
// Figure examples (-experiment takes an id, all or list; the scale
// flags -completions -warmup -runs -seed -db -terminals apply, and an
// unset one keeps the experiment default of 4000 completions, 400
// warm-up, 3 runs):
//
//	sccsim -experiment list
//	sccsim -experiment fig4
//	sccsim -experiment fig4 -completions 200 -warmup 20 -runs 1     # smoke scale
//	sccsim -experiment fig14 -completions 50000 -warmup 5000 -runs 10  # paper scale
//	sccsim -experiment all
//
// Single-site examples:
//
//	sccsim -mpl 50                                  # RW model, defaults
//	sccsim -mpl 50 -predicate commutativity
//	sccsim -mpl 100 -resources 5 -writeprob 0.5
//	sccsim -model adt -pc 4 -pr 8 -mpl 50
//	sccsim -model mix -db 300 -unfair
//
// Multi-site examples:
//
//	sccsim -sites 8 -terminals 32 -model pushes -cross 0.4    # convoy regime
//	sccsim -scenario convoy                                   # the convoy under the default hold policy
//	sccsim -scenario convoy -policy off                       # the checked-in collapse baseline (unbounded)
//	sccsim -scenario convoy -policy depth=16                  # shed the convoy tail past depth 16
//	sccsim -sites 2 -model pushes -cross 0.5 -completions 40 -warmup 0 \
//	    -crash-at AfterDecisionBeforeRelease -restart-after 0.5 -trace
//	sccsim -sites 200 -terminals 100 -model pushes -cross 0.2 -latency 0.01
//	sccsim -sites 8 -sweep-latency 0.002,0.01,0.05 -sweep-cross 0,0.2,0.4
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/dist"
	"repro/internal/distsim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	var (
		model       = flag.String("model", "rw", "workload model: rw, adt, mix, pushes")
		mpl         = flag.Int("mpl", 50, "multiprogramming level (single-site model)")
		db          = flag.Int("db", 1000, "database size (objects)")
		terminals   = flag.Int("terminals", 200, "number of terminals")
		writeProb   = flag.Float64("writeprob", 0.3, "write probability (rw model)")
		pc          = flag.Int("pc", 4, "commutative entries Pc (adt model)")
		pr          = flag.Int("pr", 4, "recoverable entries Pr (adt model)")
		resources   = flag.Int("resources", 0, "resource units (0 = infinite; single-site model)")
		predicate   = flag.String("predicate", "recoverability", "conflict predicate: recoverability, commutativity")
		recovery    = flag.String("recovery", "intentions", "recovery strategy: intentions, undo (single-site model)")
		unfair      = flag.Bool("unfair", false, "disable fair scheduling (single-site model)")
		noPseudo    = flag.Bool("no-pseudo-commit", false, "defer completion to the real commit (single-site ablation)")
		fakeRestart = flag.Bool("fake-restarts", false, "restarted transactions draw fresh operation sequences (single-site model)")
		completions = flag.Int("completions", 4000, "completions to measure")
		warmup      = flag.Int("warmup", 400, "warm-up completions discarded")
		runs        = flag.Int("runs", 1, "independent runs to average (single-site model)")
		seed        = flag.Int64("seed", 1, "RNG seed")

		// Multi-site (distsim) mode.
		sites        = flag.Int("sites", 0, "participant sites; > 0 selects the multi-site cluster simulation")
		cross        = flag.Float64("cross", 0.2, "per-step cross-site probability (multi-site)")
		latency      = flag.Float64("latency", 0.01, "mean one-way coordinator<->site message latency, seconds (multi-site)")
		jitter       = flag.Float64("jitter", 0.5, "latency jitter fraction in [0,1] (multi-site)")
		siteTime     = flag.Float64("sitetime", 0.005, "per-operation site service time, seconds (multi-site)")
		think        = flag.Float64("think", 0.1, "mean terminal think time, seconds (multi-site)")
		crashAt      = flag.String("crash-at", "", "crash on a protocol-step boundary: BeforeCommitHold, AfterPrepareForce, BeforeDecisionForce, AfterDecisionBeforeRelease, DuringReleaseCascade")
		crashNth     = flag.Int("crash-nth", 1, "which global occurrence of -crash-at to crash on")
		crashSite    = flag.Int("crash-site", -1, "site to crash (-1 = the step's own site)")
		restartAfter = flag.Float64("restart-after", 0.5, "virtual downtime before the crashed site restarts (<= 0: stays down until the run ends)")
		trace        = flag.Bool("trace", false, "print the full replayable event trace (multi-site)")
		scenario     = flag.String("scenario", "", "run a checked-in scenario: convoy, redo, presume")
		policy       = flag.String("policy", "", "hold policy: off (unbounded) or depth=N; empty is the cluster default (multi-site)")
		sweepLat     = flag.String("sweep-latency", "", "comma-separated latencies: sweep message latency x cross-site probability")
		sweepCross   = flag.String("sweep-cross", "", "comma-separated cross probabilities for the sweep (default 0,0.2,0.4)")

		experiment = flag.String("experiment", "", "run a §5 figure or ablation by id (fig4..fig18, ablation-*), all, or list; an unset -completions -warmup -runs -seed -db -terminals keeps the experiment default")
	)
	flag.Parse()

	if *experiment != "" {
		opts := repro.DefaultExperimentOpts()
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "completions":
				opts.Completions = *completions
			case "warmup":
				opts.Warmup = *warmup
			case "runs":
				opts.Runs = *runs
			case "seed":
				opts.Seed = *seed
			case "db":
				opts.DBSize = *db
			case "terminals":
				opts.Terminals = *terminals
			}
		})
		runExperiments(*experiment, opts)
		return
	}

	if *scenario != "" || *sites > 0 || *sweepLat != "" || *sweepCross != "" {
		multiSite(*model, *db, *terminals, *writeProb, *pc, *pr, *predicate,
			*completions, *warmup, *seed, *sites, *cross, *latency, *jitter,
			*siteTime, *think, *crashAt, *crashNth, *crashSite, *restartAfter,
			*trace, *scenario, *policy, *sweepLat, *sweepCross)
		return
	}

	w := pickWorkload(*model, *db, *writeProb, *pc, *pr)
	cfg := repro.DefaultSimConfig(w, *mpl, *seed)
	cfg.Terminals = *terminals
	cfg.ResourceUnits = *resources
	cfg.Unfair = *unfair
	cfg.DisablePseudoCommit = *noPseudo
	cfg.FakeRestarts = *fakeRestart
	cfg.Completions = *completions
	cfg.Warmup = *warmup
	cfg.Predicate = parsePredicate(*predicate)
	switch *recovery {
	case "intentions":
		cfg.Recovery = repro.RecoveryIntentions
	case "undo":
		cfg.Recovery = repro.RecoveryUndo
	default:
		fatalf("unknown recovery %q", *recovery)
	}

	runsOut, err := repro.SimulateRuns(cfg, *runs)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("workload=%s mpl=%d resources=%s predicate=%s fair=%v runs=%d completions=%d\n",
		w.Name(), *mpl, resourceLabel(*resources), *predicate, !*unfair, *runs, *completions)
	for _, m := range []string{"throughput", "response-time", "blocking-ratio", "restart-ratio", "cycle-check-ratio", "abort-length"} {
		s, err := repro.AggregateRuns(runsOut, m)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("  %-18s %s\n", m, s)
	}
}

// runExperiments prints the series of one experiment (or all of them),
// or lists the experiment ids.
func runExperiments(id string, opts repro.ExperimentOpts) {
	ids := []string{id}
	switch id {
	case "list":
		for _, id := range repro.ExperimentIDs() {
			spec, _ := repro.LookupExperiment(id)
			fmt.Printf("%-22s %s\n", id, spec.Title)
		}
		return
	case "all":
		ids = repro.ExperimentIDs()
	}
	for _, id := range ids {
		start := time.Now()
		res, err := repro.RunExperiment(id, opts)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(res.Table())
		fmt.Printf("elapsed: %v\n\n", time.Since(start).Round(time.Millisecond))
	}
}

// multiSite runs the deterministic cluster simulation.
func multiSite(model string, db, terminals int, writeProb float64, pc, pr int,
	predicate string, completions, warmup int, seed int64,
	sites int, cross, latency, jitter, siteTime, think float64,
	crashAt string, crashNth, crashSite int, restartAfter float64,
	trace bool, scenario, policy, sweepLat, sweepCross string) {

	pol, err := dist.ParsePolicy(policy)
	if err != nil {
		fatalf("%v", err)
	}
	if pol == nil {
		// The simulated coordinator takes what it is given; simulate
		// what a cluster ships with unless told otherwise.
		pol = dist.DefaultPolicy()
	}

	var cfg distsim.Config
	switch scenario {
	case "convoy":
		cfg = distsim.Convoy(seed)
	case "redo":
		cfg = distsim.CrashRedo(seed)
	case "presume":
		cfg = distsim.CrashPresume(seed)
	case "":
		if sites <= 0 {
			sites = 4
		}
		inner := pickWorkload(model, db, writeProb, pc, pr)
		cfg = distsim.Default(workload.Sharded{Inner: inner, Sites: sites, CrossProb: cross}, sites, terminals, seed)
		cfg.MsgTime = latency
		cfg.MsgJitter = jitter
		cfg.SiteTime = siteTime
		cfg.ThinkTime = think
		cfg.Completions = completions
		cfg.Warmup = warmup
		cfg.Predicate = parsePredicate(predicate)
	default:
		fatalf("unknown scenario %q (convoy, redo, presume)", scenario)
	}
	if crashAt != "" {
		step, ok := dist.ParseStep(crashAt)
		if !ok {
			fatalf("unknown step %q", crashAt)
		}
		cfg.Crashes = append(cfg.Crashes, distsim.CrashPoint{
			Step: step, Occurrence: crashNth, Site: crashSite, RestartAfter: restartAfter,
		})
	}
	cfg.RecordTrace = trace
	cfg.Policy = pol

	if sweepCross != "" && sweepLat == "" {
		fatalf("-sweep-cross needs -sweep-latency (the sweep is a latency x cross grid)")
	}
	if sweepLat != "" {
		if crashAt != "" || trace || scenario != "" {
			fatalf("-sweep-latency runs its own scenario grid; it cannot combine with -crash-at, -trace or -scenario")
		}
		lats := parseFloats(sweepLat)
		crosses := parseFloats(sweepCross)
		if len(crosses) == 0 {
			crosses = []float64{0, 0.2, 0.4}
		}
		fmt.Printf("sweep sites=%d terminals=%d seed=%d (real/pseudo txn per simulated second, max convoy depth)\n",
			cfg.Sites, cfg.Terminals, seed)
		fmt.Printf("%10s", "lat\\cross")
		for _, cr := range crosses {
			fmt.Printf(" %18.2f", cr)
		}
		fmt.Println()
		for _, lat := range lats {
			fmt.Printf("%10.4f", lat)
			for _, cr := range crosses {
				c := distsim.SweepPoint(cfg.Sites, cfg.Terminals, lat, cr, seed)
				c.Policy = pol
				res := runSim(c)
				fmt.Printf(" %6.1f/%6.1f d=%-4d", res.RealThroughput(), res.PseudoThroughput(), res.ConvoyMax)
			}
			fmt.Println()
		}
		return
	}

	res := runSim(cfg)
	if trace {
		for _, line := range res.Trace {
			fmt.Println(line)
		}
	}
	fmt.Printf("multi-site simulation: sites=%d terminals=%d workload=%s seed=%d\n",
		cfg.Sites, cfg.Terminals, cfg.Workload.Name(), cfg.Seed)
	fmt.Printf("  sim-time           %.3f s (window)\n", res.SimTime)
	fmt.Printf("  real-throughput    %.1f txn/s (%d real commits)\n", res.RealThroughput(), res.RealCommits)
	fmt.Printf("  pseudo-throughput  %.1f txn/s (%d terminal completions)\n", res.PseudoThroughput(), res.PseudoCompletions)
	fmt.Printf("  aborts             %d (+%d revoked holds)\n", res.Aborts, res.HeldAborts)
	fmt.Printf("  held               %d conversations; convoy depth %s\n", res.Held, res.ConvoySummary())
	fmt.Printf("  held-wait p99      %.4f s; time-to-drain %.3f s\n", res.HeldWaitP99, res.TimeToDrain)
	if res.Policy != "" {
		fmt.Printf("  policy             %s: shed %d\n", res.Policy, res.TailAborts)
	}
	fmt.Printf("  phase latency      exec %s\n", seconds(res.PhaseExec))
	fmt.Printf("                     hold %s\n", seconds(res.PhaseHold))
	fmt.Printf("                     held-wait %s\n", seconds(res.PhaseHeldWait))
	fmt.Printf("                     release %s\n", seconds(res.PhaseRelease))
	fmt.Printf("  crashes            %d (restarts %d, redone %d, presumed aborted %d)\n",
		res.Crashes, res.Restarts, res.Redone, res.PresumedAborted)
	fmt.Printf("  in-doubt windows   %s\n", seconds(res.InDoubt))
	fmt.Printf("  decision-log peak  %d live entries\n", res.LogHighWater)
	fmt.Printf("  trace              %d events, hash %016x\n", res.TraceLines, res.TraceHash)
}

// seconds renders a virtual-nanosecond distribution in virtual
// seconds: sample count, mean, and the p50 and p95 bucket upper bounds.
func seconds(s telemetry.HistSnapshot) string {
	return fmt.Sprintf("n=%d mean=%.6f p50<=%.6f p95<=%.6f",
		s.Count, s.Mean()/1e9, s.Quantile(0.5)/1e9, s.Quantile(0.95)/1e9)
}

// runSim builds and runs one engine.
func runSim(cfg distsim.Config) distsim.Result {
	eng, err := distsim.NewEngine(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	res, err := eng.Run()
	if err != nil {
		fatalf("%v", err)
	}
	return res
}

// pickWorkload builds the inner workload generator.
func pickWorkload(model string, db int, writeProb float64, pc, pr int) repro.WorkloadGenerator {
	switch model {
	case "rw":
		return repro.ReadWriteWorkload{DBSize: db, WriteProb: writeProb}
	case "adt":
		return repro.AbstractWorkload{DBSize: db, Sigma: 4, Pc: pc, Pr: pr, TableSeed: 7}
	case "mix":
		return repro.MixWorkload{DBSize: db, ArgRange: 8}
	case "pushes":
		return workload.Pushes{DBSize: db}
	default:
		fatalf("unknown model %q", model)
		return nil
	}
}

func parsePredicate(name string) repro.Predicate {
	switch name {
	case "recoverability":
		return repro.PredRecoverability
	case "commutativity":
		return repro.PredCommutativity
	}
	fatalf("unknown predicate %q", name)
	return 0
}

func parseFloats(s string) []float64 {
	if s == "" {
		return nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fatalf("bad float %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sccsim: "+format+"\n", args...)
	os.Exit(2)
}

func resourceLabel(n int) string {
	if n == 0 {
		return "infinite"
	}
	return fmt.Sprintf("%d unit(s)", n)
}
