// Command sccctl operates a running sccd cluster from the command
// line. All subcommands read the same JSON cluster file the daemons
// were started from:
//
//	sccctl -config cluster.json init              # wait until every process answers
//	sccctl -config cluster.json status            # site liveness, stats, decision-log depth
//	sccctl -config cluster.json load [flags]      # drive a closed-loop load through the client plane
//	sccctl -config cluster.json kill -daemon N    # ask one site daemon to exit
//	sccctl -config cluster.json stats             # cluster-wide telemetry from the debug planes
//	sccctl -config cluster.json trace [flags]     # the coordinator's spans, or stitched cluster traces
//
// load drives workload.RunLoad against the coordinator over TCP with
// crash-tolerant retries, and with -verify checks conservation for
// stack workloads: every object's committed depth must equal its
// committed pushes — across site crashes and coordinator restarts.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/workload"
)

func main() {
	var (
		config = flag.String("config", "", "cluster description JSON (required)")
		wait   = flag.Duration("wait", 15*time.Second, "how long init/status wait for the coordinator")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: sccctl -config cluster.json [flags] init|status|load|kill [subcommand flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *config == "" || flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	cf, err := wire.LoadClusterFile(*config)
	if err != nil {
		fatal(err)
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "init":
		cmdInit(cf, *wait)
	case "status":
		cmdStatus(cf, *wait)
	case "load":
		cmdLoad(cf, *wait, args)
	case "kill":
		cmdKill(cf, args)
	case "stats":
		cmdStats(cf)
	case "trace":
		cmdTrace(cf, args)
	default:
		fatal(fmt.Errorf("unknown command %q", cmd))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sccctl:", err)
	os.Exit(1)
}

func dialCoord(cf *wire.ClusterFile, wait time.Duration) *wire.Client {
	cl, err := wire.Dial(cf.Client, wait)
	if err != nil {
		fatal(err)
	}
	return cl
}

// cmdInit waits until the whole cluster answers: every site daemon's
// participant plane and the coordinator's client plane, with every
// site up. It is the scripts' readiness barrier.
func cmdInit(cf *wire.ClusterFile, wait time.Duration) {
	for i, d := range cf.Daemons {
		if err := wire.PingDaemon(d.Listen, d.Sites[0], wait); err != nil {
			fatal(fmt.Errorf("daemon %d (%s): %w", i, d.Listen, err))
		}
	}
	cl := dialCoord(cf, wait)
	defer cl.Close()
	deadline := time.Now().Add(wait)
	for {
		down, _, _, err := cl.Status()
		if err == nil {
			allUp := true
			for _, d := range down {
				allUp = allUp && !d
			}
			if allUp {
				fmt.Printf("sccctl: cluster ready: %d daemons, %d sites, coordinator %s\n",
					len(cf.Daemons), cf.NumSites(), cf.Client)
				return
			}
		}
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("cluster not ready after %v", wait))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func cmdStatus(cf *wire.ClusterFile, wait time.Duration) {
	cl := dialCoord(cf, wait)
	defer cl.Close()
	down, st, logLen, err := cl.Status()
	if err != nil {
		fatal(err)
	}
	for sid, d := range down {
		state := "up"
		if d {
			state = "DOWN"
		}
		fmt.Printf("site %d: %s\n", sid, state)
	}
	fmt.Printf("commits=%d pseudo=%d aborts=%d deadlocks=%d cycles=%d\n",
		st.Commits, st.PseudoCommits, st.Aborts, st.DeadlockAborts, st.CycleAborts)
	fmt.Printf("decision log: %d live decision(s)\n", logLen)
}

// cmdLoad drives the configured workload through the client plane and
// reports throughput. MaxRestarts is set high and held aborts retry,
// so the load rides through site crashes and coordinator restarts; it
// fails only on non-retryable errors or verification.
func cmdLoad(cf *wire.ClusterFile, wait time.Duration, args []string) {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	var (
		workers = fs.Int("workers", 8, "concurrent load workers")
		txns    = fs.Int("txns", 100, "transactions per worker")
		minLen  = fs.Int("minlen", 2, "minimum transaction length")
		maxLen  = fs.Int("maxlen", 6, "maximum transaction length")
		seed    = fs.Int64("seed", 1, "workload seed")
		verify  = fs.Bool("verify", false, "verify conservation afterwards (stack workloads)")
	)
	fs.Parse(args)
	if cf.Workload == "" {
		fatal(fmt.Errorf("load needs a workload spec in the cluster file"))
	}
	gen, err := workload.ParseSpec(cf.Workload)
	if err != nil {
		fatal(err)
	}
	cl := dialCoord(cf, wait)
	defer cl.Close()

	var mu sync.Mutex
	counts := make(map[core.ObjectID]uint64)
	cfg := workload.LoadConfig{
		Workload:        gen,
		Workers:         *workers,
		TxnsPerWorker:   *txns,
		MinLength:       *minLen,
		MaxLength:       *maxLen,
		Seed:            *seed,
		MaxRestarts:     100000,
		RetryHeldAborts: true,
	}
	_, isPushes := gen.(workload.Pushes)
	if *verify {
		if !isPushes {
			fatal(fmt.Errorf("-verify needs a pushes workload (have %s)", gen.Name()))
		}
		cfg.OnCommitted = func(steps []workload.Step) {
			mu.Lock()
			for _, s := range steps {
				counts[s.Object]++
			}
			mu.Unlock()
		}
	}
	res, err := workload.RunLoad(cl, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("sccctl: load done: %s\n", res)
	if !*verify {
		return
	}
	bad := 0
	for obj := core.ObjectID(1); obj <= core.ObjectID(gen.Size()); obj++ {
		want := int(counts[obj])
		_, got, err := cl.StateLen(obj, true)
		if err != nil {
			// Never touched and never created: conserved iff no commits.
			if want == 0 {
				continue
			}
			fatal(fmt.Errorf("object %d: %w", obj, err))
		}
		if got != want {
			fmt.Fprintf(os.Stderr, "sccctl: object %d: committed depth %d, want %d pushes\n", obj, got, want)
			bad++
		}
	}
	if bad > 0 {
		fatal(fmt.Errorf("conservation FAILED for %d object(s)", bad))
	}
	fmt.Printf("sccctl: conservation verified across %d objects (%d committed pushes)\n",
		gen.Size(), total(counts))
}

func total(m map[core.ObjectID]uint64) (n uint64) {
	for _, v := range m {
		n += v
	}
	return n
}

func cmdKill(cf *wire.ClusterFile, args []string) {
	fs := flag.NewFlagSet("kill", flag.ExitOnError)
	daemon := fs.Int("daemon", -1, "index of the site daemon to stop")
	fs.Parse(args)
	if *daemon < 0 || *daemon >= len(cf.Daemons) {
		fatal(fmt.Errorf("-daemon %d out of range (cluster has %d daemons)", *daemon, len(cf.Daemons)))
	}
	addr := cf.Daemons[*daemon].Listen
	if err := wire.ShutdownDaemon(addr, 5*time.Second); err != nil {
		fatal(err)
	}
	fmt.Printf("sccctl: daemon %d (%s) asked to exit\n", *daemon, addr)
}
