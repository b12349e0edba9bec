// Command sccd runs one process of a distributed SCC cluster: either a
// site daemon (a set of crash-tolerant participant sites behind the
// wire protocol) or the coordinator (the §6 commit-conversation
// coordinator over remote participants, with a durable decision log
// and a client-plane server).
//
// Both roles read the same JSON cluster file (see wire.ClusterFile):
//
//	sccd -config cluster.json -role site -daemon 0
//	sccd -config cluster.json -role coord
//
// A site daemon keeps its state across coordinator crashes: a new
// coordinator started on the same decision log adopts the daemons'
// surviving transactions and resolves them against the logged
// decisions (kill -9 the coordinator, restart it, and the cluster
// carries on). Killing a site daemon loses that daemon's volatile
// state, which is exactly the paper's crash-stop site failure; the
// coordinator presumed-aborts what the daemon held.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/debugz"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func main() {
	var (
		config    = flag.String("config", "", "cluster description JSON (required)")
		role      = flag.String("role", "", "process role: site | coord")
		daemon    = flag.Int("daemon", -1, "site role: index into the cluster file's daemons list")
		dialWait  = flag.Duration("dialwait", 10*time.Second, "coord role: how long to wait for site daemons at startup")
		debugAddr = flag.String("debug-addr", "", "debug-plane HTTP listen address (overrides the cluster file; empty uses the file, \"off\" disables)")
	)
	flag.Parse()
	if *config == "" || *role == "" {
		flag.Usage()
		os.Exit(2)
	}
	cf, err := wire.LoadClusterFile(*config)
	if err != nil {
		fatal(err)
	}
	switch *role {
	case "site":
		runSite(cf, *daemon, *debugAddr)
	case "coord":
		runCoord(cf, *dialWait, *debugAddr)
	default:
		fatal(fmt.Errorf("unknown role %q (want site or coord)", *role))
	}
}

// pickDebugAddr resolves the debug-plane address from the flag
// override and the cluster-file default.
func pickDebugAddr(flagAddr, fileAddr string) string {
	switch flagAddr {
	case "":
		return fileAddr
	case "off":
		return ""
	}
	return flagAddr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sccd:", err)
	os.Exit(1)
}

// buildSpanPlane constructs the process's span plane from the cluster
// file: the span buffer and the flight recorder that dumps it, both nil
// when the span plane is off. process labels the dump files.
func buildSpanPlane(cf *wire.ClusterFile, process string) (*telemetry.SpanBuffer, *telemetry.FlightRecorder) {
	spans := telemetry.NewSpanBuffer(cf.Spans, cf.SampleSeed, cf.SampleRate)
	if spans == nil {
		return nil, nil
	}
	return spans, telemetry.NewFlightRecorder(process, cf.FlightDir, spans)
}

// watchSignals blocks until SIGINT/SIGTERM arrives on quit (wire-level
// shutdown requests feed the same channel). SIGQUIT does not exit: it
// dumps the flight recorder — the live post-mortem hook — and the
// process carries on serving.
func watchSignals(quit chan os.Signal, fr *telemetry.FlightRecorder) {
	signal.Notify(quit, syscall.SIGINT, syscall.SIGTERM, syscall.SIGQUIT)
	for sig := range quit {
		if sig != syscall.SIGQUIT {
			return
		}
		if fr == nil {
			fmt.Fprintln(os.Stderr, "sccd: SIGQUIT but no flight recorder configured (set \"spans\" in the cluster file)")
			continue
		}
		if path, err := fr.Dump("sigquit"); err != nil {
			fmt.Fprintln(os.Stderr, "sccd: flight dump failed:", err)
		} else {
			fmt.Printf("sccd: flight dump written to %s\n", path)
		}
	}
}

// runSite serves one daemon's sites until a signal or a wire-level
// shutdown request. Each site is a fault.Crashable with a private
// in-memory log: the daemon's recovery is driven by the coordinator's
// decision log at reconcile time, not replayed locally.
func runSite(cf *wire.ClusterFile, idx int, debugAddr string) {
	if idx < 0 || idx >= len(cf.Daemons) {
		fatal(fmt.Errorf("-daemon %d out of range (cluster has %d daemons)", idx, len(cf.Daemons)))
	}
	d := cf.Daemons[idx]
	sites := make(map[uint16]dist.SiteBackend, len(d.Sites))
	for _, sid := range d.Sites {
		cr, err := fault.New(core.Options{}, fault.NewMemLog())
		if err != nil {
			fatal(err)
		}
		sites[sid] = cr
	}
	process := fmt.Sprintf("site%d", idx)
	spans, flight := buildSpanPlane(cf, process)
	quit := make(chan os.Signal, 1)
	srv, err := wire.ServeSites(wire.SiteServerConfig{
		Addr:       d.Listen,
		Sites:      sites,
		Workload:   cf.Workload,
		Spans:      spans,
		Flight:     flight,
		OnShutdown: func() { quit <- syscall.SIGTERM },
	})
	if err != nil {
		fatal(err)
	}
	if addr := pickDebugAddr(debugAddr, d.Debug); addr != "" {
		dbg, err := debugz.Serve(debugz.Config{
			Addr:    addr,
			Role:    "site",
			Process: process,
			Sites:   sites,
			Spans:   spans,
			Flight:  flight,
		})
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Printf("sccd: site daemon %d debug plane on http://%s\n", idx, dbg.Addr())
	}
	fmt.Printf("sccd: site daemon %d serving sites %v on %s\n", idx, d.Sites, srv.Addr())
	watchSignals(quit, flight)
	srv.Close()
}

// runCoord starts the coordinator: it opens (or re-opens) the decision
// log, adopts any logged commits a previous incarnation left behind,
// reconciles every reachable site daemon, and serves clients.
func runCoord(cf *wire.ClusterFile, dialWait time.Duration, debugAddr string) {
	if cf.Log == "" {
		fatal(fmt.Errorf("coord role needs a decision log path (\"log\")"))
	}
	policy, err := dist.ParsePolicy(cf.Policy)
	if err != nil {
		fatal(err)
	}
	flog, err := fault.OpenFileLog(cf.Log, cf.Sync)
	if err != nil {
		fatal(err)
	}
	spans, flight := buildSpanPlane(cf, "coord")
	co, err := wire.StartCoordinator(wire.CoordinatorConfig{
		ClientAddr: cf.Client,
		Log:        flog,
		CloseLog:   flog.Close,
		Daemons:    cf.Daemons,
		Workload:   cf.Workload,
		DialWait:   dialWait,
		Policy:     policy,
		Spans:      spans,
		Flight:     flight,
	})
	if err != nil {
		flog.Close()
		fatal(err)
	}
	if addr := pickDebugAddr(debugAddr, cf.Debug); addr != "" {
		dbg, err := debugz.Serve(debugz.Config{
			Addr:    addr,
			Role:    "coord",
			Process: "coord",
			Cluster: co.Cluster,
			Wire:    co.WireMetrics(),
			Spans:   spans,
			Flight:  flight,
		})
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Printf("sccd: coordinator debug plane on http://%s\n", dbg.Addr())
	}
	if n := len(co.Adopted); n > 0 {
		fmt.Printf("sccd: coordinator adopted %d logged commit decision(s) from %s\n", n, cf.Log)
		for sid, rep := range co.Reports {
			if len(rep.Redone)+len(rep.PresumedAborted)+len(rep.Aborted) > 0 {
				fmt.Printf("sccd:   site %d reconcile: redone=%v presumed-aborted=%v orphans-aborted=%v\n",
					sid, rep.Redone, rep.PresumedAborted, rep.Aborted)
			}
		}
	}
	fmt.Printf("sccd: coordinator serving %d sites on %s (log %s, hold policy %s)\n",
		cf.NumSites(), co.Addr(), cf.Log, co.Cluster.PolicyName())
	quit := make(chan os.Signal, 1)
	watchSignals(quit, flight)
	co.Close()
}
