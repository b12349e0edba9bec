package workload

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// CrashableStore is the store surface the chaos harness drives: a
// multi-site Store whose sites can be crashed and restarted.
// Every dist.Cluster implements it (its sites are crash-stop).
type CrashableStore interface {
	core.Store
	NumSites() int
	CrashSite(site int) error
	RestartSite(site int) error
}

// ChaosConfig parameterises RunChaos: the closed-loop load to drive
// plus the crash schedule injected under it.
type ChaosConfig struct {
	// Load is the workload (RetryHeldAborts and OnCommitted are
	// overridden by the harness).
	Load LoadConfig
	// CrashEvery is the healthy interval before each crash (default
	// 20ms).
	CrashEvery time.Duration
	// RestartAfter is the downtime per crash (default 5ms).
	RestartAfter time.Duration
	// MaxCrashes bounds the number of injected crashes (0 = keep
	// crashing until the load completes).
	MaxCrashes int
	// Deadline is the liveness watchdog: if the load has not completed
	// within it, RunChaos fails instead of hanging (0 = no watchdog).
	Deadline time.Duration
}

// ChaosResult is a LoadResult plus the failure-injection accounting.
type ChaosResult struct {
	LoadResult
	// Crashes is the number of crash/restart cycles injected.
	Crashes int
	// CommittedSteps counts, per object, the operations of logical
	// transactions whose commit promise was honoured — the expected
	// side of a conservation check against the surviving committed
	// states (for Pushes, committed stack depth must equal it exactly).
	CommittedSteps map[core.ObjectID]uint64
}

// RunChaos drives the configured closed-loop load while periodically
// crashing and restarting one site at a time, round-robin. Held
// pseudo-commits revoked by a crash are re-run (every logical
// transaction ends in exactly one of: really committed, or retried
// until it is), so on success Commits equals Workers*TxnsPerWorker and
// CommittedSteps is exact. All sites are up when RunChaos returns.
func RunChaos(st CrashableStore, cfg ChaosConfig) (ChaosResult, error) {
	crashEvery := cfg.CrashEvery
	if crashEvery <= 0 {
		crashEvery = 20 * time.Millisecond
	}
	restartAfter := cfg.RestartAfter
	if restartAfter <= 0 {
		restartAfter = 5 * time.Millisecond
	}

	lc := cfg.Load
	lc.RetryHeldAborts = true
	var mu sync.Mutex
	counts := make(map[core.ObjectID]uint64)
	lc.OnCommitted = func(steps []Step) {
		mu.Lock()
		for _, s := range steps {
			counts[s.Object]++
		}
		mu.Unlock()
	}

	// The injector crashes site k, waits out the downtime, restarts it
	// — never leaving a site down on exit — and moves to the next.
	stop := make(chan struct{})
	injDone := make(chan struct{})
	crashes := 0
	var injErr error
	go func() {
		defer close(injDone)
		site := 0
		for i := 0; cfg.MaxCrashes == 0 || i < cfg.MaxCrashes; i++ {
			select {
			case <-stop:
				return
			case <-time.After(crashEvery):
			}
			if err := st.CrashSite(site); err != nil {
				injErr = fmt.Errorf("workload: chaos crash of site %d: %w", site, err)
				return
			}
			crashes++
			// Not interruptible by stop: a crashed site must restart
			// before the injector exits.
			time.Sleep(restartAfter)
			if err := st.RestartSite(site); err != nil {
				injErr = fmt.Errorf("workload: chaos restart of site %d: %w", site, err)
				return
			}
			site = (site + 1) % st.NumSites()
		}
	}()

	type loadOut struct {
		res LoadResult
		err error
	}
	loadCh := make(chan loadOut, 1)
	go func() {
		res, err := RunLoad(st, lc)
		loadCh <- loadOut{res: res, err: err}
	}()

	var out loadOut
	if cfg.Deadline > 0 {
		select {
		case out = <-loadCh:
		case <-time.After(cfg.Deadline):
			close(stop)
			<-injDone
			if injErr != nil {
				// A failed restart leaves the site down and the load
				// grinding on retries: the injector error is the root
				// cause, the missed deadline only the symptom.
				return ChaosResult{}, injErr
			}
			return ChaosResult{}, errors.New("workload: chaos run exceeded its deadline (liveness violation: load stalled)")
		}
	} else {
		out = <-loadCh
	}
	close(stop)
	<-injDone
	// Injector failures come first for the same reason: a site stuck
	// down makes the load fail with downstream retry symptoms.
	if injErr != nil {
		return ChaosResult{}, injErr
	}
	if out.err != nil {
		return ChaosResult{}, out.err
	}
	return ChaosResult{LoadResult: out.res, Crashes: crashes, CommittedSteps: counts}, nil
}
