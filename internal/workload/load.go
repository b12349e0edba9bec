package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
)

// LoadConfig parameterises a closed-loop load run against any
// core.Store: Workers goroutines each submit TxnsPerWorker transactions
// drawn from the workload generator, restarting aborted transactions
// with a fresh id (the simulator's restart policy, minus think time).
// The same harness drives a single-scheduler core.DB and a dist.Cluster
// — the store is only ever touched through the Store/Txn interfaces.
type LoadConfig struct {
	// Workload draws transactions; its Factory is installed on the
	// store (for a cluster, routing keeps each object at its home
	// site).
	Workload Generator
	// Workers is the number of concurrent submitting goroutines.
	Workers int
	// TxnsPerWorker is how many completions each worker drives.
	TxnsPerWorker int
	// MinLength/MaxLength bound the uniformly drawn transaction
	// length (defaults 4..12, the paper's nominal bounds).
	MinLength, MaxLength int
	// Seed drives the per-worker RNGs.
	Seed int64
	// MaxRestarts caps restarts per logical transaction (safety
	// valve; 0 means 1000). Restarts back off exponentially, the
	// closed-loop stand-in for the simulator's think time.
	MaxRestarts int
	// RetryHeldAborts tolerates crash-stop failures of held
	// pseudo-commits: a held transaction that ends in a retryable abort
	// (a participant crash revoked it before its commit point) is
	// re-run as a fresh attempt instead of failing the load, and a
	// commit-conversation abort retries like a Do-time abort. Logical
	// commits are then counted when the real commit lands, not at
	// promise time. The chaos harness sets this; a no-failure load
	// behaves identically either way.
	RetryHeldAborts bool
	// OnCommitted, if set, is called once per logical transaction whose
	// commit promise was honoured, with the steps it executed — the
	// chaos harness's conservation accounting. Called from worker
	// goroutines; must be safe for concurrent use.
	OnCommitted func(steps []Step)
}

// LoadResult summarises one load run.
type LoadResult struct {
	Shards     int
	Commits    uint64 // logical transactions committed
	Pseudo     uint64 // commits that were held (PseudoCommitted) first
	Aborts     uint64 // aborted attempts (each restarted)
	HeldAborts uint64 // held pseudo-commits revoked by a site crash (each re-run)
	Ops        uint64 // operations executed, aborted attempts included
	Elapsed    time.Duration
	TxnPerSec  float64
}

func (r LoadResult) String() string {
	return fmt.Sprintf("shards=%d commits=%d pseudo=%d aborts=%d heldaborts=%d ops=%d elapsed=%s txn/s=%.0f",
		r.Shards, r.Commits, r.Pseudo, r.Aborts, r.HeldAborts, r.Ops, r.Elapsed.Round(time.Millisecond), r.TxnPerSec)
}

// factoryStore is the optional store capability the harness uses to
// seed the database lazily; both core.DB and dist.Cluster provide it.
type factoryStore interface {
	SetFactory(func(core.ObjectID) (adt.Type, compat.Classifier))
}

// shardedStore is the optional capability reporting how many sites the
// store shards across (for LoadResult.Shards; absent means 1).
type shardedStore interface {
	NumSites() int
}

// RunLoad drives the store with the configured closed-loop workload
// and returns aggregate throughput. It is the multi-site counterpart
// of the discrete-event simulator's terminal loop: real goroutines,
// real contention, wall-clock time — against whichever Store backend
// the caller passes.
func RunLoad(st core.Store, cfg LoadConfig) (LoadResult, error) {
	if cfg.Workload == nil {
		return LoadResult{}, errors.New("workload: load needs a workload")
	}
	if cfg.Workers <= 0 || cfg.TxnsPerWorker <= 0 {
		return LoadResult{}, errors.New("workload: load needs positive Workers and TxnsPerWorker")
	}
	fs, ok := st.(factoryStore)
	if !ok {
		return LoadResult{}, fmt.Errorf("workload: store %T cannot install the workload's object factory", st)
	}
	minLen, maxLen := cfg.MinLength, cfg.MaxLength
	if minLen <= 0 {
		minLen = 4
	}
	if maxLen < minLen {
		maxLen = minLen + 8
	}
	maxRestarts := cfg.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = core.RunMaxAttempts
	}
	fs.SetFactory(cfg.Workload.Factory())
	src := Source{Gen: cfg.Workload, MinLen: minLen, MaxLen: maxLen}

	var commits, pseudo, aborts, heldAborts, ops atomic.Uint64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			fail := func(err error) { firstErr.CompareAndSwap(nil, err) }
			committed := func(steps []Step) {
				commits.Add(1)
				if cfg.OnCommitted != nil {
					cfg.OnCommitted(steps)
				}
			}
			// runOnce drives the logical transaction until it commits
			// (really, returning nil, or pseudo, returning the handle)
			// with exponential jittered backoff between attempts (the
			// policy Store.Run uses, shared constants): an immediate
			// replay of the same steps tends to re-collide with the
			// same resident set. ok is false on a fatal error.
			runOnce := func(steps []Step) (heldTxn core.Txn, ok bool) {
			restart:
				for attempt := 0; ; attempt++ {
					if attempt > maxRestarts {
						fail(fmt.Errorf("workload: transaction exceeded %d restarts", maxRestarts))
						return nil, false
					}
					if attempt > 0 {
						shift := attempt
						if shift > core.RunBackoffShift {
							shift = core.RunBackoffShift
						}
						time.Sleep(time.Duration(1+r.Intn(1<<shift)) * core.RunBackoffBase)
					}
					t := st.Begin()
					for _, step := range steps {
						if _, err := t.Do(step.Object, step.Op); err != nil {
							if errors.Is(err, core.ErrTxnAborted) {
								aborts.Add(1)
								continue restart
							}
							fail(err)
							t.Abort() // don't leave live operations blocking other workers
							return nil, false
						}
						ops.Add(1)
					}
					status, err := t.Commit()
					if err != nil {
						// Under chaos a commit conversation can die with
						// the site it is talking to; that is a retryable
						// abort like any other. A bounded-hold policy shed
						// is always retried: it is a normal admission
						// outcome whenever a policy is installed, not a
						// crash artifact gated on RetryHeldAborts.
						var ab *core.ErrAborted
						if (cfg.RetryHeldAborts || errors.Is(err, core.ErrHoldShed)) &&
							errors.As(err, &ab) && ab.Retryable() {
							aborts.Add(1)
							continue restart
						}
						fail(err)
						t.Abort()
						return nil, false
					}
					if status == core.PseudoCommitted {
						pseudo.Add(1)
						return t, true
					}
					return nil, true
				}
			}

			// Every pseudo-commit is a promise: each must land before
			// the run is declared done. Under RetryHeldAborts a revoked
			// promise (site crash) re-runs the logical transaction;
			// otherwise any held failure is fatal. A stuck hold hangs
			// here and is caught by the caller's watchdog, not silently
			// dropped.
			type heldRec struct {
				t     core.Txn
				steps []Step
			}
			var held []heldRec
			// Quiescence on every exit path, fatal errors included: no
			// worker returns while a pseudo-commit it owns is still in
			// flight, so a caller never observes the store mutating
			// after RunLoad. Fatal paths abort their active txn first,
			// so every held dependency terminates and Done closes.
			defer func() {
				for _, h := range held {
					<-h.t.Done()
				}
			}()
			for i := 0; i < cfg.TxnsPerWorker; i++ {
				steps := src.Draw(r)
				t, ok := runOnce(steps)
				if !ok {
					return
				}
				if t == nil {
					committed(steps)
				} else if cfg.RetryHeldAborts {
					held = append(held, heldRec{t: t, steps: steps})
				} else {
					// Promise-time counting, the historical contract:
					// the drain below only verifies the promise.
					committed(steps)
					held = append(held, heldRec{t: t})
				}
			}
			for len(held) > 0 {
				h := held[len(held)-1]
				held = held[:len(held)-1]
				<-h.t.Done()
				err := h.t.Err()
				if err == nil {
					if cfg.RetryHeldAborts {
						committed(h.steps)
					}
					continue
				}
				var ab *core.ErrAborted
				if cfg.RetryHeldAborts && errors.As(err, &ab) && ab.Retryable() {
					heldAborts.Add(1)
					t, ok := runOnce(h.steps)
					if !ok {
						return
					}
					if t == nil {
						committed(h.steps)
					} else {
						held = append(held, heldRec{t: t, steps: h.steps})
					}
					continue
				}
				fail(err)
				return
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if err, ok := firstErr.Load().(error); ok && err != nil {
		return LoadResult{}, err
	}
	shards := 1
	if ss, ok := st.(shardedStore); ok {
		shards = ss.NumSites()
	}
	res := LoadResult{
		Shards:     shards,
		Commits:    commits.Load(),
		Pseudo:     pseudo.Load(),
		Aborts:     aborts.Load(),
		HeldAborts: heldAborts.Load(),
		Ops:        ops.Load(),
		Elapsed:    elapsed,
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.TxnPerSec = float64(res.Commits) / sec
	}
	return res, nil
}
