package main

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/workload"
)

// loadConfig parameterises one closed-loop window against one store.
type loadConfig struct {
	gen     workload.Generator
	clients int
	seed    int64
	warmup  time.Duration
	window  time.Duration
	// drain bounds the wait for outstanding promises once the window
	// has closed; promises still pending after it fail the run.
	drain time.Duration
	// maxTxns, when positive, stops each client after it has begun that
	// many logical transactions (the untimed verified pass).
	maxTxns uint64
	// trace wraps the store per client with the span recorder.
	trace bool
	// countPushes keeps the per-object count of committed push steps
	// the conservation check compares against the store's state.
	countPushes bool
	// atWindowStart, if set, runs on the coordinating goroutine when
	// the warm-up ends (the counters' start snapshot).
	atWindowStart func()
}

// numSlices is how many equal time slices a window's latency samples
// are kept in, by the moment their transaction began. Percentiles are
// taken per slice and the median slice is reported, so one stall — a
// convoy episode, a noisy neighbour — moves one slice, not the run.
const numSlices = 5

// loadResult is what one window measured. Latencies are nanoseconds,
// sorted ascending within each slice, one per logical transaction
// begun inside the window.
type loadResult struct {
	attempted   uint64 // logical transactions begun inside the window
	committed   uint64 // ... whose real commit landed
	failed      uint64 // ... that ended in a fatal error or hit the restart cap
	unhonoured  uint64 // promises (window or warm-up) still pending at the drain deadline
	pseudo      uint64 // commits that were promises first
	restarts    uint64 // aborted attempts, each restarted
	revoked     uint64 // promises taken back, each re-run
	elapsed     time.Duration
	txnLat      [numSlices][]int64
	realLat     [numSlices][]int64
	pushes      []int64 // committed push steps per object id, warm-up included
	firstErr    error
	budget      *budget // trace only
	totalBegun  uint64  // logical transactions begun, warm-up included
	totalCommit uint64
}

func (r *loadResult) commitTPS() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.committed) / r.elapsed.Seconds()
}

// logical is one logical transaction: the drawn steps and the clock
// that keeps running across restarts and re-runs.
type logical struct {
	steps    []workload.Step
	start    time.Time
	inWindow bool
	slice    int  // which time slice of the window it began in
	promised bool // Commit has returned once; txn latency is recorded
	restarts int
	keep     bool   // span tree sampled
	txnSpan  uint64 // its latest txn span
}

// promise is a pseudo-committed transaction whose handle the client
// keeps until Done closes.
type promise struct {
	t    core.Txn
	done <-chan struct{}
	l    *logical
	at   time.Time // when Commit returned
}

// client is one closed-loop terminal. Everything in it belongs to its
// goroutine: the load generator is exactly cfg.clients goroutines, so
// the multiprogramming level is the workload's and nothing else
// competes with the store for the two threads.
type client struct {
	cfg    *loadConfig
	store  core.Store
	rng    *rand.Rand
	rec    *recorder
	t0     time.Time
	end    time.Time
	pushes []int64 // committed push steps per object

	held []promise

	attempted, committed, failed, pseudo, restarts, revoked uint64
	totalBegun, totalCommit                                 uint64
	lastReal                                                time.Time // latest in-window real commit
	txnLat, realLat                                         [numSlices][]int64
	firstErr                                                error
}

// runLoad drives store with cfg.clients closed-loop clients: each
// draws a logical transaction, runs it to a commit through
// core.Store/core.Txn only, restarting retryable aborts with the
// core.Run* backoff constants and a fresh Begin per attempt (as
// workload.RunLoad does), keeps the handle of every promise until
// Done closes — looking at its promises after each transaction — and
// re-runs a revoked promise with its clock still running. Windows are
// wall-clock. The returned elapsed time runs from the end of the
// warm-up to the later of the window's end and the last real commit of
// a transaction begun inside it.
func runLoad(store core.Store, cfg loadConfig) *loadResult {
	src := workload.Source{Gen: cfg.gen, MinLen: 4, MaxLen: 12}
	began := time.Now()
	t0 := began.Add(cfg.warmup)
	end := t0.Add(cfg.window)
	clients := make([]*client, cfg.clients)
	var wg sync.WaitGroup
	for i := range clients {
		c := &client{
			cfg: &cfg, store: store, t0: t0, end: end,
			// Distinct streams per client, as workload.RunLoad seeds them.
			rng: rand.New(rand.NewSource(cfg.seed + int64(i)*7919)),
		}
		if cfg.countPushes {
			c.pushes = make([]int64, cfg.gen.Size()+1)
		}
		if cfg.trace {
			c.rec = newRecorder(began, i)
			c.store = spanStore{Store: store, rec: c.rec}
		}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(src)
		}()
	}
	if cfg.atWindowStart != nil {
		time.Sleep(time.Until(t0))
		cfg.atWindowStart()
	}
	wg.Wait()

	res := &loadResult{}
	if cfg.countPushes {
		res.pushes = make([]int64, cfg.gen.Size()+1)
	}
	last := end
	var recs []*recorder
	for _, c := range clients {
		res.attempted += c.attempted
		res.committed += c.committed
		res.failed += c.failed
		res.unhonoured += uint64(len(c.held))
		res.pseudo += c.pseudo
		res.restarts += c.restarts
		res.revoked += c.revoked
		res.totalBegun += c.totalBegun
		res.totalCommit += c.totalCommit
		for k := 0; k < numSlices; k++ {
			res.txnLat[k] = append(res.txnLat[k], c.txnLat[k]...)
			res.realLat[k] = append(res.realLat[k], c.realLat[k]...)
		}
		for obj, n := range c.pushes {
			res.pushes[obj] += n
		}
		if c.lastReal.After(last) {
			last = c.lastReal
		}
		if res.firstErr == nil {
			res.firstErr = c.firstErr
		}
		if c.rec != nil {
			recs = append(recs, c.rec)
		}
	}
	res.elapsed = last.Sub(t0)
	for k := 0; k < numSlices; k++ {
		slices.Sort(res.txnLat[k])
		slices.Sort(res.realLat[k])
	}
	if cfg.trace {
		res.budget = mergeRecorders(recs)
	}
	return res
}

// run is one client's loop: look at the promises held, draw and run a
// fresh transaction, until the window closes; then the drain.
func (c *client) run(src workload.Source) {
	sampler := rand.New(rand.NewSource(c.rng.Int63()))
	for {
		c.poll()
		now := time.Now()
		if !now.Before(c.end) || (c.cfg.maxTxns > 0 && c.totalBegun >= c.cfg.maxTxns) {
			break
		}
		l := &logical{steps: src.Draw(c.rng), start: now, inWindow: !now.Before(c.t0)}
		l.keep = sampler.Intn(sampleOneIn) == 0
		c.totalBegun++
		if l.inWindow {
			c.attempted++
			l.slice = int(now.Sub(c.t0) * numSlices / c.cfg.window)
		}
		c.runLogical(l)
	}
	c.drain()
}

// poll settles every held promise whose Done has closed, without
// blocking: landed ones are booked at the time of this look, revoked
// ones are re-run on the spot.
func (c *client) poll() {
	if len(c.held) == 0 {
		return
	}
	var now time.Time
	var redo []*logical
	kept := c.held[:0]
	for _, p := range c.held {
		select {
		case <-p.done:
			if now.IsZero() {
				now = time.Now()
			}
			if l := c.settle(p, now); l != nil {
				redo = append(redo, l)
			}
		default:
			kept = append(kept, p)
		}
	}
	clear(c.held[len(kept):])
	c.held = kept
	for _, l := range redo {
		c.runLogical(l)
	}
}

// drain waits until every promise this client still holds has landed
// (re-running revoked ones), so the window's clock can stop, or until
// the drain deadline. It waits on all of them at once, so each is
// booked when it lands, not when an earlier one does.
func (c *client) drain() {
	deadline := time.NewTimer(c.cfg.drain)
	defer deadline.Stop()
	for len(c.held) > 0 {
		cases := make([]reflect.SelectCase, 0, len(c.held)+1)
		cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(deadline.C)})
		for _, p := range c.held {
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(p.done)})
		}
		if i, _, _ := reflect.Select(cases); i == 0 {
			return // the promises left in c.held are reported unhonoured
		}
		c.poll()
	}
}

// settle books a promise whose Done has closed. It returns the logical
// transaction when the promise was revoked and has to run again.
func (c *client) settle(p promise, now time.Time) *logical {
	l := p.l
	err := p.t.Err()
	switch {
	case err == nil:
		c.landed(l, now)
		if c.rec != nil && l.inWindow {
			c.rec.holdWait(l.txnSpan, l.keep, p.at, now)
		}
	case retryable(err):
		c.revoked++
		return l
	default:
		c.fail(l, err)
	}
	return nil
}

// landed books a real commit observed at the given time.
func (c *client) landed(l *logical, at time.Time) {
	c.totalCommit++
	for _, s := range l.steps {
		if c.pushes != nil && s.Op.Name == adt.StackPush {
			c.pushes[s.Object]++
		}
	}
	if l.inWindow {
		c.committed++
		c.lastReal = at
		c.realLat[l.slice] = append(c.realLat[l.slice], int64(at.Sub(l.start)))
	}
}

func (c *client) fail(l *logical, err error) {
	if l.inWindow {
		c.failed++
	}
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// retryable reports whether err is an abort a restart can cure.
func retryable(err error) bool {
	var ab *core.ErrAborted
	return errors.As(err, &ab) && ab.Retryable()
}

// runLogical drives l until Commit returns — for real, or as a promise
// the client then holds — or it fails for good.
func (c *client) runLogical(l *logical) {
	rec := c.rec
	if rec != nil {
		rec.startTxn(l.inWindow, l.keep)
		l.txnSpan = rec.txn
		defer rec.close()
	}
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			l.restarts++
			c.restarts++
			if l.restarts >= core.RunMaxAttempts {
				c.fail(l, fmt.Errorf("bench: transaction exceeded %d restarts", core.RunMaxAttempts))
				return
			}
			shift := attempt
			if shift > core.RunBackoffShift {
				shift = core.RunBackoffShift
			}
			// Full jitter, the policy core.RunStore and workload.RunLoad use.
			delay := time.Duration(1+c.rng.Intn(1<<shift)) * core.RunBackoffBase
			if rec != nil {
				rec.open(spBackoff)
			}
			time.Sleep(delay)
			if rec != nil {
				rec.close()
			}
		}
		if rec != nil {
			rec.open(spAttempt)
		}
		t, status, err := c.attempt(l.steps)
		if rec != nil {
			rec.close()
		}
		if err != nil {
			if retryable(err) {
				continue
			}
			c.fail(l, err)
			return
		}
		now := time.Now()
		if l.inWindow && !l.promised {
			c.txnLat[l.slice] = append(c.txnLat[l.slice], int64(now.Sub(l.start)))
		}
		l.promised = true
		if status == core.PseudoCommitted {
			c.pseudo++
			c.held = append(c.held, promise{t: t, done: t.Done(), l: l, at: now})
			return
		}
		c.landed(l, now)
		return
	}
}

// attempt is one try: a fresh Begin, every step, Commit. On any error
// the transaction is aborted so its operations stop blocking others
// (a no-op when the scheduler already finalised it).
func (c *client) attempt(steps []workload.Step) (core.Txn, core.CommitStatus, error) {
	t := c.store.Begin()
	for _, s := range steps {
		if _, err := t.Do(s.Object, s.Op); err != nil {
			t.Abort()
			return nil, 0, err
		}
		// A terminal gives up the processor after every operation, so
		// the clients' transactions interleave at operation granularity —
		// the paper's multiprogramming level — and not at the Go
		// scheduler's 10 ms preemption quantum. Without the yield a client
		// runs hundreds of transactions alone, then is parked mid-
		// transaction while the others pile dependencies on it: overlap,
		// and with it every contended number, becomes an accident of
		// preemption timing (bistable on cluster-convoy, run to run).
		if c.rec != nil {
			c.rec.open(spYield)
		}
		runtime.Gosched()
		if c.rec != nil {
			c.rec.close()
		}
	}
	status, err := t.Commit()
	if err != nil {
		t.Abort()
		return nil, 0, err
	}
	return t, status, nil
}

// slicePercentile is the median, over the window's time slices, of
// each slice's p-th percentile in nanoseconds. Slices with no sample
// (a store that stalled for a whole slice) are left out.
func slicePercentile(slices *[numSlices][]int64, p float64) float64 {
	var per []float64
	for _, s := range slices {
		if len(s) > 0 {
			per = append(per, float64(percentile(s, p)))
		}
	}
	return median(per)
}

// smallestSlice is the sample count of the emptiest slice: what the
// reported tail percentile has to be supported by.
func smallestSlice(slices *[numSlices][]int64) int {
	n := len(slices[0])
	for _, s := range slices {
		n = min(n, len(s))
	}
	return n
}
