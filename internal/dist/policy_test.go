package dist

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/workload"
)

func TestParsePolicy(t *testing.T) {
	valid := []struct {
		in   string
		want string // Name() of the parsed policy; "" for nil
	}{
		{"", ""},
		{"off", "off"},
		{"depth=2", "depth=2"},
		{"depth=16", "depth=16"},
	}
	for _, tc := range valid {
		p, err := ParsePolicy(tc.in)
		if err != nil {
			t.Errorf("ParsePolicy(%q) = %v", tc.in, err)
			continue
		}
		got := ""
		if p != nil {
			got = p.Name()
		}
		if got != tc.want {
			t.Errorf("ParsePolicy(%q).Name() = %q, want %q", tc.in, got, tc.want)
		}
		// Names round-trip.
		if p != nil {
			rt, err := ParsePolicy(p.Name())
			if err != nil || rt.Name() != p.Name() {
				t.Errorf("ParsePolicy(%q) does not round-trip: %v, %v", p.Name(), rt, err)
			}
		}
	}
	// "off" must be the Unbounded value itself (the coordinator matches
	// on the type, not the name), and the default's own name parses
	// back to the default.
	if p, _ := ParsePolicy("off"); p != (Unbounded{}) {
		t.Errorf(`ParsePolicy("off") = %#v, want Unbounded{}`, p)
	}
	if p, err := ParsePolicy(DefaultPolicy().Name()); err != nil || p != DefaultPolicy() {
		t.Errorf("ParsePolicy(%q) = %v, %v; want DefaultPolicy()", DefaultPolicy().Name(), p, err)
	}
	invalid := []string{
		"depth=", "depth=x", "depth=1", "depth=-4",
		"bogus", "eager=2",
		// Retired policies: a stale config must fail, not run the default.
		"eager", "admit=32/16", "admit=8",
	}
	for _, in := range invalid {
		p, err := ParsePolicy(in)
		if err == nil {
			t.Errorf("ParsePolicy(%q) accepted: %v", in, p)
			continue
		}
		if msg := err.Error(); !strings.HasPrefix(in, "depth=") && !strings.Contains(msg, "off or depth=N") {
			t.Errorf("ParsePolicy(%q) error %q does not list the accepted forms", in, msg)
		}
	}
}

func TestDepthBoundVerdict(t *testing.T) {
	p := DepthBound{Max: 4}
	if !p.AdmitHold(2) {
		t.Error("depth 2 under bound 4 shed")
	}
	if !p.AdmitHold(4) {
		t.Error("depth 4 at bound 4 shed")
	}
	if p.AdmitHold(5) {
		t.Error("depth 5 over bound 4 held")
	}
	if !(Unbounded{}).AdmitHold(1 << 20) {
		t.Error("Unbounded shed a hold")
	}
}

// newPolicyPageCluster builds an n-site page cluster with the policy
// installed.
func newPolicyPageCluster(t *testing.T, n, objects int, p HoldPolicy) *Cluster {
	t.Helper()
	c, err := NewWithConfig(Config{Sites: n, Policy: p})
	if err != nil {
		t.Fatal(err)
	}
	for id := core.ObjectID(1); id <= core.ObjectID(objects); id++ {
		if err := c.Register(id, adt.Page{}, compat.PageTable()); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestDepthBoundShedsTail builds the convoy tail by hand: with
// Max=2, the transaction that would sit at chain depth 3 is shed at
// commit with a retryable ReasonShed abort, while the depth-2 hold
// under it survives and releases normally.
func TestDepthBoundShedsTail(t *testing.T) {
	c := newPolicyPageCluster(t, 3, 6, DepthBound{Max: 2})
	t1, t2, t3 := c.Begin(), c.Begin(), c.Begin()
	if _, err := t1.Do(1, write(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Do(1, write(20)); err != nil { // dep T2->T1
		t.Fatal(err)
	}
	if _, err := t2.Do(2, write(22)); err != nil {
		t.Fatal(err)
	}
	if st, err := t2.Commit(); err != nil || st != core.PseudoCommitted {
		t.Fatalf("T2 commit = %v, %v; want pseudo-committed (depth 2 admissible)", st, err)
	}
	if _, err := t3.Do(2, write(30)); err != nil { // dep T3->T2: depth 3
		t.Fatal(err)
	}
	if _, err := t3.Do(3, write(33)); err != nil {
		t.Fatal(err)
	}
	_, err := t3.Commit()
	if !errors.Is(err, core.ErrHoldShed) {
		t.Fatalf("T3 commit = %v, want ErrHoldShed (depth 3 over bound 2)", err)
	}
	var ab *core.ErrAborted
	if !errors.As(err, &ab) || !ab.Retryable() {
		t.Fatalf("shed abort not retryable: %v", err)
	}
	if st, err := t1.Commit(); err != nil || st != core.Committed {
		t.Fatalf("T1 commit = %v, %v", st, err)
	}
	<-t2.Done()
	if err := t2.Err(); err != nil {
		t.Fatal(err)
	}
	// The shed left no trace in committed state: obj 2 holds T2's
	// write, not T3's.
	for id, want := range map[core.ObjectID]string{1: "page{20}", 2: "page{22}"} {
		s, err := c.Site(c.SiteOf(id)).CommittedState(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(s); got != want {
			t.Fatalf("object %d committed state = %s, want %s", id, got, want)
		}
	}
	ps := c.PolicyStats()
	if ps.TailAborts != 1 {
		t.Fatalf("stats = %+v, want exactly 1 tail abort", ps)
	}
	if ps.HeldPeak != 1 {
		t.Fatalf("held peak = %d, want 1 (only T2 was ever held)", ps.HeldPeak)
	}
}

// TestPolicyClusterConservation hammers a policy-bearing cluster with
// concurrent stack pushers that retry shed aborts, then checks global
// conservation: every push promised by a successful commit is in a
// committed stack, every shed one is not, and no transaction whose
// commit succeeded ends aborted. Run under -race this is also the
// policy paths' data-race test.
func TestPolicyClusterConservation(t *testing.T) {
	policies := []HoldPolicy{
		DepthBound{Max: 3},
	}
	for _, p := range policies {
		t.Run(p.Name(), func(t *testing.T) {
			const (
				sites   = 3
				objects = 12
				workers = 6
				txns    = 30
			)
			c, err := NewWithConfig(Config{Sites: sites, Policy: p})
			if err != nil {
				t.Fatal(err)
			}
			for id := core.ObjectID(1); id <= objects; id++ {
				if err := c.Register(id, adt.Stack{}, compat.StackTable()); err != nil {
					t.Fatal(err)
				}
			}
			var pushed [objects + 1]atomic.Int64
			var sheds, aborts atomic.Int64
			var wg sync.WaitGroup
			var handles sync.Map // core.Txn -> its core.CommitStatus
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < txns; i++ {
						// Retry the logical transaction until its commit
						// promise lands: sheds are retryable by design.
						for attempt := 0; ; attempt++ {
							if attempt > 1000 {
								t.Error("logical transaction starved after 1000 attempts")
								return
							}
							tx := c.Begin()
							n := 1 + (w+i)%3
							var objs []core.ObjectID
							ok := true
							for k := 0; k < n; k++ {
								obj := core.ObjectID(1 + (w*31+i*17+k*7)%objects)
								if _, err := tx.Do(obj, push(w*1000+i)); err != nil {
									if !errors.Is(err, core.ErrTxnAborted) {
										t.Error(err)
									}
									aborts.Add(1)
									ok = false
									break
								}
								objs = append(objs, obj)
							}
							if !ok {
								continue
							}
							// Keep the transaction open briefly so workers
							// overlap: that is what forms the commit
							// dependencies (and therefore holds) the policy
							// exists to manage.
							time.Sleep(time.Millisecond)
							st, err := tx.Commit()
							if err != nil {
								if errors.Is(err, core.ErrHoldShed) {
									sheds.Add(1)
									continue
								}
								var ab *core.ErrAborted
								if errors.As(err, &ab) && ab.Retryable() {
									aborts.Add(1)
									continue
								}
								t.Error(err)
								return
							}
							for _, obj := range objs {
								pushed[obj].Add(1)
							}
							handles.Store(tx, st)
							break
						}
					}
				}(w)
			}
			wg.Wait()
			// Never abort a committed transaction: a commit that returned
			// Committed, or PseudoCommitted and so promised, ends without
			// an error.
			handles.Range(func(k, v any) bool {
				h := k.(core.Txn)
				<-h.Done()
				if err := h.Err(); err != nil {
					t.Errorf("T%d: commit returned %v, then aborted: %v", h.ID(), v, err)
				}
				return true
			})
			total := int64(0)
			for id := core.ObjectID(1); id <= objects; id++ {
				s, err := c.Site(c.SiteOf(id)).CommittedState(id)
				if err != nil {
					t.Fatal(err)
				}
				depth := int64(s.(*adt.StackState).Len())
				if got := pushed[id].Load(); got != depth {
					t.Errorf("object %d: committed depth %d, promised pushes %d", id, depth, got)
				}
				total += depth
			}
			if total != workers*txns*2 { // mean 2 pushes per logical txn
				t.Errorf("total committed pushes = %d, want %d", total, workers*txns*2)
			}
			ps := c.PolicyStats()
			if ps.HeldPeak == 0 {
				t.Error("no hold was ever admitted — the stress never reached the policy")
			}
			t.Logf("%s: stats=%+v sheds=%d aborts=%d", p.Name(), ps, sheds.Load(), aborts.Load())
		})
	}
}

// runPushConvoy drives the fixed-work convoy that exposed the default
// configuration's collapse: unyielding workers, every operation a
// recoverable push on a small set of stacks, run to completion. It
// checks the commit count and push conservation and returns the
// cluster for its counters with the load's result.
func runPushConvoy(tb testing.TB, p HoldPolicy, workers, txns int) (*Cluster, workload.LoadResult) {
	tb.Helper()
	const sites, db = 2, 256
	c, err := NewWithConfig(Config{Sites: sites, Policy: p})
	if err != nil {
		tb.Fatal(err)
	}
	var pushed [db + 1]atomic.Int64
	res, err := workload.RunLoad(c, workload.LoadConfig{
		Workload:        workload.Sharded{Inner: workload.Pushes{DBSize: db}, Sites: sites, CrossProb: 0.1},
		Workers:         workers,
		TxnsPerWorker:   txns,
		Seed:            1,
		MaxRestarts:     100000,
		RetryHeldAborts: true,
		OnCommitted: func(steps []workload.Step) {
			for _, s := range steps {
				pushed[s.Object].Add(1)
			}
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if res.Commits != uint64(workers*txns) {
		tb.Fatalf("%d commits, want %d", res.Commits, workers*txns)
	}
	for id := core.ObjectID(1); id <= db; id++ {
		want := pushed[id].Load()
		s, err := c.Site(c.SiteOf(id)).CommittedState(id)
		if err != nil {
			if want != 0 {
				tb.Fatalf("object %d: %d committed pushes but no committed state (%v)", id, want, err)
			}
			continue // never touched, never materialised
		}
		if got := int64(s.(*adt.StackState).Len()); got != want {
			tb.Fatalf("object %d: committed depth %d, committed pushes %d", id, got, want)
		}
	}
	return c, res
}

// TestDefaultPolicyBoundsConvoy pins what a cluster does when no policy
// is named: the convoy is bounded, so the fixed-work run that took the
// unbounded default ≈45 s (throughput falling with run length, i.e.
// with the held set) completes in well under a second with a held set
// that stays small. The same load under the explicit Unbounded{} shows
// the growth the default removes — which is what keeps the bound honest:
// if this workload stopped convoying, the first half would pass
// vacuously.
func TestDefaultPolicyBoundsConvoy(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const workers, heldBound = 8, 64

	start := time.Now()
	c, _ := runPushConvoy(t, nil, workers, 800)
	elapsed := time.Since(start)
	if got := c.PolicyName(); got != DefaultPolicy().Name() || got != "depth=4" {
		t.Fatalf("nil Config.Policy installed %q, want %q", got, "depth=4")
	}
	ps := c.PolicyStats()
	t.Logf("default: %v, stats %+v", elapsed.Round(time.Millisecond), ps)
	if ps.HeldPeak > heldBound {
		t.Errorf("default policy let the held set reach %d, want <= %d", ps.HeldPeak, heldBound)
	}
	if elapsed > 10*time.Second {
		t.Errorf("default policy took %v on the fixed-work convoy, want < 10s", elapsed)
	}

	u, _ := runPushConvoy(t, Unbounded{}, workers, 250)
	if got := u.PolicyName(); got != "off" {
		t.Fatalf("Unbounded{} installed %q, want %q", got, "off")
	}
	ups := u.PolicyStats()
	t.Logf("unbounded: stats %+v", ups)
	if ups.TailAborts != 0 {
		t.Errorf("Unbounded{} shed: %+v", ups)
	}
	if ups.HeldPeak <= heldBound {
		t.Errorf("Unbounded{} held peak %d: the workload no longer convoys, so the bound above proves nothing", ups.HeldPeak)
	}
}

// BenchmarkPushConvoy measures the fixed-work convoy under the wall
// clock: the paper's unbounded hold (off), the shipped default
// (depth=4, what a nil policy installs) and a looser bound. Each
// iteration runs the whole load to completion, every promise drained,
// and keeps runPushConvoy's commit-count and conservation checks. It
// reports real-commit throughput, the largest held set any iteration
// reached and the holds shed per iteration. Vary GOMAXPROCS with -cpu;
// the unbounded convoy forms even at -cpu 1.
//
//	go test -run xxx -bench PushConvoy -benchtime=1x -cpu 2,4 ./internal/dist/
func BenchmarkPushConvoy(b *testing.B) {
	const workers, txns = 8, 250
	for _, bc := range []struct {
		name string
		p    HoldPolicy
	}{
		{"off", Unbounded{}},
		{"depth=4", nil},
		{"depth=16", DepthBound{Max: 16}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var commits uint64
			var elapsed time.Duration
			var peak, sheds int
			for i := 0; i < b.N; i++ {
				c, res := runPushConvoy(b, bc.p, workers, txns)
				if got := c.PolicyName(); got != bc.name {
					b.Fatalf("installed policy %q, want %q", got, bc.name)
				}
				ps := c.PolicyStats()
				commits += res.Commits
				elapsed += res.Elapsed
				peak = max(peak, ps.HeldPeak)
				sheds += ps.TailAborts
			}
			b.ReportMetric(float64(commits)/elapsed.Seconds(), "txn/s")
			b.ReportMetric(float64(peak), "held_peak")
			b.ReportMetric(float64(sheds)/float64(b.N), "sheds")
		})
	}
}
