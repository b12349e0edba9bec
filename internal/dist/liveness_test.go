package dist

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/workload"
)

// TestClusterHighContentionLiveness runs a hot cross-site read/write
// load (few objects per site, 60% cross-site steps, forced goroutine
// preemption) and fails with a full coordinator dump if progress
// stalls. This is the liveness net that caught both the stale-mirror
// lost update and the core scheduler's lost fairness wakeup.
func TestClusterHighContentionLiveness(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const sites = 8
	c, err := New(sites, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	go func() {
		defer done.Store(true)
		_, err := workload.RunLoad(c, workload.LoadConfig{
			Workload: workload.Sharded{
				Inner: workload.ReadWrite{DBSize: 32, WriteProb: 0.3},
				Sites: sites, CrossProb: 0.6,
			},
			Workers:       16,
			TxnsPerWorker: 150,
			Seed:          time.Now().UnixNano() % 1000,
		})
		if err != nil {
			t.Error(err)
		}
	}()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if done.Load() {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Stalled: dump the coordinator and per-site view of every live
	// transaction before failing, so the deadlock shape is visible.
	var live []*Conv
	c.reg.forEach(func(cv *Conv) { live = append(live, cv) })
	fmt.Printf("=== stalled: %d live txns ===\n", len(live))
	for _, tx := range live {
		id := tx.id
		var local string
		for si := 0; si < sites; si++ {
			st := c.sites[si].p.TxnState(id)
			if st == "unknown" {
				continue
			}
			edges := c.sites[si].p.OutEdgesAppend(id, nil)
			local += fmt.Sprintf(" s%d:%s:edges%v", si, st, edges)
		}
		c.mu.Lock()
		var medges []depgraph.Edge
		for _, e := range c.mirror.Edges() {
			if e.From == id {
				medges = append(medges, e)
			}
		}
		deg := c.mirror.OutDegree(id)
		c.mu.Unlock()
		fmt.Printf("T%d coordState=%d mirrorOutDeg=%d mirrorEdges=%v local:%s\n",
			id, tx.state.Load(), deg, medges, local)
	}
	for si := 0; si < sites; si++ {
		c.sites[si].mu.Lock()
		if c.sites[si].hub.Len() > 0 {
			fmt.Printf("site %d waiters: %v\n", si, c.sites[si].hub.AppendIDs(nil))
		}
		c.sites[si].mu.Unlock()
	}
	t.Fatal("cluster stalled under high contention")
}
