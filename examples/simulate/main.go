// Simulate: a miniature of the paper's Figure 4 — throughput of the
// read/write model under commutativity vs recoverability across
// multiprogramming levels — small enough to finish in seconds. The full
// reproduction of every figure is `go run ./cmd/sccsim -experiment fig4`
// (and fig5 … fig18, or all).
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	fmt.Println("mini Figure 4: read/write model, infinite resources")
	fmt.Println("mpl   commutativity tx/s   recoverability tx/s   improvement")

	for _, mpl := range []int{10, 25, 50, 100} {
		var tps [2]repro.Sample
		for i, pred := range []repro.Predicate{repro.PredCommutativity, repro.PredRecoverability} {
			cfg := repro.DefaultSimConfig(
				repro.ReadWriteWorkload{DBSize: 600, WriteProb: 0.3}, mpl, 42)
			cfg.Predicate = pred
			cfg.Terminals = 100
			cfg.Completions = 2000
			cfg.Warmup = 200
			runs, err := repro.SimulateRuns(cfg, 2)
			if err != nil {
				log.Fatal(err)
			}
			tp, err := repro.AggregateRuns(runs, "throughput")
			if err != nil {
				log.Fatal(err)
			}
			tps[i] = tp
		}
		impr := 0.0
		if tps[0].Mean > 0 {
			impr = 100 * (tps[1].Mean - tps[0].Mean) / tps[0].Mean
		}
		fmt.Printf("%-5d %-21s %-21s %+.1f%%\n", mpl, tps[0], tps[1], impr)
	}
	fmt.Println("\n(expected shape: recoverability at or above commutativity, gap widening with contention)")
}
