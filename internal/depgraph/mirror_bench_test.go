package depgraph

import (
	"fmt"
	"testing"
)

// BenchmarkMirrorDropSite pins DropSite's complexity: the per-site
// reverse index makes dropping a site O(that site's edges), so the
// cost of purging a small site must stay flat while the rest of the
// mirror grows 100x. (The map-of-maps mirror scanned every edge of
// every transaction here — a convoy-depth crash purge was O(mirror).)
func BenchmarkMirrorDropSite(b *testing.B) {
	const victimTxns = 8
	for _, background := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("mirror=%d", background), func(b *testing.B) {
			m := New()
			// Site 0 carries the background load: a long chain of
			// held transactions, untouched by the drops below.
			for i := 0; i < background; i++ {
				from := TxnID(1000 + 2*i)
				m.Observe(0, from, []Edge{{From: from, To: from + 1, Kind: CommitDep}})
			}
			edge := make([]Edge, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Site 1 contributes a constant handful of edges, then
				// crashes: the purge must not scan site 0's edges.
				for v := TxnID(1); v <= victimTxns; v++ {
					edge[0] = Edge{From: v, To: v + 100, Kind: WaitFor}
					m.Observe(1, v, edge)
				}
				m.DropSite(1)
			}
		})
	}
}

// BenchmarkMirrorObserveChurn measures the steady-state cost of the
// coordinator's hottest mirror write: re-observing a transaction's
// edge set as the conversation progresses, over pooled nodes.
func BenchmarkMirrorObserveChurn(b *testing.B) {
	m := New()
	edges := []Edge{
		{From: 1, To: 2, Kind: WaitFor},
		{From: 1, To: 3, Kind: CommitDep},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(0, 1, edges)
		if m.HasCycleFrom(1) {
			b.Fatal("phantom cycle")
		}
		m.Observe(0, 1, nil)
	}
}
