package depgraph

import (
	"maps"
	"slices"
	"testing"
)

// model is the brute-force reference for FuzzGraph: the set of
// per-site contributions, queried by plain DFS.
type model map[[3]int]EdgeKind // (from, to, site) -> kind

func (m model) add(from, to TxnID, site int, kind EdgeKind) {
	if from != to {
		k := [3]int{int(from), int(to), site}
		m[k] = max(m[k], kind)
	}
}

// out returns t's edges one per target, CommitDep dominating, sorted.
func (m model) out(t TxnID) []Edge {
	var out []Edge
	for to := TxnID(0); to < fuzzTxns; to++ {
		kind, ok := WaitFor, false
		for k, kd := range m {
			if k[0] == int(t) && k[1] == int(to) {
				kind, ok = max(kind, kd), true
			}
		}
		if ok {
			out = append(out, Edge{From: t, To: to, Kind: kind})
		}
	}
	return out
}

func (m model) dependants(t TxnID) []TxnID {
	var deps []TxnID
	for from := TxnID(0); from < fuzzTxns; from++ {
		if slices.ContainsFunc(m.out(from), func(e Edge) bool { return e.To == t }) {
			deps = append(deps, from)
		}
	}
	return deps
}

// reaches reports a path of at least one edge from -> to.
func (m model) reaches(from, to TxnID, seen map[TxnID]bool) bool {
	for _, e := range m.out(from) {
		if e.To == to {
			return true
		}
		if !seen[e.To] {
			seen[e.To] = true
			if m.reaches(e.To, to, seen) {
				return true
			}
		}
	}
	return false
}

// chain is the longest path from t counted in transactions (acyclic
// models only); 0 for a transaction no edge touches.
func (m model) chain(t TxnID) int {
	if len(m.out(t)) == 0 && len(m.dependants(t)) == 0 {
		return 0
	}
	best := 0
	for _, e := range m.out(t) {
		best = max(best, m.chain(e.To))
	}
	return best + 1
}

const fuzzTxns = 8

func (m model) acyclic() bool {
	for t := TxnID(0); t < fuzzTxns; t++ {
		if m.reaches(t, t, map[TxnID]bool{}) {
			return false
		}
	}
	return true
}

// FuzzGraph decodes bytes into a script of graph operations, four
// bytes a step, and checks the graph against the model after every
// step:
//
//	b0 % 7: 0 AddEdge, 1 RemoveWaitEdges, 2 Observe, 3 DropSite,
//	        4 RemoveTxn, 5 HasCycleFrom, 6 LongestChainFrom
//	        (b0 >= 0x80 adds a foreign edge to an Observe report)
//	b1:     transaction b1 % 8, site b1/8 % 3
//	b2:     AddEdge target b2 % 8; Observe's target bitmask
//	b3:     edge kinds, bit j for the j-th target (bit 0 for AddEdge)
func FuzzGraph(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		g, m := New(), model{}
		script = script[:min(len(script), 4*64)] // the model is slow; 64 steps suffice
		for ; len(script) >= 4; script = script[4:] {
			op, a, site := script[0], TxnID(script[1]%fuzzTxns), int(script[1]/fuzzTxns%3)
			mask, kinds := script[2], script[3]
			switch op % 7 {
			case 0:
				b, kind := TxnID(mask%fuzzTxns), EdgeKind(kinds&1)
				g.AddEdge(a, b, kind)
				m.add(a, b, 0, kind)
			case 1:
				g.RemoveWaitEdges(a)
				maps.DeleteFunc(m, func(k [3]int, kind EdgeKind) bool { return k[0] == int(a) && kind == WaitFor })
			case 2:
				var report []Edge
				for j := TxnID(0); j < fuzzTxns; j++ {
					if mask&(1<<j) != 0 {
						report = append(report, Edge{From: a, To: j, Kind: EdgeKind(kinds >> j & 1)})
					}
				}
				if op >= 0x80 {
					report = append(report, Edge{From: (a + 1) % fuzzTxns, To: a, Kind: CommitDep})
				}
				g.Observe(site, a, report)
				maps.DeleteFunc(m, func(k [3]int, _ EdgeKind) bool { return k[0] == int(a) && k[2] == site })
				for _, e := range report {
					if e.From == a {
						m.add(a, e.To, site, e.Kind)
					}
				}
			case 3:
				g.DropSite(site)
				maps.DeleteFunc(m, func(k [3]int, _ EdgeKind) bool { return k[2] == site })
			case 4:
				want := m.dependants(a)
				maps.DeleteFunc(m, func(k [3]int, _ EdgeKind) bool { return k[0] == int(a) || k[1] == int(a) })
				if got := g.RemoveTxn(a); !slices.Equal(got, want) {
					t.Fatalf("RemoveTxn(%d) = %v, want %v", a, got, want)
				}
			case 5:
				if got, want := g.HasCycleFrom(a), m.reaches(a, a, map[TxnID]bool{}); got != want {
					t.Fatalf("HasCycleFrom(%d) = %v, want %v", a, got, want)
				}
			case 6:
				if got := g.LongestChainFrom(a); m.acyclic() && got != m.chain(a) {
					t.Fatalf("LongestChainFrom(%d) = %d, want %d", a, got, m.chain(a))
				}
			}
			for x := TxnID(0); x < fuzzTxns; x++ {
				if got, want := g.OutEdgesAppend(x, nil), m.out(x); !slices.Equal(got, want) || g.OutDegree(x) != len(want) {
					t.Fatalf("T%d: edges %v (degree %d), want %v", x, got, g.OutDegree(x), want)
				}
			}
			if g.EdgeCount() != len(m) || g.Acyclic() != m.acyclic() {
				t.Fatalf("EdgeCount %d, Acyclic %v; want %d, %v", g.EdgeCount(), g.Acyclic(), len(m), m.acyclic())
			}
		}
	})
}
