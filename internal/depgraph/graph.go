// Package depgraph implements the unified dependency graph of §4.2: a
// directed graph over active transactions whose edges are either
// wait-for edges (the requester waits for the holder of a conflicting
// operation) or commit-dependency edges (the requester executed an
// operation recoverable relative to the holder's and must therefore
// commit after it). Cycle detection over the union of both edge kinds
// simultaneously resolves deadlocks and serializability violations, the
// paper's key implementation trick ("the detection of commit dependency
// cycles is combined with the deadlock detection scheme").
//
// The same graph serves §6's coordinator: every edge carries the site
// that reported it, so the coordinator's union of per-participant
// graphs is this graph with one site per participant, and a scheduler's
// own graph is the special case of a single site.
package depgraph

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/telemetry"
)

// TxnID identifies a transaction node.
type TxnID uint64

// EdgeKind distinguishes the two edge varieties.
type EdgeKind uint8

// Edge kinds.
const (
	// WaitFor: the source transaction is blocked waiting for the
	// target to terminate.
	WaitFor EdgeKind = iota
	// CommitDep: the source transaction must commit after the target
	// terminates.
	CommitDep
)

// String implements fmt.Stringer.
func (k EdgeKind) String() string {
	if k == WaitFor {
		return "wait-for"
	}
	return "commit-dep"
}

// Edge is a materialised edge: the unit sites report and the graph
// exports.
type Edge struct {
	From, To TxnID
	Kind     EdgeKind
}

// String implements fmt.Stringer.
func (e Edge) String() string {
	return fmt.Sprintf("T%d -%s-> T%d", e.From, e.Kind, e.To)
}

// Graph is a dependency graph whose edges are site-scoped: each site
// contributes at most one edge per (from, to) pair, and the logical
// edge from -> to exists while any site contributes it (CommitDep
// dominating WaitFor when contributions disagree). A cross-site
// deadlock or commit-dependency cycle, invisible to any single site,
// closes in the union and is caught by the same cycle check.
//
// Transactions are interned into dense node ids. A node is created by
// its first edge and freed, for reuse, when its last edge in either
// direction goes, so the graph holds only transactions with live
// dependencies and steady-state churn allocates nothing.
//
// Graph is not safe for concurrent use; the scheduler and the
// coordinator each serialise access.
type Graph struct {
	idOf  map[TxnID]int32
	nodes []node
	free  []int32

	// bySite[s] lists the nodes site s currently contributes out-edges
	// for (each node's siteRef holds its position), so DropSite walks
	// only the transactions that site touched.
	bySite [][]int32

	// edges counts live per-site contributions; observes counts
	// Observe calls.
	edges    int
	observes uint64

	// met, when set, receives cycle-check cost and chain-depth
	// observations.
	met *telemetry.MirrorMetrics

	// epoch stamps visited nodes per traversal; stack is the reusable
	// DFS work list; deps backs RemoveTxn's result.
	epoch uint64
	stack []int32
	deps  []TxnID
}

// arc is one site's contribution of an edge to node to.
type arc struct {
	to   int32
	site int32
	kind EdgeKind
}

// siteRef records that a site contributes n of a node's arcs, and the
// node's position in that site's bySite list.
type siteRef struct {
	site, n, pos int32
}

// node is one interned transaction. A freed node keeps its (empty)
// slices' capacity for reuse.
type node struct {
	txn  TxnID
	live bool
	out  []arc
	// deg is the number of distinct targets in out; in lists the
	// distinct sources with an arc to this node.
	deg   int32
	in    []int32
	sites []siteRef
	// visited is the epoch stamp of the last traversal that reached
	// this node; depth memoises LongestChainFrom within one call (0
	// marks a node still on the DFS path).
	visited uint64
	depth   uint32
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{idOf: make(map[TxnID]int32)}
}

// NewMirror is New under the name the acceptance benchmark in bench/
// uses for the coordinator's union graph.
func NewMirror() *Graph { return New() }

// SetMetrics attaches a telemetry block: subsequent cycle checks and
// chain-depth queries record their cost into it. The graph's owner
// serialises access, so no synchronisation is added.
func (g *Graph) SetMetrics(met *telemetry.MirrorMetrics) { g.met = met }

// EdgeCount returns the number of live per-site edge contributions —
// the graph's size, as distinct from OutDegree's per-transaction
// distinct-target count.
func (g *Graph) EdgeCount() int { return g.edges }

// Observes returns the number of Observe calls so far — the mirror
// update count the batching tests pin.
func (g *Graph) Observes() uint64 { return g.observes }

// intern returns the node for t, taking a freed node or growing the
// table if t is new. It may move g.nodes, so callers take node
// pointers only after interning.
func (g *Graph) intern(t TxnID) int32 {
	if i, ok := g.idOf[t]; ok {
		return i
	}
	var i int32
	if n := len(g.free); n > 0 {
		i = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		g.nodes = append(g.nodes, node{})
		i = int32(len(g.nodes) - 1)
	}
	g.nodes[i].txn, g.nodes[i].live = t, true
	g.idOf[t] = i
	return i
}

// maybeFree releases node i once no edge touches it.
func (g *Graph) maybeFree(i int32) {
	n := &g.nodes[i]
	if !n.live || len(n.out) != 0 || len(n.in) != 0 {
		return
	}
	n.live = false
	delete(g.idOf, n.txn)
	g.free = append(g.free, i)
}

// link records site's from -> to contribution, upgrading the site's
// existing WaitFor contribution for the pair to CommitDep: a wait-for
// edge is transient (it disappears when the request is granted) while
// the commit dependency constrains commit order for the transactions'
// lifetimes.
func (g *Graph) link(fi, ti, site int32, kind EdgeKind) {
	n := &g.nodes[fi]
	paired := false
	for i := range n.out {
		if e := &n.out[i]; e.to == ti {
			if e.site == site {
				e.kind = max(e.kind, kind)
				return
			}
			paired = true
		}
	}
	n.out = append(n.out, arc{to: ti, site: site, kind: kind})
	g.edges++
	if !paired {
		n.deg++
		g.nodes[ti].in = append(g.nodes[ti].in, fi)
	}
	g.siteAdd(fi, site)
}

// cutIf removes every arc of node fi that drop selects. A target whose
// last arc from fi goes loses fi as an in-neighbour and is freed if
// that was its last edge; fi itself is left for the caller to free.
func (g *Graph) cutIf(fi int32, drop func(arc) bool) {
	for i := 0; i < len(g.nodes[fi].out); {
		n := &g.nodes[fi]
		e := n.out[i]
		if !drop(e) {
			i++
			continue
		}
		last := len(n.out) - 1
		n.out[i] = n.out[last]
		n.out = n.out[:last]
		g.edges--
		g.siteDrop(fi, e.site)
		if !slices.ContainsFunc(n.out, func(o arc) bool { return o.to == e.to }) {
			n.deg--
			// Search from the end: the newest in-neighbour is the
			// likeliest to go first.
			in := g.nodes[e.to].in
			j := len(in) - 1
			for in[j] != fi {
				j--
			}
			in[j] = in[len(in)-1]
			g.nodes[e.to].in = in[:len(in)-1]
			g.maybeFree(e.to)
		}
	}
}

// siteAdd counts one more arc of node fi contributed by site.
func (g *Graph) siteAdd(fi, site int32) {
	n := &g.nodes[fi]
	for i := range n.sites {
		if n.sites[i].site == site {
			n.sites[i].n++
			return
		}
	}
	for int(site) >= len(g.bySite) {
		g.bySite = append(g.bySite, nil)
	}
	n.sites = append(n.sites, siteRef{site: site, n: 1, pos: int32(len(g.bySite[site]))})
	g.bySite[site] = append(g.bySite[site], fi)
}

// siteDrop counts one arc of node fi fewer for site, taking the node
// off the site's list when its last one goes.
func (g *Graph) siteDrop(fi, site int32) {
	refs := g.nodes[fi].sites
	i := slices.IndexFunc(refs, func(r siteRef) bool { return r.site == site })
	if refs[i].n--; refs[i].n > 0 {
		return
	}
	list, pos := g.bySite[site], refs[i].pos
	moved := list[len(list)-1]
	list[pos] = moved
	g.bySite[site] = list[:len(list)-1]
	for j := range g.nodes[moved].sites {
		if r := &g.nodes[moved].sites[j]; r.site == site {
			r.pos = pos
		}
	}
	refs[i] = refs[len(refs)-1]
	g.nodes[fi].sites = refs[:len(refs)-1]
}

// AddEdge inserts a directed edge from -> to of the given kind as the
// graph's single site (site 0) — the scheduler's view of its own
// objects. Self-edges are ignored. If both kinds arise between the
// same pair, CommitDep wins.
func (g *Graph) AddEdge(from, to TxnID, kind EdgeKind) {
	if from == to {
		return
	}
	fi := g.intern(from)
	g.link(fi, g.intern(to), 0, kind)
}

// RemoveWaitEdges deletes every outgoing wait-for edge of t (called when
// a blocked request is granted or abandoned). Commit-dependency edges
// are retained.
func (g *Graph) RemoveWaitEdges(t TxnID) {
	if ti, ok := g.idOf[t]; ok {
		g.cutIf(ti, func(e arc) bool { return e.kind == WaitFor })
		g.maybeFree(ti)
	}
}

// Observe replaces site's out-edge set for transaction from with the
// given edges (each must have Edge.From == from; edges reported for
// other transactions, and self-edges, are ignored). Passing an empty
// or nil slice clears the site's contribution for the transaction;
// other sites' contributions are untouched. site must be non-negative.
func (g *Graph) Observe(site int, from TxnID, edges []Edge) {
	g.observes++
	s := int32(site)
	fi, ok := g.idOf[from]
	if ok {
		g.cutIf(fi, func(e arc) bool { return e.site == s })
	}
	for _, e := range edges {
		if e.From != from || e.To == from {
			continue
		}
		if !ok {
			fi, ok = g.intern(from), true
		}
		g.link(fi, g.intern(e.To), s, e.Kind)
	}
	if ok {
		g.maybeFree(fi)
	}
}

// DropSite deletes every edge the given site contributed, for every
// transaction — the crash-stop purge: a crashed site's volatile
// dependency state is gone, so its reports must leave the union graph.
// Pairs another site also reported survive. The per-site index makes
// this O(edges of the transactions the site touched), independent of
// the rest of the graph.
func (g *Graph) DropSite(site int) {
	s := int32(site)
	for site < len(g.bySite) && len(g.bySite[site]) > 0 {
		fi := g.bySite[site][len(g.bySite[site])-1]
		g.cutIf(fi, func(e arc) bool { return e.site == s })
		g.maybeFree(fi)
	}
}

// RemoveTxn deletes t and every edge touching it, from every site
// (called when a transaction terminates, §4.2: "the node that
// corresponds to the terminating transaction together with the edges
// associated with the node is removed"). It returns the former
// in-neighbours of t in ascending order — the transactions that were
// depending on or waiting for t — so the caller can re-examine them.
// The result is graph-owned scratch, valid until the next mutating
// call.
func (g *Graph) RemoveTxn(t TxnID) []TxnID {
	deps := g.deps[:0]
	if ti, ok := g.idOf[t]; ok {
		for in := g.nodes[ti].in; len(in) > 0; in = g.nodes[ti].in {
			src := in[len(in)-1]
			deps = append(deps, g.nodes[src].txn)
			g.cutIf(src, func(e arc) bool { return e.to == ti })
			g.maybeFree(src)
		}
		g.cutIf(ti, func(arc) bool { return true })
		g.maybeFree(ti)
		slices.Sort(deps)
	}
	g.deps = deps
	return deps
}

// OutDegree returns the number of distinct targets t has an edge to,
// across all sites: the size of the transaction's dependency set, zero
// meaning it may commit.
func (g *Graph) OutDegree(t TxnID) int {
	if ti, ok := g.idOf[t]; ok {
		return int(g.nodes[ti].deg)
	}
	return 0
}

// OutEdgesAppend appends t's outgoing edges, one per target sorted by
// target (CommitDep dominating WaitFor), to buf[:0] and returns the
// result. With a reused buffer the export is allocation-free; the
// distributed layer's per-site reports use this.
func (g *Graph) OutEdgesAppend(t TxnID, buf []Edge) []Edge {
	out := buf[:0]
	ti, ok := g.idOf[t]
	if !ok {
		return out
	}
	for _, e := range g.nodes[ti].out {
		out = append(out, Edge{From: t, To: g.nodes[e.to].txn, Kind: e.kind})
	}
	slices.SortFunc(out, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.To, b.To), cmp.Compare(b.Kind, a.Kind))
	})
	return slices.CompactFunc(out, func(a, b Edge) bool { return a.To == b.To })
}

// Edges returns every edge, one per (from, to) pair as OutEdgesAppend
// reports them, sorted by source then target — for tests and
// inspection tools.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for i := range g.nodes {
		if n := &g.nodes[i]; n.live {
			out = append(out, g.OutEdgesAppend(n.txn, nil)...)
		}
	}
	slices.SortFunc(out, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return out
}

// HasCycleFrom reports whether t can reach itself following outgoing
// edges of either kind, from any site. Because edges are only ever
// *added* from the transaction currently making a request (or whose
// report just arrived), any new cycle must pass through it, so this
// targeted search is equivalent to a full acyclicity check after each
// step. Epoch stamps and the graph-owned stack make steady-state checks
// allocation-free.
func (g *Graph) HasCycleFrom(t TxnID) bool {
	ti, ok := g.idOf[t]
	if !ok || len(g.nodes[ti].out) == 0 {
		return false
	}
	g.epoch++
	epoch := g.epoch
	g.nodes[ti].visited = epoch
	stack := g.stack[:0]
	for _, e := range g.nodes[ti].out {
		stack = append(stack, e.to)
	}
	found := false
	visitedCount := uint64(1)
	for len(stack) > 0 && !found {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cn := &g.nodes[cur]
		if cur == ti {
			found = true
		} else if cn.visited != epoch {
			cn.visited = epoch
			visitedCount++
			for _, e := range cn.out {
				if e.to == ti {
					found = true
					break
				}
				if g.nodes[e.to].visited != epoch {
					stack = append(stack, e.to)
				}
			}
		}
	}
	g.stack = stack[:0]
	if g.met != nil {
		g.met.CycleCost.Observe(visitedCount)
	}
	return found
}

// LongestChainFrom returns the length, in transactions, of the longest
// dependency chain starting at t: t itself plus the longest chain below
// any of its targets. A transaction with no out-edges chains at depth
// 1; one with no edges at all at 0. This is the commit-dependency
// chain a hold would join — the quantity a depth-bounded hold policy
// compares against its threshold — so it deliberately walks through
// every live target, held or still active: an active dependency will
// itself hold or terminate, and either way the chain below it gates
// this release.
func (g *Graph) LongestChainFrom(t TxnID) int {
	ti, ok := g.idOf[t]
	if !ok {
		return 0
	}
	g.epoch++
	d := g.chainDepth(ti, g.epoch)
	if g.met != nil {
		g.met.ChainDepth.Observe(uint64(d))
	}
	return int(d)
}

// chainDepth computes the memoised longest-path depth of one node. The
// graph is acyclic by protocol invariant (every edge insertion runs
// HasCycleFrom and aborts the closer), so the recursion terminates; a
// back edge that somehow slipped past is still safe — a node on the
// current DFS path carries the 0 sentinel and contributes no depth
// instead of recursing forever.
func (g *Graph) chainDepth(i int32, epoch uint64) uint32 {
	n := &g.nodes[i]
	if n.visited == epoch {
		return n.depth
	}
	n.visited = epoch
	n.depth = 0
	var best uint32
	for _, e := range n.out {
		best = max(best, g.chainDepth(e.to, epoch))
	}
	n.depth = best + 1
	return n.depth
}

// Acyclic reports whether the whole graph is acyclic (used by tests and
// debug assertions; the protocol relies on HasCycleFrom).
func (g *Graph) Acyclic() bool {
	const (
		white = iota
		grey
		black
	)
	colour := make([]uint8, len(g.nodes))
	var visit func(int32) bool
	visit = func(i int32) bool {
		colour[i] = grey
		for _, e := range g.nodes[i].out {
			if colour[e.to] == grey || colour[e.to] == white && !visit(e.to) {
				return false
			}
		}
		colour[i] = black
		return true
	}
	for i := range g.nodes {
		if g.nodes[i].live && colour[i] == white && !visit(int32(i)) {
			return false
		}
	}
	return true
}
