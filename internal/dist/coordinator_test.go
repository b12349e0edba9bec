package dist

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/fault"
)

// The Coordinator suite drives the decision half of the conversation
// with no sites and no goroutines: every test is a single-threaded
// script of edge reports, decision rounds and termination notices. All
// coordinators run with debug on, so the ack-table invariant
// (open sets == logged + adopted - resolved) is checked at every
// mutation.

func testCoordinator(policy HoldPolicy) (*Coordinator, *fault.MemLog) {
	flog := fault.NewMemLog()
	return NewCoordinator(2, flog, policy, true), flog
}

// enlist registers a transaction that has visited the given sites.
func enlist(co *Coordinator, id core.TxnID, sites ...SiteID) *Conv {
	cv := NewConv(id, nil)
	for _, s := range sites {
		cv.Visit(s)
	}
	co.Enlist(cv)
	return cv
}

// decide runs cv's decision round as a wave of one; deps are the
// transactions it reports commit dependencies on, all at its first
// visited site.
func decide(co *Coordinator, cv *Conv, deps ...core.TxnID) *DecideReq {
	req := &DecideReq{Conv: cv, Counts: make([]int, len(cv.Visited()))}
	for _, to := range deps {
		req.Batch = append(req.Batch, depgraph.Edge{From: cv.ID(), To: to, Kind: depgraph.CommitDep})
	}
	req.Counts[0] = len(deps)
	co.DecideWave([]*DecideReq{req})
	return req
}

func ids(cvs []*Conv) []core.TxnID {
	out := make([]core.TxnID, len(cvs))
	for i, cv := range cvs {
		out[i] = cv.ID()
	}
	return out
}

// finish retires a transaction and drains what its termination freed.
func finish(co *Coordinator, id core.TxnID) []core.TxnID {
	co.Retire(id)
	return ids(co.Drain([]core.TxnID{id}))
}

// TestCoordinatorDecide: one conversation with a dependency on a live
// transaction, under each policy verdict — and the dependency-free
// conversation that commits outright. The shed row is refused admission
// to the held set: it sits atop a chain of three under a bound of two.
func TestCoordinatorDecide(t *testing.T) {
	cases := []struct {
		name      string
		policy    HoldPolicy
		deps      bool
		wantState int32
		wantShed  bool
		wantHeld  int
		wantLog   int
	}{
		{"commit", nil, false, txReleasing, false, 0, 1},
		{"hold/off", nil, true, txPseudo, false, 1, 0},
		{"hold/unbounded", Unbounded{}, true, txPseudo, false, 1, 0},
		{"hold/depth", DepthBound{Max: 2}, true, txPseudo, false, 1, 0},
		{"shed/admission", DepthBound{Max: 2}, true, txRevoking, true, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			co, flog := testCoordinator(tc.policy)
			enlist(co, 1, 0)
			dep := core.TxnID(1)
			if tc.wantShed {
				// Chain 9 -> 1: depth 2, admitted; T2 joins it at depth 3.
				if r := decide(co, enlist(co, 9, 0), 1); r.Gdeps != 1 || r.Shed {
					t.Fatalf("priming hold: %+v", r)
				}
				dep = 9
			}
			cv := enlist(co, 2, 0, 1)
			var r *DecideReq
			if tc.deps {
				r = decide(co, cv, dep)
			} else {
				r = decide(co, cv)
			}
			if got := cv.state.Load(); got != tc.wantState {
				t.Errorf("state = %d, want %d", got, tc.wantState)
			}
			if r.Shed != tc.wantShed || r.Doomed {
				t.Errorf("verdict = %+v", r)
			}
			if _, off := tc.policy.(Unbounded); (tc.policy == nil || off) && (r.Depth != 0 || co.PolicyName() != "off") {
				t.Errorf("unbounded coordinator (%q) measured chain depth %d", co.PolicyName(), r.Depth)
			}
			if r.Held != tc.wantHeld || co.HeldCount() != tc.wantHeld {
				t.Errorf("held = %d (coordinator %d), want %d", r.Held, co.HeldCount(), tc.wantHeld)
			}
			if flog.Len() != tc.wantLog {
				t.Errorf("log holds %d decisions, want %d", flog.Len(), tc.wantLog)
			}
			if sites, _ := co.AcksPending(2); tc.wantLog == 1 && sites != 2 {
				t.Errorf("committed decision opened %d site acks, want 2", sites)
			}
		})
	}

	t.Run("shed/tail", func(t *testing.T) {
		co, _ := testCoordinator(DepthBound{Max: 2})
		enlist(co, 1, 0)
		decide(co, enlist(co, 2, 0), 1) // chain 2 -> 1: depth 2, admitted
		r := decide(co, enlist(co, 3, 0), 2)
		if !r.Shed || r.Depth != 3 || co.PolicyStats().TailAborts != 1 {
			t.Errorf("depth-3 chain under Max 2: %+v, stats %+v", r, co.PolicyStats())
		}
	})

	t.Run("doomed", func(t *testing.T) {
		co, flog := testCoordinator(nil)
		cv := enlist(co, 1, 0)
		co.SiteCrashed(0, []*Conv{cv})
		if r := decide(co, cv); !r.Doomed || flog.Len() != 0 {
			t.Errorf("doomed conversation decided: %+v, log %d", r, flog.Len())
		}
	})

	t.Run("stale-edge", func(t *testing.T) {
		// An export naming a transaction that already finished must not
		// hold the conversation.
		co, _ := testCoordinator(nil)
		if r := decide(co, enlist(co, 2, 0), 1); r.Gdeps != 0 {
			t.Errorf("edge to a finished transaction counted: %+v", r)
		}
	})
}

// TestCoordinatorObserve: the union graph closes a cycle no single
// site's report contains.
func TestCoordinatorObserve(t *testing.T) {
	co, _ := testCoordinator(nil)
	enlist(co, 1, 0, 1)
	enlist(co, 2, 0, 1)
	if co.Observe(0, 1, []depgraph.Edge{{From: 1, To: 2, Kind: depgraph.WaitFor}}) {
		t.Fatal("one edge is not a cycle")
	}
	if !co.Observe(1, 2, []depgraph.Edge{{From: 2, To: 1, Kind: depgraph.WaitFor}}) {
		t.Fatal("cross-site cycle 1 -> 2 -> 1 not detected")
	}
	if co.Observe(0, 3, []depgraph.Edge{{From: 3, To: 1, Kind: depgraph.WaitFor}}) || co.MirrorEdges() != 2 {
		t.Fatal("a report from a transaction that is not live was mirrored")
	}
	// Re-reporting a pair replaces it: withdrawing 2's wait breaks the cycle.
	if co.Observe(1, 2, nil) || co.MirrorEdges() != 1 {
		t.Fatalf("withdrawn report left %d edges", co.MirrorEdges())
	}
}

// TestCoordinatorDrain: a chain and a diamond drain one level per
// Drain, each termination freeing only its direct dependants.
func TestCoordinatorDrain(t *testing.T) {
	shapes := []struct {
		name string
		// deps[i] lists what transaction i+2 depends on; transaction 1
		// is the root everything waits for.
		deps [][]core.TxnID
		// rounds[i] is what the i-th termination (in release order,
		// starting with the root's) frees round-based; the last one
		// frees nothing.
		rounds [][]core.TxnID
	}{
		{"chain", [][]core.TxnID{{1}, {2}, {3}}, [][]core.TxnID{{2}, {3}, {4}, nil}},
		{"diamond", [][]core.TxnID{{1}, {1}, {2, 3}}, [][]core.TxnID{{2, 3}, nil, {4}, nil}},
	}
	for _, sh := range shapes {
		t.Run(sh.name+"/rounds", func(t *testing.T) {
			co, flog := testCoordinator(nil)
			enlist(co, 1, 0)
			for i, deps := range sh.deps {
				if r := decide(co, enlist(co, core.TxnID(i+2), 0), deps...); r.Gdeps != len(deps) {
					t.Fatalf("%s: T%d gdeps = %d, want %d", sh.name, i+2, r.Gdeps, len(deps))
				}
			}
			queue := []core.TxnID{1}
			for round := 0; len(queue) > 0; round++ {
				id := queue[0]
				queue = queue[1:]
				got := finish(co, id)
				if round >= len(sh.rounds) || !slices.Equal(got, sh.rounds[round]) {
					t.Fatalf("termination %d (T%d) released %v, want the sequence %v", round, id, got, sh.rounds)
				}
				queue = append(queue, got...)
			}
			if co.HeldCount() != 0 || flog.Len() != len(sh.deps) {
				t.Errorf("held %d, logged %d after the drain", co.HeldCount(), flog.Len())
			}
			if st := co.PolicyStats(); st.TailAborts != 0 || st.HeldPeak != len(sh.deps) {
				t.Errorf("policy stats = %+v", st)
			}
		})
	}
}

// TestCoordinatorAckTable: open -> ack -> truncate, with and without
// the client gate, for conversation and direct commits.
func TestCoordinatorAckTable(t *testing.T) {
	for _, gated := range []bool{false, true} {
		name := "ungated"
		if gated {
			name = "gated"
		}
		t.Run(name, func(t *testing.T) {
			co, flog := testCoordinator(nil)
			cv := enlist(co, 1, 0, 1)
			if gated {
				co.GateDecision(1)
			}
			decide(co, cv)
			if sites, client := co.AcksPending(1); sites != 2 || client != gated {
				t.Fatalf("opened %d site acks, client %v", sites, client)
			}
			if co.Ack(1, 0) || co.Ack(1, 0) {
				t.Fatal("first site's ack (or its repeat) resolved the decision")
			}
			if got := co.Ack(1, 1); got == gated {
				t.Fatalf("last site ack resolved = %v with gate %v", got, gated)
			}
			if gated {
				if flog.Len() != 1 {
					t.Fatal("gated decision truncated before the client ack")
				}
				if !co.AckDecision(1) {
					t.Fatal("client ack did not resolve the decision")
				}
			}
			if flog.Len() != 0 || co.Telemetry().LiveDecisions.Load() != 0 {
				t.Errorf("log %d, live %d after the last ack", flog.Len(), co.Telemetry().LiveDecisions.Load())
			}
			if co.Ack(1, 1) || co.AckDecision(1) {
				t.Error("ack of a truncated decision resolved something")
			}

			// The direct path logs only behind a gate.
			d := enlist(co, 2, 1)
			if gated {
				co.GateDecision(2)
			}
			if got := co.LogDirect(d); got != gated || flog.Len() != b2i(gated) {
				t.Fatalf("LogDirect = %v, log %d, gate %v", got, flog.Len(), gated)
			}
			if gated && (co.Ack(2, 1) || !co.AckDecision(2) || flog.Len() != 0) {
				t.Error("direct decision did not resolve on site ack + client ack")
			}
		})
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestCoordinatorRedoArbitration: restart reconciliation claiming a
// logged direct commit wins against the live conversation's
// withdrawal, and loses when the withdrawal came first.
func TestCoordinatorRedoArbitration(t *testing.T) {
	t.Run("claim-first", func(t *testing.T) {
		co, flog := testCoordinator(nil)
		cv := enlist(co, 1, 0)
		co.GateDecision(1)
		co.LogDirect(cv)
		if !co.ClaimRedo(1) {
			t.Fatal("logged commit not claimable")
		}
		if co.UndoDirect(1) || flog.Len() != 1 {
			t.Fatal("withdrawal beat the redo claim")
		}
		// The redo landed: site ack + client ack resolve it, erasing the claim.
		co.Ack(1, 0)
		if !co.AckDecision(1) || flog.Len() != 0 || co.ClaimRedo(1) {
			t.Error("claimed decision did not resolve cleanly")
		}
	})
	t.Run("undo-first", func(t *testing.T) {
		co, flog := testCoordinator(nil)
		cv := enlist(co, 1, 0)
		co.GateDecision(1)
		co.LogDirect(cv)
		if !co.UndoDirect(1) || flog.Len() != 0 {
			t.Fatal("unclaimed decision not withdrawn")
		}
		if co.ClaimRedo(1) {
			t.Error("withdrawn decision still claimable")
		}
		if co.Telemetry().DecisionsResolved.Load() != 1 {
			t.Error("withdrawal not counted as a resolution")
		}
	})
	t.Run("unlogged", func(t *testing.T) {
		co, _ := testCoordinator(nil)
		if co.ClaimRedo(7) {
			t.Error("claimed a decision the log never held")
		}
	})
}

// TestCoordinatorAdopt: a new coordinator on the old log re-arms every
// logged commit for all sites plus the client, and site recoveries ack
// them.
func TestCoordinatorAdopt(t *testing.T) {
	old, flog := testCoordinator(nil)
	old.GateDecision(1)
	decide(old, enlist(old, 1, 0)) // logged, never released: the crash hits here
	decide(old, enlist(old, 2, 1))
	old.Ack(2, 1) // ungated and fully acked: already truncated
	if flog.Len() != 1 {
		t.Fatalf("predecessor left %d decisions", flog.Len())
	}

	co := NewCoordinator(2, flog, nil, true)
	if got := co.Adopt(); !slices.Equal(got, []core.TxnID{1}) {
		t.Fatalf("adopted %v, want [1]", got)
	}
	if sites, client := co.AcksPending(1); sites != 2 || !client {
		t.Fatalf("adopted decision pends on %d sites, client %v", sites, client)
	}
	if tel := co.Telemetry(); tel.DecisionsAdopted.Load() != 1 || tel.DecisionsLogged.Load() != 0 {
		t.Errorf("adoption accounting: adopted %d logged %d", tel.DecisionsAdopted.Load(), tel.DecisionsLogged.Load())
	}
	if !co.ClaimRedo(1) {
		t.Error("adopted decision not claimable for redo")
	}
	if got := co.SiteRecovered(0, []core.TxnID{1}); len(got) != 0 {
		t.Errorf("first site's recovery resolved %v", got)
	}
	if got := co.SiteRecovered(1, nil); len(got) != 0 { // never visited: still acks
		t.Errorf("second site's recovery resolved %v with the client gate open", got)
	}
	if !co.AckDecision(1) || flog.Len() != 0 {
		t.Error("client ack did not truncate the adopted decision")
	}

	// The adoption table itself.
	for _, tc := range []struct {
		held, logged bool
		want         ActKind
	}{
		{false, true, ActCommitDirect},
		{false, false, ActAbort},
		{true, true, ActRelease},
		{true, false, ActRevoke},
	} {
		if got := AdoptVerdict(tc.held, tc.logged); got != tc.want {
			t.Errorf("AdoptVerdict(held=%v, logged=%v) = %d, want %d", tc.held, tc.logged, got, tc.want)
		}
	}
}

// TestCoordinatorCrashClassification: held and unlogged is revoked;
// releasing proceeds; active is doomed; the dead site's edges leave
// the union graph.
func TestCoordinatorCrashClassification(t *testing.T) {
	co, flog := testCoordinator(nil)
	root := enlist(co, 1, 1) // untouched by the crash
	active := enlist(co, 2, 0)
	held := enlist(co, 3, 0, 1)
	releasing := enlist(co, 4, 0)
	decide(co, held, 1)
	decide(co, releasing)

	revoke := co.SiteCrashed(0, []*Conv{active, held, releasing})
	if !slices.Equal(ids(revoke), []core.TxnID{3}) {
		t.Fatalf("revoked %v, want [3]", ids(revoke))
	}
	for _, tc := range []struct {
		cv    *Conv
		state int32
		doom  bool
	}{{root, txActive, false}, {active, txActive, true}, {held, txRevoking, true}, {releasing, txReleasing, true}} {
		if tc.cv.state.Load() != tc.state || tc.cv.doomed.Load() != tc.doom {
			t.Errorf("T%d: state %d doomed %v, want %d %v", tc.cv.ID(), tc.cv.state.Load(), tc.cv.doomed.Load(), tc.state, tc.doom)
		}
	}
	if co.HeldCount() != 0 || co.MirrorEdges() != 0 {
		t.Errorf("held %d, mirror edges %d after the crash", co.HeldCount(), co.MirrorEdges())
	}
	// The revoked hold is out of Drain's reach; the logged decision
	// stands until its site's recovery redoes it.
	if got := finish(co, 1); len(got) != 0 {
		t.Errorf("drain selected a revoking transaction: %v", got)
	}
	if got := co.SiteRecovered(0, []core.TxnID{4}); !slices.Equal(got, []core.TxnID{4}) || flog.Len() != 0 {
		t.Errorf("recovery resolved %v, log %d", got, flog.Len())
	}
}

// ---- The conversation script, with no sites ----

// scriptRun drives Coordinator.Step the way a driver does, with a fake
// executor in place of the sites: actions execute in order, every site
// verb "succeeds" (unless the test says otherwise) and replies at once,
// ActDecide runs a wave of one, ActRetire retires and drains. The
// transcript has one line per Step call: the input, then the actions it
// answered with, boundaries included.
type scriptRun struct {
	t  *testing.T
	co *Coordinator
	// edges are each site's hold exports, keyed {txn, site}; fail marks
	// the {txn, site} pairs whose hold or direct commit is refused.
	edges map[[2]int][]depgraph.Edge
	fail  map[[2]int]bool
	// before, when set, runs ahead of every action (to inject a crash or
	// a redo claim at an exact point); returning false drops the action
	// and everything pending, as a driver does for a voided conversation.
	before func(cv *Conv, a Action) bool
	log    []string
}

var inputNames = map[InputKind]string{
	InCommit: "commit", InHoldReply: "hold-reply", InDirectReply: "direct-reply", InVerdict: "verdict",
	InReleaseAck: "release-ack", InSiteCrashed: "site-crashed", InReady: "ready",
}

func (a Action) String() string {
	s := a.Kind.String()
	if a.Site != noSite {
		s += fmt.Sprintf("@%d", a.Site)
	}
	switch {
	case a.Kind == ActFinished && a.Reason != core.ReasonNone:
		s += "(" + a.Reason.String() + ")"
	case a.Kind == ActFinished && a.Status == core.PseudoCommitted:
		s += "(held)"
	case a.Kind == ActFinished:
		s += "(committed)"
	}
	if a.Before != NoStep {
		s = a.Before.String() + ">" + s
	}
	if a.After != NoStep {
		s += ">" + a.After.String()
	}
	return s
}

// feed steps cv with one input, logs the exchange and executes the answer.
func (r *scriptRun) feed(cv *Conv, in Input) {
	name := inputNames[in.Kind]
	if in.Failed {
		name += "-failed"
	}
	if in.Kind == InHoldReply || in.Kind == InDirectReply || in.Kind == InReleaseAck || in.Kind == InSiteCrashed {
		name += fmt.Sprintf("@%d", in.Site)
	}
	acts := r.co.Step(cv, in, nil)
	line := fmt.Sprintf("T%d %s:", cv.ID(), name)
	for _, a := range acts {
		line += " " + a.String()
	}
	r.log = append(r.log, line)
	for _, a := range acts {
		if r.before != nil && !r.before(cv, a) {
			return
		}
		key := [2]int{int(cv.ID()), int(a.Site)}
		switch a.Kind {
		case ActHold:
			r.feed(cv, Input{Kind: InHoldReply, Site: a.Site, Failed: r.fail[key], Edges: r.edges[key]})
		case ActCommitDirect:
			if !r.fail[key] {
				r.co.Ack(cv.ID(), a.Site)
			}
			r.feed(cv, Input{Kind: InDirectReply, Site: a.Site, Failed: r.fail[key]})
		case ActRelease:
			r.co.Ack(cv.ID(), a.Site)
			r.feed(cv, Input{Kind: InReleaseAck, Site: a.Site})
		case ActDecide:
			r.co.DecideWave([]*DecideReq{cv.Decision()})
			r.feed(cv, Input{Kind: InVerdict})
		case ActRetire:
			if r.co.Retire(cv.ID()) {
				for _, ready := range r.co.Drain([]core.TxnID{cv.ID()}) {
					r.feed(ready, Input{Kind: InReady})
				}
			}
		}
	}
}

// dep enlists a transaction at the given sites with a commit dependency
// on `on`, reported at its first site (so it cannot go direct) and
// exported again by that site's hold.
func (r *scriptRun) dep(id, on core.TxnID, sites ...SiteID) *Conv {
	cv := enlist(r.co, id, sites...)
	e := []depgraph.Edge{{From: id, To: on, Kind: depgraph.CommitDep}}
	r.co.Observe(sites[0], id, slices.Clone(e))
	r.edges[[2]int{int(id), int(sites[0])}] = e
	return cv
}

func (r *scriptRun) want(lines ...string) {
	r.t.Helper()
	if !slices.Equal(r.log, lines) {
		r.t.Errorf("script transcript:\n  %s\nwant:\n  %s", strings.Join(r.log, "\n  "), strings.Join(lines, "\n  "))
	}
	r.log = nil
}

func newScript(t *testing.T, co *Coordinator) *scriptRun {
	return &scriptRun{t: t, co: co, edges: map[[2]int][]depgraph.Edge{}, fail: map[[2]int]bool{}}
}

// The fan-out's fixed phrases.
const (
	hold0    = "BeforeCommitHold>hold@0>AfterPrepareForce"
	hold1    = "BeforeCommitHold>hold@1>AfterPrepareForce"
	decideA  = "BeforeDecisionForce>decide"
	decidedA = "decided>AfterDecisionBeforeRelease"
	release0 = "DuringReleaseCascade>release@0"
	release1 = "DuringReleaseCascade>release@1"
	landed   = "finished(committed) retire"
)

var siteFailed = core.ReasonSiteFailed.String()

// TestCoordinatorScript pins the exact action sequence, boundaries
// included, the step function answers each conversation shape with.
func TestCoordinatorScript(t *testing.T) {
	t.Run("direct/one-site", func(t *testing.T) {
		co, flog := testCoordinator(nil)
		r := newScript(t, co)
		r.feed(enlist(co, 1, 0), Input{Kind: InCommit})
		r.want("T1 commit: commit@0", "T1 direct-reply@0: "+landed)
		if flog.Len() != 0 || co.Telemetry().FastCommits.Load() != 1 {
			t.Errorf("ungated direct commit: log %d, fast commits %d", flog.Len(), co.Telemetry().FastCommits.Load())
		}
	})

	t.Run("edge-free/two-sites-take-holds", func(t *testing.T) {
		co, flog := testCoordinator(nil)
		r := newScript(t, co)
		r.feed(enlist(co, 1, 0, 1), Input{Kind: InCommit})
		r.want(
			"T1 commit: "+hold0,
			"T1 hold-reply@0: "+hold1,
			"T1 hold-reply@1: "+decideA,
			"T1 verdict: "+decidedA+" "+release0,
			"T1 release-ack@0: "+release1,
			"T1 release-ack@1: "+landed,
		)
		if flog.Len() != 0 || co.Telemetry().DecisionsLogged.Load() != 1 {
			t.Errorf("decision not logged then truncated: log %d, logged %d", flog.Len(), co.Telemetry().DecisionsLogged.Load())
		}
	})

	t.Run("held-then-drained", func(t *testing.T) {
		co, _ := testCoordinator(nil)
		r := newScript(t, co)
		t1 := enlist(co, 1, 0)
		r.feed(r.dep(2, 1, 0, 1), Input{Kind: InCommit})
		r.want(
			"T2 commit: "+hold0,
			"T2 hold-reply@0: "+hold1,
			"T2 hold-reply@1: "+decideA,
			"T2 verdict: finished(held)",
		)
		if co.HeldCount() != 1 {
			t.Fatalf("held = %d", co.HeldCount())
		}
		// The dependency terminates: its retire drains T2, which releases.
		r.feed(t1, Input{Kind: InCommit})
		r.want(
			"T1 commit: commit@0",
			"T1 direct-reply@0: "+landed,
			"T2 ready: "+decidedA+" "+release0,
			"T2 release-ack@0: "+release1,
			"T2 release-ack@1: "+landed,
		)
		if co.HeldCount() != 0 || co.MirrorEdges() != 0 {
			t.Errorf("after the drain: held %d, mirror edges %d", co.HeldCount(), co.MirrorEdges())
		}
	})

	t.Run("shed", func(t *testing.T) {
		// A chain of three under a bound of two: T3 -> T2 -> T1 is shed.
		co, flog := testCoordinator(DepthBound{Max: 2})
		r := newScript(t, co)
		enlist(co, 1, 0)
		r.feed(r.dep(2, 1, 0), Input{Kind: InCommit}) // depth 2: held
		r.log = nil
		r.feed(r.dep(3, 2, 0, 1), Input{Kind: InCommit})
		r.want(
			"T3 commit: "+hold0,
			"T3 hold-reply@0: "+hold1,
			"T3 hold-reply@1: "+decideA,
			"T3 verdict: revoke@0 revoke@1 finished("+core.ReasonShed.String()+") retire",
		)
		if co.HeldCount() != 1 || flog.Len() != 0 || co.Live(3) != nil {
			t.Errorf("after the shed: held %d, log %d, T3 live %v", co.HeldCount(), flog.Len(), co.Live(3) != nil)
		}
	})

	t.Run("doomed-mid-hold", func(t *testing.T) {
		// Site 1 crashes between hold 1 and hold 2: the hold that landed is
		// revoked, the site that never replied is aborted.
		co, _ := testCoordinator(nil)
		r := newScript(t, co)
		enlist(co, 1, 0)
		cv := r.dep(2, 1, 0, 1)
		r.before = func(cv *Conv, a Action) bool {
			if a.Kind != ActHold || a.Site != 1 {
				return true
			}
			r.before = nil
			co.SiteCrashed(1, []*Conv{cv})
			r.feed(cv, Input{Kind: InSiteCrashed, Site: 1})
			return false
		}
		r.feed(cv, Input{Kind: InCommit})
		r.want(
			"T2 commit: "+hold0,
			"T2 hold-reply@0: "+hold1,
			"T2 site-crashed@1: revoke@0 abort@1 finished@1("+siteFailed+") retire",
		)
		// The same crash found by the hold itself, or by the decision round.
		cv = r.dep(3, 1, 0, 1)
		r.fail[[2]int{3, 1}] = true
		r.feed(cv, Input{Kind: InCommit})
		r.want(
			"T3 commit: "+hold0,
			"T3 hold-reply@0: "+hold1,
			"T3 hold-reply-failed@1: revoke@0 abort@1 finished@1("+siteFailed+") retire",
		)
		cv = r.dep(4, 1, 0, 1)
		r.before = func(cv *Conv, a Action) bool {
			if a.Kind == ActDecide {
				co.SiteCrashed(1, []*Conv{cv})
			}
			return true
		}
		r.feed(cv, Input{Kind: InCommit})
		r.want(
			"T4 commit: "+hold0,
			"T4 hold-reply@0: "+hold1,
			"T4 hold-reply@1: "+decideA,
			"T4 verdict: revoke@0 revoke@1 finished("+siteFailed+") retire",
		)
	})

	t.Run("gated-direct-reply-fails", func(t *testing.T) {
		co, flog := testCoordinator(nil)
		r := newScript(t, co)
		// Unclaimed: the record is withdrawn and the attempt aborts.
		co.GateDecision(1)
		r.fail[[2]int{1, 0}] = true
		r.feed(enlist(co, 1, 0), Input{Kind: InCommit})
		r.want("T1 commit: commit@0", "T1 direct-reply-failed@0: abort@0 finished@0("+siteFailed+") retire")
		if flog.Len() != 0 {
			t.Errorf("withdrawn direct decision still logged")
		}
		co.AckDecision(1)
		// Claimed by restart reconciliation first: the redo landed the
		// commit, so the conversation must report Committed.
		co.GateDecision(2)
		r.fail[[2]int{2, 0}] = true
		r.before = func(cv *Conv, a Action) bool {
			if a.Kind == ActCommitDirect && !co.ClaimRedo(2) {
				t.Error("logged direct commit not claimable")
			}
			return true
		}
		r.feed(enlist(co, 2, 0), Input{Kind: InCommit})
		r.want("T2 commit: commit@0", "T2 direct-reply-failed@0: "+landed)
		if sites, client := co.AcksPending(2); sites != 0 || !client || flog.Len() != 1 {
			t.Errorf("claimed decision: %d site acks pending, client %v, log %d", sites, client, flog.Len())
		}
		if !co.AckDecision(2) || flog.Len() != 0 {
			t.Error("client ack did not truncate the redone decision")
		}
	})

	t.Run("release-shape", func(t *testing.T) {
		// A chain of three, T3 -> T2 -> T1, T2 and T3 at both sites: one
		// participant per ack, one transaction per drain.
		co, _ := testCoordinator(nil)
		r := newScript(t, co)
		t1 := enlist(co, 1, 0)
		r.feed(r.dep(2, 1, 0, 1), Input{Kind: InCommit})
		r.feed(r.dep(3, 2, 0, 1), Input{Kind: InCommit})
		r.log = nil
		r.feed(t1, Input{Kind: InCommit})
		r.want(
			"T1 commit: commit@0",
			"T1 direct-reply@0: "+landed,
			"T2 ready: "+decidedA+" "+release0,
			"T2 release-ack@0: "+release1,
			"T2 release-ack@1: "+landed,
			"T3 ready: "+decidedA+" "+release0,
			"T3 release-ack@0: "+release1,
			"T3 release-ack@1: "+landed,
		)
	})
}
