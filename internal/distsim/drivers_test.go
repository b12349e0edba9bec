package distsim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestDriversAgree runs one scripted scenario through both executors of
// the conversation script — the wall-clock dist.Cluster (recording its
// Config.StepHook firings) and this package's Engine (its "step" trace
// lines) — and requires the same ordered list of (step, transaction,
// site), and the same span kinds at the same sites for each transaction.
// Two sites; a commit-dependency chain T3 -> T2 -> T1 over stacks, T2
// cross-site; commits issued one at a time (T2, then T3, both held, then
// T1, whose termination cascades the two releases, and which commits
// directly), so no two conversations overlap and the wall-clock order is
// deterministic too.
func TestDriversAgree(t *testing.T) {
	const a, b, private = 2, 1, 4 // a and private live at site 0, b at site 1
	push := func(obj core.ObjectID, v int) workload.Step {
		return workload.Step{Object: obj, Op: adt.Op{Name: adt.StackPush, Arg: v, HasArg: true}}
	}
	scripts := [][]workload.Step{
		{push(a, 1)},
		{push(a, 2), push(b, 2)}, // depends on T1 at site 0
		{push(b, 3)},             // depends on T2 at site 1
	}
	// A transaction commits on the virtual clock when its steps run out,
	// so T1 is kept busy on a private object until T2 and T3 are held.
	for i := 0; i < 60; i++ {
		scripts[0] = append(scripts[0], push(private, i))
	}

	// The wall-clock driver.
	var wall []string
	c, err := dist.NewWithConfig(dist.Config{
		Sites: 2, FaultTolerant: true, Opts: core.Options{Debug: true}, Spans: 256,
		StepHook: func(s dist.Step, id core.TxnID, site dist.SiteID) {
			wall = append(wall, fmt.Sprintf("%s T%d site=%d", s, id, site))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetFactory(func(core.ObjectID) (adt.Type, compat.Classifier) { return adt.Stack{}, compat.StackTable() })
	txns := make([]core.Txn, len(scripts))
	for i, steps := range scripts {
		txns[i] = c.Begin()
		for _, st := range steps {
			if _, err := txns[i].Do(st.Object, st.Op); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		i    int
		want core.CommitStatus
	}{{1, core.PseudoCommitted}, {2, core.PseudoCommitted}, {0, core.Committed}} {
		if st, err := txns[tc.i].Commit(); err != nil || st != tc.want {
			t.Fatalf("wall clock: T%d commit = %v %v, want %v", tc.i+1, st, err, tc.want)
		}
	}
	for _, tx := range txns {
		<-tx.Done()
		if err := tx.Err(); err != nil {
			t.Fatal(err)
		}
	}

	// The virtual-clock driver: the same three scripts as detached
	// attempts (no terminal resubmits them).
	cfg := Default(workload.Pushes{DBSize: 4}, 2, 1, 1)
	cfg.RecordTrace = true
	cfg.Spans = 256
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pump := func(what string, done func() bool) {
		t.Helper()
		for !done() {
			event, ok := eng.tl.Next()
			if !ok {
				t.Fatalf("virtual clock: event queue drained waiting for %s", what)
			}
			eng.dispatch(event)
		}
	}
	procs := make([]*sproc, len(scripts))
	for i, steps := range scripts {
		procs[i] = &sproc{terminal: -1, steps: steps}
	}
	eng.startAttempt(procs[0])
	pump("T1's first push", func() bool { return procs[0].idx >= 1 })
	eng.startAttempt(procs[1])
	pump("T2 held", func() bool { return procs[1].state == spHeld })
	eng.startAttempt(procs[2])
	pump("T3 held", func() bool { return procs[2].state == spHeld })
	if procs[0].state != spActive {
		t.Fatalf("virtual clock: T1 entered its commit before T3 was held (state %d)", procs[0].state)
	}
	pump("the cascade", func() bool { return len(eng.procs) == 0 })
	if eng.realCommits != 3 || eng.aborts != 0 {
		t.Fatalf("virtual clock: %d real commits, %d aborts, want 3 and 0", eng.realCommits, eng.aborts)
	}
	var virtual []string
	for _, line := range eng.trace {
		if _, rest, ok := strings.Cut(line, " step "); ok {
			virtual = append(virtual, rest[:strings.LastIndex(rest, " n=")])
		}
	}

	if len(wall) == 0 || !slices.Equal(wall, virtual) {
		t.Errorf("drivers disagree on the boundary order.\nwall clock:\n  %s\nvirtual clock:\n  %s",
			strings.Join(wall, "\n  "), strings.Join(virtual, "\n  "))
	}
	t.Logf("boundary order:\n  %s", strings.Join(wall, "\n  "))
	// The script's shape, so agreement cannot be agreement on nothing:
	// T2's two holds, T3's one, and the cascade releasing T2 before T3.
	if want := 5 + 3 + 3 + 2; len(wall) != want {
		t.Errorf("%d boundaries fired, want %d:\n  %s", len(wall), want, strings.Join(wall, "\n  "))
	}

	// Span names agree on both clocks: each transaction records the same
	// sequence of span kinds at the same sites. Durations are not
	// compared (decide's is the decide wave on the wall clock, the held
	// wait on the virtual one), nor the begin the wall clock adds at each
	// site's first touch, which the simulator folds into the request.
	wallSpans, virtSpans := spanKinds(c.Spans().Snapshot()), spanKinds(eng.Spans().Snapshot())
	for id := uint64(1); id <= uint64(len(scripts)); id++ {
		if len(virtSpans[id]) == 0 || !slices.Equal(wallSpans[id], virtSpans[id]) {
			t.Errorf("T%d's spans disagree.\nwall clock:    %s\nvirtual clock: %s",
				id, strings.Join(wallSpans[id], " "), strings.Join(virtSpans[id], " "))
		}
	}
	t.Logf("T2's spans: %s", strings.Join(wallSpans[2], " "))
}

// spanKinds lists each transaction's spans in order as kind@site,
// leaving out site-level begins.
func spanKinds(spans []telemetry.Span) map[uint64][]string {
	out := make(map[uint64][]string)
	for _, s := range spans {
		if s.Kind != telemetry.SpanBegin || s.Site < 0 {
			out[s.Txn] = append(out[s.Txn], fmt.Sprintf("%s@%d", s.KindS, s.Site))
		}
	}
	return out
}
