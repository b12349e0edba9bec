package distsim

import (
	"errors"
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

// driversCase is one scripted scenario for TestDriversAgree. T1 (the
// first script) is kept busy on a private object until every event has
// run, then commits directly; events run in order: commit a held or
// shed transaction, or crash a site. The wanted outcomes are checked on
// both clocks: errs on the wall clock, aborts and heldAborts on the
// virtual one, so an attempt that aborts and is retried cannot pass.
type driversCase struct {
	name       string
	policy     dist.HoldPolicy
	scripts    [][]workload.Step
	events     []driversEvent
	errs       []error // each transaction's wanted Err() once Done; nil for a commit
	real       int     // real commits at the end
	aborts     int     // virtual-clock aborts (a shed counts as one)
	heldAborts int     // virtual-clock held pseudo-commits voided by a crash
	boundaries int     // boundary firings (T1's direct commit fires none), so agreement cannot be agreement on nothing
}

type driversEvent struct {
	txn   int // index into scripts: commit it
	want  core.CommitStatus
	shed  bool        // the commit is shed instead
	crash dist.SiteID // with txn < 0: crash this site
}

// TestDriversAgree runs scripted scenarios through both executors of
// the conversation script — the wall-clock dist.Cluster (recording its
// Config.StepHook firings) and this package's Engine (its "step" trace
// lines) — and requires the same ordered list of (step, transaction,
// site), and for each transaction the same spans: kind, site, object
// and wave, every kind at every site; only Dur differs by clock. Two
// sites; commits are issued one at a time, so no two conversations
// overlap and the wall-clock order is deterministic too.
func TestDriversAgree(t *testing.T) {
	const a, b, private = 2, 1, 4 // a and private live at site 0, b at site 1
	push := func(obj core.ObjectID, v int) workload.Step {
		return workload.Step{Object: obj, Op: adt.Op{Name: adt.StackPush, Arg: v, HasArg: true}}
	}
	// A transaction commits on the virtual clock when its steps run out,
	// so T1 is kept busy on a private object until the events have run.
	t1 := []workload.Step{push(a, 1)}
	for i := 0; i < 60; i++ {
		t1 = append(t1, push(private, i))
	}
	for _, tc := range []driversCase{{
		// A commit-dependency chain T3 -> T2 -> T1, T2 cross-site: T2 and
		// T3 are held, and T1's commit cascades the two releases.
		name:       "cascade",
		policy:     dist.Unbounded{},
		scripts:    [][]workload.Step{t1, {push(a, 2), push(b, 2)}, {push(b, 3)}},
		events:     []driversEvent{{txn: 1, want: core.PseudoCommitted}, {txn: 2, want: core.PseudoCommitted}},
		errs:       []error{nil, nil, nil},
		real:       3,
		boundaries: 5 + 3 + 3 + 2,
	}, {
		// A chain of three at one site under depth=2: T2 is held, T3
		// would sit atop a chain of three and is shed.
		name:       "shed",
		policy:     dist.DepthBound{Max: 2},
		scripts:    [][]workload.Step{t1, {push(a, 2)}, {push(a, 3)}},
		events:     []driversEvent{{txn: 1, want: core.PseudoCommitted}, {txn: 2, shed: true}},
		errs:       []error{nil, nil, core.ErrHoldShed},
		real:       2,
		aborts:     1,
		boundaries: 3 + 3 + 2,
	}, {
		// T2 holds at both sites, then site 1 crashes: the unlogged hold
		// is revoked, and T2 aborts.
		name:       "revoke",
		policy:     dist.Unbounded{},
		scripts:    [][]workload.Step{t1, {push(a, 2), push(b, 2)}},
		events:     []driversEvent{{txn: 1, want: core.PseudoCommitted}, {txn: -1, crash: 1}},
		errs:       []error{nil, core.ErrSiteFailed},
		real:       1,
		heldAborts: 1,
		boundaries: 5,
	}} {
		t.Run(tc.name, func(t *testing.T) { driversAgree(t, tc) })
	}
}

func driversAgree(t *testing.T, tc driversCase) {
	// The wall-clock driver.
	var wall []string
	c, err := dist.NewWithConfig(dist.Config{
		Sites: 2, Opts: core.Options{Debug: true}, Spans: telemetry.NewSpanBuffer(256, 0, 1), Policy: tc.policy,
		StepHook: func(s dist.Step, id core.TxnID, site dist.SiteID) {
			wall = append(wall, fmt.Sprintf("%s T%d site=%d", s, id, site))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetFactory(func(core.ObjectID) (adt.Type, compat.Classifier) { return adt.Stack{}, compat.StackTable() })
	txns := make([]core.Txn, len(tc.scripts))
	for i, steps := range tc.scripts {
		txns[i] = c.Begin()
		for _, st := range steps {
			if _, err := txns[i].Do(st.Object, st.Op); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, ev := range append(tc.events, driversEvent{txn: 0, want: core.Committed}) {
		if ev.txn < 0 {
			if err := c.Crash(ev.crash); err != nil {
				t.Fatal(err)
			}
			continue
		}
		st, err := txns[ev.txn].Commit()
		if ev.shed {
			if !errors.Is(err, core.ErrHoldShed) {
				t.Fatalf("wall clock: T%d commit = %v %v, want shed", ev.txn+1, st, err)
			}
		} else if err != nil || st != ev.want {
			t.Fatalf("wall clock: T%d commit = %v %v, want %v", ev.txn+1, st, err, ev.want)
		}
	}
	for i, tx := range txns {
		<-tx.Done()
		if err, want := tx.Err(), tc.errs[i]; err != want && (want == nil || !errors.Is(err, want)) {
			t.Fatalf("wall clock: T%d ended with %v, want %v", i+1, err, want)
		}
	}

	// The virtual-clock driver: the same scripts as detached attempts (no
	// terminal resubmits them), and a shed or revoked attempt's retry
	// pushed past the scenario.
	cfg := Default(workload.Pushes{DBSize: 4}, 2, 1, 1)
	cfg.RecordTrace = true
	cfg.Spans = 256
	cfg.Policy = tc.policy
	cfg.RestartDelay = 1e6
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
	procs := make([]*sproc, len(tc.scripts))
	for i, steps := range tc.scripts {
		procs[i] = &sproc{terminal: -1, steps: steps}
	}
	eng.startAttempt(procs[0])
	pump("T1's first push", func() bool { return procs[0].idx >= 1 })
	for _, ev := range tc.events {
		if ev.txn < 0 {
			eng.crash(int(ev.crash), 0)
			continue
		}
		p, want := procs[ev.txn], spHeld
		if ev.shed {
			want = spWaitRetry
		}
		eng.startAttempt(p)
		pump(fmt.Sprintf("T%d's commit", ev.txn+1), func() bool { return p.state == want })
	}
	if procs[0].state != spActive {
		t.Fatalf("virtual clock: T1 entered its commit before the events ran (state %d)", procs[0].state)
	}
	pump("T1's commit", func() bool { return len(eng.procs) == 0 })
	if eng.realCommits != tc.real || eng.aborts != tc.aborts || eng.heldAborts != tc.heldAborts {
		t.Fatalf("virtual clock: %d real commits, %d aborts, %d held aborts, want %d, %d and %d",
			eng.realCommits, eng.aborts, eng.heldAborts, tc.real, tc.aborts, tc.heldAborts)
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
	if len(wall) != tc.boundaries {
		t.Errorf("%d boundaries fired, want %d:\n  %s", len(wall), tc.boundaries, strings.Join(wall, "\n  "))
	}

	wallSpans, virtSpans := spanKinds(c.Spans().Snapshot()), spanKinds(eng.spans.Snapshot())
	for id := uint64(1); id <= uint64(len(tc.scripts)); id++ {
		if len(virtSpans[id]) == 0 || !slices.Equal(wallSpans[id], virtSpans[id]) {
			t.Errorf("T%d's spans disagree.\nwall clock:    %s\nvirtual clock: %s",
				id, strings.Join(wallSpans[id], " "), strings.Join(virtSpans[id], " "))
		}
	}
	t.Logf("T2's spans: %s", strings.Join(wallSpans[2], " "))
}

// spanKinds lists each transaction's spans in order as
// kind@site(o=object,w=wave) — everything but the clock's stamps.
func spanKinds(spans []telemetry.Span) map[uint64][]string {
	out := make(map[uint64][]string)
	for _, s := range spans {
		out[s.Txn] = append(out[s.Txn], fmt.Sprintf("%s@%d(o=%d,w=%d)", s.KindS, s.Site, s.Object, s.Wave))
	}
	return out
}
