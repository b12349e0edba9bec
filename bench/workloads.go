package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/wire"
	"repro/internal/workload"
)

// workloadSpec is one row of the benchmark: which store, which
// traffic, how many closed-loop clients (the paper's terminals — the
// multiprogramming level is a property of the workload, not of the
// thread count), and why the row exists.
type workloadSpec struct {
	name    string
	clients int
	gen     workload.Generator
	// open builds the store from its default configuration, up to the
	// point where the first Begin is possible. No hold policy is named
	// and core.Options stays the zero value, so a change of defaults
	// shows here without a benchmark edit. dir is scratch space inside
	// the checkout for stores that need files.
	open func(gen workload.Generator, dir string) (*instance, error)
	// conserve marks the all-push workloads, where each object's
	// committed depth must equal the pushes of committed transactions.
	conserve bool
}

// instance is one built store and the handles the checks and counters
// read it through.
type instance struct {
	store   core.Store
	cluster *dist.Cluster     // both cluster workloads and wire-push (the coordinator's)
	coord   *wire.Coordinator // wire-push only
	// depth reads an object's committed stack depth (clusters only);
	// unknown reports an object the store never created.
	depth func(obj core.ObjectID) (n int, unknown bool, err error)
	close func()
}

const (
	convoyDB   = 256
	convoySpec = "pushes:256" // what the wire daemons resolve object types from
)

// The four workloads, in the fixed order a full run takes them. Why
// each exists is recorded in BENCHMARK.json and README.md; in short:
//
//   - db-mix: the single-node baseline — one scheduler, three ADTs,
//     all three Figure-2 outcomes. dist, fault and wire do nothing.
//   - cluster-part: well-partitioned, low-conflict pages. Almost every
//     commit takes dist's edge-free fast path; the conversation
//     machinery idles, so it is the control for conversation changes.
//   - cluster-convoy: every operation a recoverable push on a small
//     hot database with more clients than cores. Every commit is a
//     hold/decide/release conversation.
//   - wire-push: the convoy traffic through real frames with only two
//     clients, so overlap is rare and hops, codec and log append
//     dominate.
var workloads = []workloadSpec{
	{
		name:    "db-mix",
		clients: 4,
		gen:     workload.Mix{DBSize: 64, ArgRange: 8},
		open:    openDB,
	},
	{
		name:    "cluster-part",
		clients: 4,
		gen:     workload.Sharded{Inner: workload.ReadWrite{DBSize: 4096, WriteProb: 0.3}, Sites: 2, CrossProb: 0.05},
		open:    openCluster,
	},
	{
		name:     "cluster-convoy",
		clients:  4,
		gen:      workload.Sharded{Inner: workload.Pushes{DBSize: convoyDB}, Sites: 2, CrossProb: 0.1},
		open:     openCluster,
		conserve: true,
	},
	{
		name:     "wire-push",
		clients:  2,
		gen:      workload.Sharded{Inner: workload.Pushes{DBSize: convoyDB}, Sites: 2, CrossProb: 0.1},
		open:     openWire,
		conserve: true,
	},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func openDB(gen workload.Generator, _ string) (*instance, error) {
	db := core.NewDB(core.Options{})
	db.SetFactory(gen.Factory())
	return &instance{store: db, close: func() {}}, nil
}

func openCluster(gen workload.Generator, _ string) (*instance, error) {
	c, err := dist.NewWithConfig(dist.Config{Sites: 2, FaultTolerant: true})
	if err != nil {
		return nil, err
	}
	c.SetFactory(gen.Factory())
	return &instance{
		store:   c,
		cluster: c,
		depth: func(obj core.ObjectID) (int, bool, error) {
			return stateLen(c.Site(c.SiteOf(obj)).CommittedState(obj))
		},
		close: func() {},
	}, nil
}

// stateLen turns a CommittedState answer into a depth.
func stateLen(st adt.State, err error) (int, bool, error) {
	if err != nil {
		return 0, true, nil // the site never created the object
	}
	l, ok := st.(interface{ Len() int })
	if !ok {
		return 0, false, fmt.Errorf("state %T has no length", st)
	}
	return l.Len(), false, nil
}

// openWire deploys the loopback cluster in this process: one site
// daemon serving both sites (fault.New over a MemLog each), the
// coordinator with its decision log in a file (sync=false, sccd's
// default flush policy: an append per decision, no fsync), and one
// client connection, all over 127.0.0.1.
func openWire(_ workload.Generator, dir string) (*instance, error) {
	sites := make(map[uint16]dist.SiteBackend, 2)
	ids := make([]uint16, 0, 2)
	for sid := uint16(0); sid < 2; sid++ {
		cr, err := fault.New(core.Options{}, fault.NewMemLog())
		if err != nil {
			return nil, err
		}
		sites[sid] = cr
		ids = append(ids, sid)
	}
	srv, err := wire.ServeSites(wire.SiteServerConfig{Addr: "127.0.0.1:0", Sites: sites, Workload: convoySpec})
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "decisions-*.log")
	if err != nil {
		srv.Close()
		return nil, err
	}
	logPath := f.Name()
	f.Close()
	flog, err := fault.OpenFileLog(logPath, false)
	if err != nil {
		srv.Close()
		return nil, err
	}
	co, err := wire.StartCoordinator(wire.CoordinatorConfig{
		ClientAddr: "127.0.0.1:0",
		Log:        flog,
		CloseLog:   flog.Close,
		Daemons:    []wire.DaemonSpec{{Listen: srv.Addr(), Sites: ids}},
		Workload:   convoySpec,
		DialWait:   5 * time.Second,
	})
	if err != nil {
		flog.Close()
		srv.Close()
		return nil, err
	}
	cl, err := wire.Dial(co.Addr(), 5*time.Second)
	if err != nil {
		co.Close()
		srv.Close()
		return nil, err
	}
	return &instance{
		store:   cl,
		cluster: co.Cluster,
		coord:   co,
		depth: func(obj core.ObjectID) (int, bool, error) {
			_, n, err := cl.StateLen(obj, true)
			if err != nil {
				return 0, true, nil
			}
			return n, false, nil
		},
		close: func() {
			cl.Close()
			co.Close()
			srv.Close()
			os.Remove(logPath)
		},
	}, nil
}

// scratchDir makes a fresh directory under out/ for files the stores
// write; the caller removes it.
func scratchDir() (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "tmp-")
}

// Set-up is repeated for setupBudget, at least setupMin and at most
// setupMax times; setup_s is the fastest repeat.
const (
	setupBudget = 500 * time.Millisecond
	setupMin    = 15
	setupMax    = 400
)

// measureSetup sets w's store up repeatedly and returns the fastest
// set-up in seconds. Set-up is everything a client pays before the
// store serves at its steady rate: construction up to the first Begin
// (listen, dial, factory install) and then priming — one read-only
// single-step transaction on every object of the database, which is
// what makes the stores create their objects (they do so lazily, on
// first touch). Construction alone takes about a microsecond for the
// in-process stores, too little to time; with priming, work a later
// change moves between construction and first touch stays inside the
// metric. Tear-down is not timed.
//
// The minimum, not the median: a set-up is short, allocation-heavy and
// runs on cold caches, so a neighbour on the host moves its median by
// tens of percent from one process to the next, while the fastest of
// many repeats — the undisturbed cost — repeats within a few percent.
// budget and the repeat limits bound the time spent.
func measureSetup(w workloadSpec, dir string, budget time.Duration, minN, maxN int) (float64, error) {
	factory := w.gen.Factory()
	best := time.Duration(0)
	began := time.Now()
	for n := 0; n < maxN && (n < minN || time.Since(began) < budget); n++ {
		start := time.Now()
		inst, err := w.open(w.gen, dir)
		if err != nil {
			return 0, err
		}
		for id := core.ObjectID(1); id <= core.ObjectID(w.gen.Size()); id++ {
			typ, _ := factory(id)
			t := inst.store.Begin()
			if _, err = t.Do(id, readOp(typ)); err == nil {
				_, err = t.Commit()
			}
			if err != nil {
				inst.close()
				return 0, fmt.Errorf("priming object %d: %w", id, err)
			}
		}
		d := time.Since(start)
		inst.close()
		if best == 0 || d < best {
			best = d
		}
	}
	return best.Seconds(), nil
}

// readOp is a read-only operation of typ (every type of the workloads
// has one), used to touch an object without changing it.
func readOp(typ adt.Type) adt.Op {
	for _, sp := range typ.Specs() {
		if sp.ReadOnly {
			return sp.Invoke(1)
		}
	}
	return typ.Specs()[0].Invoke(1)
}
