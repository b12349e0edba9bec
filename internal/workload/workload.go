// Package workload implements the paper's two simulation data models
// (§5.5): the read/write model (pages, write.probability) and the
// abstract-data-type model (σ=4 operations per object with randomly
// generated compatibility tables parameterised by Pc and Pr), plus a
// "realistic" mix of the paper's concrete types for examples and extra
// benchmarks.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
)

// Step is one operation request of a transaction: which object, which
// operation.
type Step struct {
	Object core.ObjectID
	Op     adt.Op
}

// Generator produces transactions and describes the database they run
// against. Objects are numbered 1..DBSize; the paper draws each
// operation's object uniformly and independently.
type Generator interface {
	// Name identifies the workload in reports.
	Name() string
	// Size returns the database size in objects.
	Size() int
	// Factory returns the lazy object constructor handed to
	// core.Scheduler.SetFactory.
	Factory() func(core.ObjectID) (adt.Type, compat.Classifier)
	// NewTxn draws a transaction of the given length using r.
	NewTxn(r *rand.Rand, length int) []Step
}

// ReadWrite is the read/write model of §5.5.1: every object is a Page,
// every operation is a read or a write, and an operation is a write
// with probability WriteProb (the paper's write.probability, nominally
// 0.3).
type ReadWrite struct {
	DBSize    int
	WriteProb float64
}

// Name implements Generator.
func (w ReadWrite) Name() string { return fmt.Sprintf("read-write(p_w=%.2f)", w.WriteProb) }

// Size implements Generator.
func (w ReadWrite) Size() int { return w.DBSize }

// Factory implements Generator. All pages share the paper's Page
// tables (Tables I–II).
func (w ReadWrite) Factory() func(core.ObjectID) (adt.Type, compat.Classifier) {
	table := compat.PageTable()
	return func(core.ObjectID) (adt.Type, compat.Classifier) {
		return adt.Page{}, table
	}
}

// NewTxn implements Generator.
func (w ReadWrite) NewTxn(r *rand.Rand, length int) []Step {
	steps := make([]Step, length)
	for i := range steps {
		obj := core.ObjectID(1 + r.Intn(w.DBSize))
		if r.Float64() < w.WriteProb {
			steps[i] = Step{Object: obj, Op: adt.Op{Name: adt.PageWrite, Arg: r.Intn(1000), HasArg: true}}
		} else {
			steps[i] = Step{Object: obj, Op: adt.Op{Name: adt.PageRead}}
		}
	}
	return steps
}

// Abstract is the abstract-data-type model of §5.5.2: each object
// defines Sigma parameter-less operations whose conflict behaviour is a
// randomly generated merged compatibility table with Pc commutative and
// Pr recoverable entries. Each object's table is drawn deterministically
// from TableSeed so that runs are reproducible and both predicates see
// identical databases.
type Abstract struct {
	DBSize    int
	Sigma     int
	Pc, Pr    int
	TableSeed int64
}

// Name implements Generator.
func (w Abstract) Name() string {
	return fmt.Sprintf("abstract(sigma=%d,Pc=%d,Pr=%d)", w.Sigma, w.Pc, w.Pr)
}

// Size implements Generator.
func (w Abstract) Size() int { return w.DBSize }

// Factory implements Generator.
func (w Abstract) Factory() func(core.ObjectID) (adt.Type, compat.Classifier) {
	typ := adt.Abstract{Sigma: w.Sigma}
	return func(id core.ObjectID) (adt.Type, compat.Classifier) {
		r := rand.New(rand.NewSource(w.TableSeed + int64(id)))
		return typ, compat.MustGenerate(r, w.Sigma, w.Pc, w.Pr)
	}
}

// NewTxn implements Generator: "each operation is selected using a
// random variable distributed uniformly between 1 and 4" and the object
// uniformly over the database.
func (w Abstract) NewTxn(r *rand.Rand, length int) []Step {
	steps := make([]Step, length)
	for i := range steps {
		steps[i] = Step{
			Object: core.ObjectID(1 + r.Intn(w.DBSize)),
			Op:     adt.Op{Name: adt.AbstractOpName(r.Intn(w.Sigma))},
		}
	}
	return steps
}

// Sharded adapts a type-uniform workload (ReadWrite or Abstract, whose
// objects are interchangeable) to a multi-site database: each
// transaction picks a home site and draws its objects from that site's
// partition (id mod Sites), with each step escaping to the whole
// database with probability CrossProb. CrossProb 0 gives perfectly
// partitionable traffic (every transaction single-site); CrossProb 1
// recovers the inner workload's uniform draw. This is the access model
// for the §6 distributed runs and the shard-scaling benchmarks.
type Sharded struct {
	Inner Generator
	// Sites is the number of partitions (must match the cluster's
	// site count for single-site transactions to stay single-site).
	Sites int
	// CrossProb is the per-step probability of a cross-partition
	// access.
	CrossProb float64
	// Skew is the zipfian exponent s of per-partition key popularity
	// (math/rand.NewZipf). When > 1, each re-homed step draws its
	// object from a zipfian over the home partition's keys — rank 0,
	// the partition's lowest id, is the hot key — so multi-site
	// benchmarks cover hot-key contention, not just uniform routing.
	// Values <= 1 (including the zero value) keep the original uniform
	// re-homing and consume the RNG identically, preserving the
	// checked-in deterministic baselines.
	Skew float64
}

// Name implements Generator.
func (w Sharded) Name() string {
	if w.Skew > 1 {
		return fmt.Sprintf("sharded(%s,sites=%d,cross=%.2f,skew=%.2f)", w.Inner.Name(), w.Sites, w.CrossProb, w.Skew)
	}
	return fmt.Sprintf("sharded(%s,sites=%d,cross=%.2f)", w.Inner.Name(), w.Sites, w.CrossProb)
}

// Size implements Generator.
func (w Sharded) Size() int { return w.Inner.Size() }

// Factory implements Generator.
func (w Sharded) Factory() func(core.ObjectID) (adt.Type, compat.Classifier) {
	return w.Inner.Factory()
}

// NewTxn implements Generator: it draws the inner transaction, then
// re-homes each non-cross step's object onto the transaction's home
// partition (preserving the operation sequence). Degenerate
// configurations — fewer than two sites, or a database smaller than
// the site count (no full partition to re-home onto) — pass the inner
// draw through unchanged.
func (w Sharded) NewTxn(r *rand.Rand, length int) []Step {
	steps := w.Inner.NewTxn(r, length)
	if w.Sites <= 1 || w.Inner.Size() < w.Sites {
		return steps
	}
	home := r.Intn(w.Sites)
	size := w.Inner.Size()
	// The home partition is {id : id ≡ home (mod Sites), 1 <= id <= size};
	// its lowest member is the partition's rank-0 (hot) key under skew.
	base := home
	if base == 0 {
		base = w.Sites
	}
	var zipf *rand.Zipf
	if count := (size-base)/w.Sites + 1; w.Skew > 1 && count > 1 {
		zipf = rand.NewZipf(r, w.Skew, 1, uint64(count-1))
	}
	for i := range steps {
		if w.CrossProb > 0 && r.Float64() < w.CrossProb {
			continue // this step stays wherever the inner draw put it
		}
		if zipf != nil {
			steps[i].Object = core.ObjectID(base + w.Sites*int(zipf.Uint64()))
			continue
		}
		id := int(steps[i].Object)
		id = id - id%w.Sites + home
		if id < 1 {
			id += w.Sites
		}
		if id > size {
			id -= w.Sites
		}
		steps[i].Object = core.ObjectID(id)
	}
	return steps
}

// Pushes is the conservation workload for the fault-tolerance tests:
// every object is a stack and every operation a push, so after any
// run — crashes included — each object's committed depth must equal
// exactly the number of push steps of transactions whose commit
// promise was honoured (ChaosResult.CommittedSteps). Push/push pairs
// are recoverable, not commuting, so the workload exercises commit
// dependencies, holds and the decision log, not just the fast path.
type Pushes struct {
	DBSize int
}

// Name implements Generator.
func (w Pushes) Name() string { return "pushes(conservation)" }

// Size implements Generator.
func (w Pushes) Size() int { return w.DBSize }

// Factory implements Generator.
func (w Pushes) Factory() func(core.ObjectID) (adt.Type, compat.Classifier) {
	table := compat.StackTable()
	return func(core.ObjectID) (adt.Type, compat.Classifier) {
		return adt.Stack{}, table
	}
}

// NewTxn implements Generator.
func (w Pushes) NewTxn(r *rand.Rand, length int) []Step {
	steps := make([]Step, length)
	for i := range steps {
		steps[i] = Step{
			Object: core.ObjectID(1 + r.Intn(w.DBSize)),
			Op:     adt.Op{Name: adt.StackPush, Arg: r.Intn(1 << 20), HasArg: true},
		}
	}
	return steps
}

// Mix is a database of the paper's concrete types — stacks, sets and
// tables in equal proportion (object id mod 3) — with operations drawn
// uniformly from each type's repertoire and parameters from a small
// domain (ArgRange). It exercises the real compatibility tables,
// including their parameter-dependent entries.
type Mix struct {
	DBSize   int
	ArgRange int // parameters drawn from [1, ArgRange]
}

// Name implements Generator.
func (w Mix) Name() string { return "mix(stack/set/table)" }

// Size implements Generator.
func (w Mix) Size() int { return w.DBSize }

// mixTypes are Mix's object kinds by id mod 3, and mixSpecs each kind's
// operation repertoire, resolved once: NewTxn draws from these and
// never asks a type (or builds a table) per step.
var (
	mixTypes = [3]adt.Type{adt.Stack{}, adt.Set{}, adt.KTable{}}
	mixSpecs = [3][]adt.OpSpec{mixTypes[0].Specs(), mixTypes[1].Specs(), mixTypes[2].Specs()}
)

// Factory implements Generator. Objects of one kind share that kind's
// table.
func (w Mix) Factory() func(core.ObjectID) (adt.Type, compat.Classifier) {
	tables := [3]*compat.Table{compat.StackTable(), compat.SetTable(), compat.KTableTable()}
	return func(id core.ObjectID) (adt.Type, compat.Classifier) {
		return mixTypes[id%3], tables[id%3]
	}
}

// NewTxn implements Generator. Each step consumes the RNG in the order
// object, operation, arg, aux (TestDrawsArePinned).
func (w Mix) NewTxn(r *rand.Rand, length int) []Step {
	argRange := w.ArgRange
	if argRange <= 0 {
		argRange = 8
	}
	steps := make([]Step, length)
	for i := range steps {
		obj := core.ObjectID(1 + r.Intn(w.DBSize))
		specs := mixSpecs[obj%3]
		sp := specs[r.Intn(len(specs))]
		steps[i] = Step{Object: obj, Op: sp.Invoke(1+r.Intn(argRange), 1+r.Intn(argRange))}
	}
	return steps
}
