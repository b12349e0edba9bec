// Package repro is a faithful Go implementation of Badrinath &
// Ramamritham, "Semantics-Based Concurrency Control: Beyond
// Commutativity" (ICDE 1987 / ACM TODS 17(1), 1992): a concurrency
// controller for atomic data types that exploits *recoverability* — a
// conflict predicate weaker than commutativity that still avoids
// cascading aborts — plus the paper's full simulation study.
//
// The package re-exports the library's public surface; implementations
// live under internal/ (see DESIGN.md for the system inventory).
//
// Quick start — transactions are written once against the Store/Txn
// interfaces and run unchanged on a single-scheduler DB or a sharded /
// distributed cluster (NewCluster); Store.Run restarts the function on
// retryable aborts (deadlock, commit-dependency cycle) with backoff:
//
//	db := repro.NewDB(repro.Options{})
//	db.Register(1, repro.Stack{}, repro.StackTable())
//	err := db.Run(ctx, func(t repro.Txn) error {
//	    _, err := t.Do(1, repro.Push(4)) // recoverable: runs immediately
//	    return err                       // nil -> Run commits (pseudo counts)
//	})
//
// Abort outcomes are typed: errors.Is(err, repro.ErrTxnAborted)
// matches every abort, ErrDeadlock / ErrConflictCycle the specific
// reasons, and errors.As(err, *(**repro.ErrAborted)) exposes the victim
// and reason. Blocking calls have context-aware variants (Txn.DoCtx
// withdraws a parked request on cancellation; Txn.Done reports the
// real commit of a pseudo-committed transaction).
package repro

import (
	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ---- Concurrency controller (internal/core, internal/dist) ----

// Core protocol types.
type (
	// Store is the transactional client API; DB and the cluster
	// returned by NewCluster both implement it.
	Store = core.Store
	// Txn is one transaction's session on a Store.
	Txn = core.Txn
	// ErrAborted is the typed abort outcome (errors.As target).
	ErrAborted = core.ErrAborted
	// DB is the single-scheduler, goroutine-friendly Store.
	DB = core.DB
	// Handle is one transaction's session on a DB (the concrete Txn).
	Handle = core.Handle
	// Scheduler is the deterministic event-style controller beneath DB.
	Scheduler = core.Scheduler
	// Participant is the per-site scheduler abstraction: what a
	// distributed coordinator (internal/dist, §6 of the paper) needs
	// from a local scheduler. Scheduler implements it.
	Participant = core.Participant
	// Options configures the protocol (predicate, recovery strategy,
	// fairness, debugging).
	Options = core.Options
	// TxnID identifies a transaction.
	TxnID = core.TxnID
	// ObjectID identifies a database object.
	ObjectID = core.ObjectID
	// Decision is the immediate outcome of a Scheduler request.
	Decision = core.Decision
	// Effects reports downstream consequences of a scheduler call.
	Effects = core.Effects
	// Stats are cumulative protocol counters.
	Stats = core.Stats
	// CommitStatus distinguishes real commits from pseudo-commits.
	CommitStatus = core.CommitStatus
	// Predicate selects recoverability or the commutativity baseline.
	Predicate = core.Predicate
	// Recovery selects the §4.4 recovery strategy.
	Recovery = core.Recovery
)

// Protocol constants and constructors.
var (
	// NewDB builds the single-scheduler blocking Store.
	NewDB = core.NewDB
	// NewScheduler builds the raw controller.
	NewScheduler = core.NewScheduler
	// RunStore is the retry loop behind Store.Run, usable with any
	// Store implementation.
	RunStore = core.RunStore
	// ErrTxnAborted matches every abort outcome under errors.Is.
	ErrTxnAborted = core.ErrTxnAborted
	// ErrDeadlock matches aborts caused by a wait-for cycle.
	ErrDeadlock = core.ErrDeadlock
	// ErrConflictCycle matches aborts caused by a commit-dependency
	// cycle.
	ErrConflictCycle = core.ErrConflictCycle
	// ErrSiteFailed matches aborts caused by a participant site crash
	// (clusters only; retryable).
	ErrSiteFailed = core.ErrSiteFailed
	// ErrClosed is returned by operations on a closed Store.
	ErrClosed = core.ErrClosed
	// ErrTxnDone is returned for operations on an already-committed
	// transaction.
	ErrTxnDone = core.ErrTxnDone
	// ErrUnknownObject is returned by operations on an object id that
	// was never registered (and that no factory constructs).
	ErrUnknownObject = core.ErrUnknownObject
)

// FaultStore is a Store whose participant sites live under the
// crash-stop fault model: sites can be crashed (dropping all volatile
// scheduler state) and restarted (recovering held commits against the
// coordinator's presumed-abort decision log). Transactions that lose a
// participant abort with ErrSiteFailed — retryable, like deadlocks.
type FaultStore interface {
	Store
	// NumSites returns the number of participant sites.
	NumSites() int
	// CrashSite fails one site: parked requests are woken with the
	// failure verdict, in-flight transactions that touched it abort
	// with ErrSiteFailed, unlogged held commits are presumed aborted.
	CrashSite(site int) error
	// RestartSite recovers the site: committed state is rebuilt from
	// its durable image and prepared transactions with a logged commit
	// are redone; the rest are presumed aborted.
	RestartSite(site int) error
}

// NewCluster builds the §6 distributed / sharded Store: n sites, each
// with an independent scheduler, objects partitioned by id modulo n,
// cross-site dependencies mirrored at a commit coordinator. Sites are
// crash-stop (internal/fault): each can be crashed and restarted, and
// the coordinator runs a presumed-abort decision log. See DESIGN.md,
// "Failure model". The full distributed API (routers, hold policies,
// the span plane, per-site inspection) lives in internal/dist; this
// constructor covers the common case through the same Store interface
// DB implements.
func NewCluster(n int, opts Options) (FaultStore, error) {
	c, err := dist.New(n, opts, nil)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Predicate, recovery and status values.
const (
	PredRecoverability = core.PredRecoverability
	PredCommutativity  = core.PredCommutativity
	RecoveryIntentions = core.RecoveryIntentions
	RecoveryUndo       = core.RecoveryUndo
	Committed          = core.Committed
	PseudoCommitted    = core.PseudoCommitted
)

// ---- Atomic data types (internal/adt) ----

// Data type and operation types.
type (
	// Op is an operation invocation.
	Op = adt.Op
	// Ret is an operation's return value.
	Ret = adt.Ret
	// Type is an atomic data type (state space + operations).
	Type = adt.Type
	// State is an object state.
	State = adt.State
	// Page is the read/write object of §3.2.1.
	Page = adt.Page
	// Stack is the push/pop/top object of §3.2.2.
	Stack = adt.Stack
	// Set is the insert/delete/member object of §3.2.3.
	Set = adt.Set
	// KTable is the keyed table of §3.2.4.
	KTable = adt.KTable
	// PageState is a Page's concrete state (inspection).
	PageState = adt.PageState
	// StackState is a Stack's concrete state (inspection).
	StackState = adt.StackState
)

// Operation constructors for the built-in types.

// Push builds a stack push.
func Push(v int) Op { return Op{Name: adt.StackPush, Arg: v, HasArg: true} }

// Pop builds a stack pop.
func Pop() Op { return Op{Name: adt.StackPop} }

// Top builds a stack top.
func Top() Op { return Op{Name: adt.StackTop} }

// Read builds a page read.
func Read() Op { return Op{Name: adt.PageRead} }

// Write builds a page write.
func Write(v int) Op { return Op{Name: adt.PageWrite, Arg: v, HasArg: true} }

// Insert builds a set insert.
func Insert(v int) Op { return Op{Name: adt.SetInsert, Arg: v, HasArg: true} }

// Delete builds a set delete.
func Delete(v int) Op { return Op{Name: adt.SetDelete, Arg: v, HasArg: true} }

// Member builds a set membership test.
func Member(v int) Op { return Op{Name: adt.SetMember, Arg: v, HasArg: true} }

// TableInsert builds a table insert of (key, item).
func TableInsert(key, item int) Op {
	return Op{Name: adt.TableInsert, Arg: key, HasArg: true, Aux: item, HasAux: true}
}

// TableDelete builds a table delete of key.
func TableDelete(key int) Op { return Op{Name: adt.TableDelete, Arg: key, HasArg: true} }

// TableLookup builds a table lookup of key.
func TableLookup(key int) Op { return Op{Name: adt.TableLookup, Arg: key, HasArg: true} }

// TableSize builds a table size query.
func TableSize() Op { return Op{Name: adt.TableSize} }

// TableModify builds a table modify of (key, item).
func TableModify(key, item int) Op {
	return Op{Name: adt.TableModify, Arg: key, HasArg: true, Aux: item, HasAux: true}
}

// Return codes.
const (
	RetCodeOK       = adt.OK
	RetCodeFail     = adt.Fail
	RetCodeYes      = adt.Yes
	RetCodeNo       = adt.No
	RetCodeNull     = adt.Null
	RetCodeNotFound = adt.NotFound
	RetCodeValue    = adt.Value
	RetCodeCount    = adt.Count
)

// ---- Compatibility tables (internal/compat) ----

// Compatibility types.
type (
	// CompatTable is a commutativity + recoverability table.
	CompatTable = compat.Table
	// Classifier classifies operation pairs (commutes / recoverable /
	// conflict).
	Classifier = compat.Classifier
)

// Paper tables and derivation.
var (
	// PageTable returns the paper's Tables I–II.
	PageTable = compat.PageTable
	// StackTable returns the paper's Tables III–IV.
	StackTable = compat.StackTable
	// SetTable returns the paper's Tables V–VI.
	SetTable = compat.SetTable
	// KTableTable returns the paper's Tables VII–VIII.
	KTableTable = compat.KTableTable
	// DeriveTable recomputes a type's tables from Definitions 1–2.
	DeriveTable = compat.Derive
)

// ---- Simulation (internal/sim, internal/workload, internal/metrics) ----

// Simulation types.
type (
	// SimConfig parameterises the closed queuing model (Tables IX–X).
	SimConfig = sim.Config
	// RunMetrics are one run's measured metrics (§5.4).
	RunMetrics = metrics.Run
	// Sample is a multi-run aggregate (mean, stddev, 90% CI).
	Sample = metrics.Sample
	// WorkloadGenerator produces transactions and the database.
	WorkloadGenerator = workload.Generator
	// ReadWriteWorkload is the §5.5.1 read/write model.
	ReadWriteWorkload = workload.ReadWrite
	// AbstractWorkload is the §5.5.2 abstract-data-type model.
	AbstractWorkload = workload.Abstract
	// MixWorkload is a stack/set/table mix over the paper's real types.
	MixWorkload = workload.Mix
)

// Simulation entry points.
var (
	// DefaultSimConfig returns the paper's nominal parameters.
	DefaultSimConfig = sim.Default
	// Simulate runs one simulation.
	Simulate = sim.Simulate
	// SimulateRuns runs n seeds and returns per-run metrics.
	SimulateRuns = sim.SimulateRuns
	// AggregateRuns aggregates a metric across runs.
	AggregateRuns = metrics.AggregateRuns
)

// ---- Experiments (internal/experiments) ----

// Experiment types.
type (
	// Experiment is a declarative figure/ablation definition.
	Experiment = experiments.Spec
	// ExperimentOpts scales an experiment run.
	ExperimentOpts = experiments.RunOpts
	// ExperimentResult is a completed experiment.
	ExperimentResult = experiments.Result
)

// Experiment entry points.
var (
	// ExperimentIDs lists every figure and ablation.
	ExperimentIDs = experiments.IDs
	// RunExperiment executes one experiment by id ("fig4" … "fig18",
	// "ablation-…").
	RunExperiment = experiments.Run
	// LookupExperiment finds an experiment definition.
	LookupExperiment = experiments.Lookup
	// DefaultExperimentOpts is the laptop-scale default.
	DefaultExperimentOpts = experiments.DefaultOpts
	// PaperExperimentOpts is the paper's full scale (50,000
	// completions × 10 runs per point).
	PaperExperimentOpts = experiments.PaperOpts
	// TablesReport renders Tables I–VIII, paper vs derived.
	TablesReport = experiments.TablesReport
	// ParametersReport renders Tables IX–X.
	ParametersReport = experiments.ParametersReport
)
