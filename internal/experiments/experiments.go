// Package experiments defines one named, runnable experiment per figure
// of the paper's evaluation (Figures 4–18) plus the ablations listed in
// DESIGN.md. Each experiment produces the same series the paper plots;
// `sccsim -experiment` and the repository's figure benchmarks are thin
// wrappers around this package.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// RunOpts controls experiment scale. The zero value picks the defaults
// in DefaultOpts.
type RunOpts struct {
	// Completions per run after warm-up (paper: 50,000).
	Completions int
	// Warmup completions discarded before measuring.
	Warmup int
	// Runs averaged per point (paper: 10).
	Runs int
	// Seed is the base RNG seed; run i of a point uses Seed+i.
	Seed int64
	// DBSize is the database size in objects (paper: 1,000).
	DBSize int
	// Terminals is the number of terminals (paper: 200).
	Terminals int
}

// DefaultOpts returns laptop-scale defaults: the full grid regenerates
// in minutes while preserving the paper's shapes. Use PaperOpts for the
// paper's full scale.
func DefaultOpts() RunOpts {
	return RunOpts{Completions: 4000, Warmup: 400, Runs: 3, Seed: 1, DBSize: 1000, Terminals: 200}
}

// PaperOpts returns the paper's scale: 50,000 completions averaged over
// 10 runs per point.
func PaperOpts() RunOpts {
	return RunOpts{Completions: 50000, Warmup: 5000, Runs: 10, Seed: 1, DBSize: 1000, Terminals: 200}
}

func (o RunOpts) withDefaults() RunOpts {
	d := DefaultOpts()
	if o.Completions <= 0 {
		o.Completions = d.Completions
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	if o.Completions > 0 && o.Warmup == 0 {
		o.Warmup = o.Completions / 10
	}
	if o.Runs <= 0 {
		o.Runs = d.Runs
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.DBSize <= 0 {
		o.DBSize = d.DBSize
	}
	if o.Terminals <= 0 {
		o.Terminals = d.Terminals
	}
	return o
}

// Series is one curve of an experiment.
type Series struct {
	// Name labels the curve (e.g. "recoverability", "Pr=8").
	Name string
	// Configure adjusts the simulation config for this curve.
	Configure func(*sim.Config, RunOpts)
}

// Spec is a declarative experiment definition.
type Spec struct {
	// ID is the experiment's short name ("fig4", "ablation-pseudo").
	ID string
	// Title describes the experiment, paper-style.
	Title string
	// XLabel names the swept parameter.
	XLabel string
	// XValues is the sweep (usually multiprogramming levels).
	XValues []float64
	// Metrics lists the metric names reported per point.
	Metrics []string
	// Series lists the curves.
	Series []Series
	// Base builds the starting config for a given x.
	Base func(o RunOpts, x float64) sim.Config
	// PaperNote summarises what the paper reports for this figure,
	// for EXPERIMENTS.md cross-checking.
	PaperNote string
}

// Point is one x position of the result grid.
type Point struct {
	X float64
	// Values maps "<series>/<metric>" to the aggregated sample.
	Values map[string]metrics.Sample
}

// Result is a completed experiment.
type Result struct {
	Spec   *Spec
	Opts   RunOpts
	Points []Point
}

// rwBase returns the read/write-model base configuration.
func rwBase(resourceUnits int, unfair bool) func(RunOpts, float64) sim.Config {
	return func(o RunOpts, x float64) sim.Config {
		cfg := sim.Default(workload.ReadWrite{DBSize: o.DBSize, WriteProb: 0.3}, int(x), o.Seed)
		cfg.Terminals = o.Terminals
		cfg.Completions = o.Completions
		cfg.Warmup = o.Warmup
		cfg.ResourceUnits = resourceUnits
		cfg.Unfair = unfair
		return cfg
	}
}

// adtBase returns the abstract-data-type-model base configuration; Pr
// is set per series.
func adtBase(resourceUnits, pc int) func(RunOpts, float64) sim.Config {
	return func(o RunOpts, x float64) sim.Config {
		cfg := sim.Default(workload.Abstract{DBSize: o.DBSize, Sigma: 4, Pc: pc, Pr: 0, TableSeed: 7}, int(x), o.Seed)
		cfg.Terminals = o.Terminals
		cfg.Completions = o.Completions
		cfg.Warmup = o.Warmup
		cfg.ResourceUnits = resourceUnits
		return cfg
	}
}

var paperMPLs = []float64{10, 25, 50, 100, 150, 200}

// predicateSeries is the commutativity-vs-recoverability pair used by
// every read/write figure.
func predicateSeries() []Series {
	return []Series{
		{Name: "commutativity", Configure: func(c *sim.Config, _ RunOpts) { c.Predicate = core.PredCommutativity }},
		{Name: "recoverability", Configure: func(c *sim.Config, _ RunOpts) { c.Predicate = core.PredRecoverability }},
	}
}

// prSeries sets the Pr knob of the abstract model.
func prSeries(pc int, prs ...int) []Series {
	out := make([]Series, 0, len(prs))
	for _, pr := range prs {
		pr := pr
		out = append(out, Series{
			Name: fmt.Sprintf("Pr=%d", pr),
			Configure: func(c *sim.Config, o RunOpts) {
				c.Workload = workload.Abstract{DBSize: o.DBSize, Sigma: 4, Pc: pc, Pr: pr, TableSeed: 7}
			},
		})
	}
	return out
}

// specs is the experiment registry.
var specs = []*Spec{
	{
		ID: "fig4", Title: "Throughput (infinite resources), read/write model",
		XLabel: "mpl.level", XValues: paperMPLs,
		Metrics: []string{metrics.Throughput},
		Series:  predicateSeries(), Base: rwBase(0, false),
		PaperNote: "Peak at mpl=50; recoverability ≈67% above commutativity at the peak; both thrash beyond it.",
	},
	{
		ID: "fig5", Title: "Response time (infinite resources), read/write model",
		XLabel: "mpl.level", XValues: paperMPLs,
		Metrics: []string{metrics.ResponseTime},
		Series:  predicateSeries(), Base: rwBase(0, false),
		PaperNote: "Response time dips then climbs with mpl; commutativity above recoverability from mpl=50 on.",
	},
	{
		ID: "fig6", Title: "Conflict ratios (infinite resources), read/write model",
		XLabel: "mpl.level", XValues: paperMPLs,
		Metrics: []string{metrics.BlockingRatio, metrics.RestartRatio},
		Series:  predicateSeries(), Base: rwBase(0, false),
		PaperNote: "BR smaller with recoverability at every mpl; RR similar at low mpl, lower with recoverability when thrashing; RR < BR throughout.",
	},
	{
		ID: "fig7", Title: "Cycle check ratio and abort length (infinite resources), read/write model",
		XLabel: "mpl.level", XValues: paperMPLs,
		Metrics: []string{metrics.CycleCheckRatio, metrics.AbortLength},
		Series:  predicateSeries(), Base: rwBase(0, false),
		PaperNote: "CCR higher with recoverability (checks on recoverable executions too); abort length falls once thrashing begins.",
	},
	{
		// The unfair sweep stops at 150: at mpl = num.of.terminals
		// = 200 the commutativity baseline livelocks in our model —
		// incoming readers overtake blocked writers indefinitely
		// until every in-flight transaction is a starving writer.
		// That is precisely the starvation fair scheduling exists
		// to prevent (§5.2); see EXPERIMENTS.md.
		ID: "fig8", Title: "Throughput (infinite resources), read/write model, no fair scheduling",
		XLabel: "mpl.level", XValues: []float64{10, 25, 50, 100, 150},
		Metrics: []string{metrics.Throughput},
		Series:  predicateSeries(), Base: rwBase(0, true),
		PaperNote: "Peak throughput higher than Fig. 4 for both predicates (non-conflicting ops jump the queue).",
	},
	{
		ID: "fig9", Title: "Conflict ratios (infinite resources), read/write model, no fair scheduling",
		XLabel: "mpl.level", XValues: []float64{10, 25, 50, 100, 150},
		Metrics: []string{metrics.BlockingRatio, metrics.RestartRatio},
		Series:  predicateSeries(), Base: rwBase(0, true),
		PaperNote: "BR and RR lower than under fair scheduling (Fig. 6).",
	},
	{
		ID: "fig10", Title: "Throughput (5 resource units), read/write model",
		XLabel: "mpl.level", XValues: paperMPLs,
		Metrics: []string{metrics.Throughput},
		Series:  predicateSeries(), Base: rwBase(5, false),
		PaperNote: "Peak below the infinite-resource peak; recoverability ≈15% ahead at mpl=50; commutativity thrashes earlier (mpl=25).",
	},
	{
		ID: "fig11", Title: "Throughput (1 resource unit), read/write model",
		XLabel: "mpl.level", XValues: paperMPLs,
		Metrics: []string{metrics.Throughput},
		Series:  predicateSeries(), Base: rwBase(1, false),
		PaperNote: "Very low absolute throughput; thrashing from mpl=25; recoverability's edge grows with mpl but peak improvement is slight.",
	},
	{
		ID: "fig12", Title: "Conflict ratios (5 resource units), read/write model",
		XLabel: "mpl.level", XValues: paperMPLs,
		Metrics: []string{metrics.BlockingRatio, metrics.RestartRatio},
		Series:  predicateSeries(), Base: rwBase(5, false),
		PaperNote: "BR smaller with recoverability, gap widens with mpl; RR near-equal except at mpl=200.",
	},
	{
		ID: "fig13", Title: "Cycle check ratio and abort length (5 resource units), read/write model",
		XLabel: "mpl.level", XValues: paperMPLs,
		Metrics: []string{metrics.CycleCheckRatio, metrics.AbortLength},
		Series:  predicateSeries(), Base: rwBase(5, false),
		PaperNote: "CCR higher with recoverability; abort length decreasing once thrashing sets in.",
	},
	{
		ID: "fig14", Title: "Throughput (infinite resources), abstract data type model, Pc=4",
		XLabel: "mpl.level", XValues: paperMPLs,
		Metrics: []string{metrics.Throughput},
		Series:  prSeries(4, 0, 4, 8), Base: adtBase(0, 4),
		PaperNote: "Pr=4 ≈15% over Pr=0 at mpl=25; Pr=8 more than double Pr=0 at mpl=50; thrashing later for Pr=8 (mpl=50 vs 25).",
	},
	{
		ID: "fig15", Title: "Throughput (infinite resources), abstract data type model, Pc=2",
		XLabel: "mpl.level", XValues: paperMPLs,
		Metrics: []string{metrics.Throughput},
		Series:  prSeries(2, 0, 4, 8), Base: adtBase(0, 2),
		PaperNote: "Pc=2, Pr=8 approximates a stack; peak throughput for Pr=8 about double Pr=0.",
	},
	{
		ID: "fig16", Title: "Conflict ratios (infinite resources), abstract data type model, Pc=4",
		XLabel: "mpl.level", XValues: paperMPLs,
		Metrics: []string{metrics.BlockingRatio, metrics.RestartRatio},
		Series:  prSeries(4, 0, 4, 8), Base: adtBase(0, 4),
		PaperNote: "BR rises with mpl; higher Pr lowers BR and flattens its slope; RR ≈ equal until thrashing, then lower for higher Pr.",
	},
	{
		ID: "fig17", Title: "Throughput (5 resource units), abstract data type model, Pc=4",
		XLabel: "mpl.level", XValues: paperMPLs,
		Metrics: []string{metrics.Throughput},
		Series:  prSeries(4, 0, 4, 8), Base: adtBase(5, 4),
		PaperNote: "Pr=4 ≈6% over Pr=0 at mpl=25; Pr=8 ≈35% over Pr=0 at mpl=50; maxima below the infinite-resource case.",
	},
	{
		ID: "fig18", Title: "Throughput (1 resource unit), abstract data type model, Pc=4",
		XLabel: "mpl.level", XValues: paperMPLs,
		Metrics: []string{metrics.Throughput},
		Series:  prSeries(4, 0, 4, 8), Base: adtBase(1, 4),
		PaperNote: "Overall throughput very low; drop from mpl=25; recoverability's relative gain appears only deep in thrashing.",
	},
	{
		ID: "ablation-pseudo", Title: "Ablation A: pseudo-commit contribution (read/write model, infinite resources)",
		XLabel: "mpl.level", XValues: []float64{10, 25, 50, 100},
		Metrics: []string{metrics.Throughput, metrics.ResponseTime},
		Series: []Series{
			{Name: "recoverability", Configure: func(c *sim.Config, _ RunOpts) {}},
			{Name: "no-pseudo-commit", Configure: func(c *sim.Config, _ RunOpts) { c.DisablePseudoCommit = true }},
			{Name: "commutativity", Configure: func(c *sim.Config, _ RunOpts) { c.Predicate = core.PredCommutativity }},
		},
		Base:      rwBase(0, false),
		PaperNote: "Not in the paper: separates the early-completion benefit of pseudo-commit (§4.3) from the reduced-blocking benefit of recoverable execution.",
	},
	{
		ID: "ablation-fakerestart", Title: "Ablation B: fake restarts vs same-sequence restarts (read/write model)",
		XLabel: "mpl.level", XValues: []float64{50, 100, 200},
		Metrics: []string{metrics.Throughput, metrics.RestartRatio},
		Series: []Series{
			{Name: "same-sequence", Configure: func(c *sim.Config, _ RunOpts) {}},
			{Name: "fake-restarts", Configure: func(c *sim.Config, _ RunOpts) { c.FakeRestarts = true }},
		},
		Base:      rwBase(0, false),
		PaperNote: "The paper mentions fake restarts as an unused alternative (§5.1); this quantifies the difference.",
	},
	{
		ID: "ablation-writeprob", Title: "Ablation D: write-probability sweep (read/write model, mpl=50)",
		XLabel: "write.probability (%)", XValues: []float64{10, 30, 50, 70, 90},
		Metrics: []string{metrics.Throughput, metrics.BlockingRatio},
		Series:  predicateSeries(),
		Base: func(o RunOpts, x float64) sim.Config {
			cfg := sim.Default(workload.ReadWrite{DBSize: o.DBSize, WriteProb: x / 100}, 50, o.Seed)
			cfg.Terminals = o.Terminals
			cfg.Completions = o.Completions
			cfg.Warmup = o.Warmup
			return cfg
		},
		PaperNote: "Not in the paper: recoverability's advantage grows with the write fraction (writes are the recoverable operations of the RW model).",
	},
}

// IDs lists every registered experiment id in order.
func IDs() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.ID
	}
	return out
}

// Lookup finds a spec by id.
func Lookup(id string) (*Spec, error) {
	for _, s := range specs {
		if s.ID == id {
			return s, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
}

// Run executes the experiment at the given scale.
func Run(id string, opts RunOpts) (*Result, error) {
	spec, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	return spec.Run(opts)
}

// Run executes the spec.
func (spec *Spec) Run(opts RunOpts) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{Spec: spec, Opts: opts}
	for _, x := range spec.XValues {
		pt := Point{X: x, Values: make(map[string]metrics.Sample)}
		for _, ser := range spec.Series {
			cfg := spec.Base(opts, x)
			ser.Configure(&cfg, opts)
			runs, err := sim.SimulateRuns(cfg, opts.Runs)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s %s=%v series %q: %w", spec.ID, spec.XLabel, x, ser.Name, err)
			}
			for _, m := range spec.Metrics {
				sample, err := metrics.AggregateRuns(runs, m)
				if err != nil {
					return nil, err
				}
				pt.Values[ser.Name+"/"+m] = sample
			}
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Columns returns the result's column keys ("series/metric") in a
// stable, readable order: metric-major, series in spec order.
func (r *Result) Columns() []string {
	var cols []string
	for _, m := range r.Spec.Metrics {
		for _, s := range r.Spec.Series {
			cols = append(cols, s.Name+"/"+m)
		}
	}
	return cols
}

// Table renders the result as an aligned text table.
func (r *Result) Table() string {
	cols := r.Columns()
	header := append([]string{r.Spec.XLabel}, cols...)
	rows := [][]string{header}
	for _, pt := range r.Points {
		row := []string{fmt.Sprintf("%g", pt.X)}
		for _, c := range cols {
			s := pt.Values[c]
			row = append(row, fmt.Sprintf("%.3f ±%.3f", s.Mean, s.CI90))
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(r.Spec.ID), r.Spec.Title)
	fmt.Fprintf(&b, "(completions=%d runs=%d db=%d terminals=%d)\n",
		r.Opts.Completions, r.Opts.Runs, r.Opts.DBSize, r.Opts.Terminals)
	for ri, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			b.WriteString(strings.Repeat("-", sum(widths)+2*len(widths)))
			b.WriteByte('\n')
		}
	}
	if r.Spec.PaperNote != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.Spec.PaperNote)
	}
	return b.String()
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// Peak returns the x value and sample with the highest mean for one
// column (used to compare peak throughputs against the paper).
func (r *Result) Peak(column string) (x float64, best metrics.Sample) {
	for _, pt := range r.Points {
		if s, ok := pt.Values[column]; ok && s.Mean > best.Mean {
			best, x = s, pt.X
		}
	}
	return x, best
}

// Sorted returns point x values (ascending) — a convenience for tests.
func (r *Result) Sorted() []float64 {
	xs := make([]float64, len(r.Points))
	for i, p := range r.Points {
		xs[i] = p.X
	}
	sort.Float64s(xs)
	return xs
}
