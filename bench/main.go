// Command bench is the client-observed-transaction benchmark: four
// closed-loop workloads driven through core.Store/core.Txn only, a
// per-layer price list, and a traced budget recorded from the
// benchmark's side of every call. See README.md for the glossary.
//
//	go run .                                   all four workloads, end-to-end metrics
//	go run . -workload wire-push -seed 7       one workload (the form BENCHMARK.json's command takes)
//	go run . -trace 1                          traced pass + price list: the per-layer metrics
//	go run . -layers                           the price list alone
//	go run . -smoke                            every workload and check with 0.5 s windows
//	go run . -calibrate 10                     spreads, A/A check, bounds
//	go run . -compare a.json b.json            parent/change table
//
// (from the repository root: go run -C bench . ...)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// warmup precedes every measured window, so lazy object creation and
// classifier compilation are paid before the clock starts.
const warmup = 2 * time.Second

// drainLimit bounds the wait for outstanding promises after a window.
const drainLimit = 60 * time.Second

// outDir receives the trace files and the stores' scratch files,
// relative to the working directory (bench/ under go run -C bench).
const outDir = "out"

// runOptions is how one workload run is shaped.
type runOptions struct {
	seed    int64
	window  time.Duration
	warmup  time.Duration
	trace   bool
	quick   bool // smoke run: a few set-ups, a shrunken price list
	verbose bool
}

// workloadResult is one workload's run: the contract's result line
// plus what a person reading the table wants beside it.
type workloadResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Error     string             `json:"error,omitempty"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Committed uint64             `json:"committed"`
	Pseudo    uint64             `json:"pseudo_commits"`
	Restarts  uint64             `json:"restarts"`
	Revoked   uint64             `json:"revoked_promises"`
	TailPct   float64            `json:"tail_percentile"`
	Metrics   map[string]float64 `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// machine is the shape the numbers were taken on, recorded as fields.
type machine struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func machineShape() machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     gitCommit(),
	}
}

// gitCommit names the commit the binary was built from: the build's
// VCS stamp when there is one, else the checkout's HEAD read from
// ../.git, else "unknown" (the acceptance driver's checkout is not a
// repository).
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	for _, root := range []string{"..", "."} {
		head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
		if err != nil {
			continue
		}
		ref := strings.TrimSpace(string(head))
		if !strings.HasPrefix(ref, "ref: ") {
			return ref
		}
		if b, err := os.ReadFile(filepath.Join(root, ".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
			return strings.TrimSpace(string(b))
		}
	}
	return "unknown"
}

// pass runs one window of w on a fresh store after a forced GC and
// applies the correctness gate. With counters it also reads every
// instrument block at the window's start and after the drain.
func pass(w workloadSpec, dir string, o runOptions, trace bool) (res *loadResult, from, to counters, err error) {
	runtime.GC()
	inst, err := w.open(w.gen, dir)
	if err != nil {
		return nil, from, to, err
	}
	defer inst.close()
	cfg := loadConfig{
		gen: w.gen, clients: w.clients, seed: o.seed,
		warmup: o.warmup, window: o.window, drain: drainLimit,
		trace: trace, countPushes: w.conserve,
	}
	if trace {
		cfg.atWindowStart = func() { from = readCounters(inst) }
	}
	res = runLoad(inst.store, cfg)
	if trace {
		to = readCounters(inst)
	}
	return res, from, to, gate(w, inst, res)
}

// gate is the correctness check after every window: every promise
// honoured, clusters quiescent, pushes conserved.
func gate(w workloadSpec, inst *instance, res *loadResult) error {
	if err := checkPromises(res); err != nil {
		return err
	}
	if inst.cluster != nil {
		if err := checkQuiescent(inst.cluster, 5*time.Second); err != nil {
			return err
		}
	}
	if w.conserve {
		return checkConservation(res.pushes, inst.depth)
	}
	return nil
}

// runWorkload performs one workload's whole run: the untraced window
// the end-to-end metrics come from, repeated set-ups for setup_s, and —
// with o.trace — the traced window and the price list the per-layer
// metrics come from. In a traced run each window takes half of
// o.window, so a run measures for o.window either way and the tracing
// overhead compares equal windows.
func runWorkload(w workloadSpec, o runOptions) *workloadResult {
	wr := &workloadResult{Workload: w.name, Seed: o.seed, Seconds: o.window.Seconds(), Metrics: map[string]float64{}}
	fail := func(err error) *workloadResult {
		wr.Correct = false
		wr.Error = err.Error()
		// A failed check taints every transaction of the run.
		wr.Failed = wr.Attempted
		if wr.Attempted == 0 {
			wr.Attempted, wr.Failed = 1, 1
		}
		return wr
	}
	dir, err := scratchDir()
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)

	if o.trace {
		o.window /= 2
	}
	res, _, _, err := pass(w, dir, o, false)
	if res != nil {
		wr.Attempted, wr.Failed, wr.Committed = res.attempted, res.failed, res.committed
		wr.Pseudo, wr.Restarts, wr.Revoked = res.pseudo, res.restarts, res.revoked
	}
	if err != nil {
		return fail(err)
	}
	if smallestSlice(&res.realLat) == 0 {
		return fail(fmt.Errorf("a fifth of the window passed without a single commit"))
	}
	wr.TailPct = highestSupported(smallestSlice(&res.txnLat), tailCandidates)
	wr.Metrics["commit_tps"] = res.commitTPS()
	wr.Metrics["txn_p50_us"] = slicePercentile(&res.txnLat, 50) / 1e3
	wr.Metrics["txn_p99_us"] = slicePercentile(&res.txnLat, wr.TailPct) / 1e3
	wr.Metrics["real_p50_us"] = slicePercentile(&res.realLat, 50) / 1e3
	wr.Metrics["real_p99_us"] = slicePercentile(&res.realLat, wr.TailPct) / 1e3

	if w.name == "db-mix" {
		if err := verifyDBMix(w, o.seed); err != nil {
			return fail(fmt.Errorf("verified pass: %w", err))
		}
	}

	// Set-up is timed after the window, on a process whose heap is
	// already grown: at process start the first set-ups pay the kernel
	// for fresh pages, which has nothing to do with the store.
	runtime.GC()
	budget, minN, scale := setupBudget, setupMin, 1
	if o.quick {
		budget, minN, scale = 0, 3, 200
	}
	wr.Metrics["setup_s"], err = measureSetup(w, dir, budget, minN, setupMax)
	if err != nil {
		return fail(fmt.Errorf("set-up: %w", err))
	}
	wr.Correct = true
	if !o.trace {
		return wr
	}

	traced, from, to, err := pass(w, dir, o, true)
	if err != nil {
		return fail(fmt.Errorf("traced pass: %w", err))
	}
	trees, err := checkTrees(traced.budget.kept)
	if err != nil {
		return fail(fmt.Errorf("span budget: %w", err))
	}
	tracePath := filepath.Join(outDir, "trace-"+w.name+".json")
	if err := writeTrace(tracePath, w.name, o.seed, traced.budget.kept); err != nil {
		return fail(err)
	}
	wr.Layers = layerMetrics(from, to, traced, res.commitTPS())
	prices, err := runPriceList(dir, scale)
	if err != nil {
		return fail(fmt.Errorf("price list: %w", err))
	}
	for k, v := range prices {
		wr.Layers[k] = v
	}
	if o.verbose {
		fmt.Printf("%s: traced %d transactions, %d span trees (1 in %d) written to %s; children + self time = duration on every tree\n",
			w.name, traced.attempted, trees, sampleOneIn, filepath.Join("bench", tracePath))
	}
	return wr
}

func printEndToEnd(wr *workloadResult) {
	for _, d := range endToEnd {
		name := d.name
		if strings.HasSuffix(name, "_p99_us") && wr.TailPct != 99 {
			name += fmt.Sprintf(" (p%g: too few samples for p99)", wr.TailPct)
		}
		fmt.Printf("%-15s %-13s %16.6g %-6s n=%d\n", wr.Workload, name, wr.Metrics[d.name], d.unit, wr.Committed)
	}
	share := 0.0
	if wr.Attempted > 0 {
		share = float64(wr.Failed) / float64(wr.Attempted)
	}
	fmt.Printf("%-15s %-13s %16.6g %-6s failed=%d attempted=%d (pseudo-commits %d, restarted attempts %d, revoked promises %d)\n",
		wr.Workload, "failed_share", share, "ratio", wr.Failed, wr.Attempted, wr.Pseudo, wr.Restarts, wr.Revoked)
	if !wr.Correct {
		fmt.Printf("%-15s INCORRECT: %s\n", wr.Workload, wr.Error)
	}
}

func printLayers(workload string, values map[string]float64, defs []metricDef) {
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			continue
		}
		fmt.Printf("%-15s %-32s %14.6g %-6s -> %s\n", workload, d.name, v, d.unit, d.moves)
	}
}

// resultLine is the contract's last line of standard output.
func resultLine(wr *workloadResult, trace bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv)
	defs, values := endToEnd, wr.Metrics
	if trace {
		defs, values = perLayer(), wr.Layers
	}
	for _, d := range defs {
		metrics[d.name] = mv{Value: values[d.name], Unit: d.unit}
	}
	attempted := wr.Attempted
	if attempted == 0 {
		attempted = 1
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{wr.Correct, attempted, wr.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (db-mix, cluster-part, cluster-convoy, wire-push); empty runs all four in order")
		seed         = flag.Int64("seed", 1, "seeds the load generator")
		seconds      = flag.Int("seconds", 20, "measured window per workload, after a 2 s warm-up")
		trace        = flag.Int("trace", 0, "1: traced pass + price list, reporting the per-layer metrics instead of the end-to-end ones")
		layers       = flag.Bool("layers", false, "print the per-layer price list and exit")
		smoke        = flag.Bool("smoke", false, "0.5 s windows, every workload, traced and untraced, every check")
		calibrate    = flag.Int("calibrate", 0, "run N full sets, print spreads, check A/A agreement, rewrite bounds")
		compare      = flag.Bool("compare", false, "compare two run files: -compare parent.json change.json")
		out          = flag.String("out", "", "also write the run set (machine shape + every run) to this JSON file")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare parent.json change.json")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err.Error())
		}
		return
	}

	// The machine shape is part of the benchmark's definition: two
	// threads of Go code for generator and store together.
	if runtime.NumCPU() < 2 {
		fatal(fmt.Sprintf("bench: needs at least 2 CPUs (nproc=%d): every workload is defined at GOMAXPROCS=2, where transactions really overlap", runtime.NumCPU()))
	}
	runtime.GOMAXPROCS(2)
	m := machineShape()
	mj, _ := json.Marshal(m)
	fmt.Printf("machine %s\n", mj)

	switch {
	case *layers:
		dir, err := scratchDir()
		if err != nil {
			fatal(err.Error())
		}
		prices, err := runPriceList(dir, 1)
		os.RemoveAll(dir)
		if err != nil {
			fatal(err.Error())
		}
		printLayers("price-list", prices, perLayer())
		return
	case *calibrate > 0:
		if err := runCalibrate(*calibrate, *seed, *seconds, m, *out); err != nil {
			fatal(err.Error())
		}
		return
	}

	o := runOptions{
		seed: *seed, window: time.Duration(*seconds) * time.Second, warmup: warmup,
		trace: *trace == 1, verbose: true,
	}
	if *smoke {
		o = smokeOptions(*seed)
		o.verbose = true
	}
	specs := workloads
	if *workloadName != "" {
		w, ok := lookupWorkload(*workloadName)
		if !ok {
			fatal(fmt.Sprintf("bench: unknown workload %q", *workloadName))
		}
		specs = []workloadSpec{w}
	}
	set := runSet{Machine: m, Seconds: *seconds}
	run := setRun{Seed: *seed}
	ok := true
	for _, w := range specs {
		wr := runWorkload(w, o)
		printEndToEnd(wr)
		if wr.Layers != nil {
			printLayers(w.name, wr.Layers, perLayer())
		}
		ok = ok && wr.Correct && wr.Failed == 0
		run.Workloads = append(run.Workloads, wr)
	}
	set.Runs = append(set.Runs, run)
	if *out != "" {
		if err := writeJSON(*out, set); err != nil {
			fatal(err.Error())
		}
	}
	if len(run.Workloads) == 1 {
		fmt.Println(resultLine(run.Workloads[0], o.trace))
	}
	if !ok {
		os.Exit(1)
	}
}

// smokeOptions shrinks a run to seconds: every workload, both passes,
// every check, but windows too short for the numbers to mean anything.
func smokeOptions(seed int64) runOptions {
	return runOptions{
		seed: seed, window: time.Second, warmup: 200 * time.Millisecond,
		trace: true, quick: true,
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(2)
}
