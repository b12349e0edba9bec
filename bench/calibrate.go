package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// runSet is the file -out, -calibrate and -compare exchange: the
// machine shape and every run made, each run being one pass over the
// workloads with one seed.
type runSet struct {
	Machine machine  `json:"machine"`
	Seconds int      `json:"seconds"`
	Claim   *string  `json:"claim"` // always null: the benchmark's own runs claim no gain
	Runs    []setRun `json:"runs"`
	// Calibration is filled by -calibrate: per (workload, metric) the
	// quartiles and spread over Runs, and the bound derived from them.
	Calibration []calRow `json:"calibration,omitempty"`
	AA          []aaRow  `json:"a_a_check,omitempty"`
}

type setRun struct {
	Seed      int64             `json:"seed"`
	Workloads []*workloadResult `json:"workloads"`
}

type calRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Q1       float64 `json:"q1"`
	Median   float64 `json:"median"`
	Q3       float64 `json:"q3"`
	Spread   float64 `json:"spread"` // (q3-q1)/median
	Stated   float64 `json:"stated_bound"`
	Bound    float64 `json:"bound"` // min(0.25, max(stated, 3 x the widest spread of this metric on any workload))
}

type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first_half_median"`
	Second   float64 `json:"second_half_median"`
	Differ   float64 `json:"differ"` // |second-first|/first
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// values collects one (workload, end-to-end metric) across runs.
func values(runs []setRun, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		for _, wr := range r.Workloads {
			if wr.Workload == workload {
				if v, ok := wr.Metrics[metric]; ok {
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// maxBound is the widest bound BENCHMARK.json's contract allows.
const maxBound = 0.25

// benchmarkJSON is where -calibrate rewrites the bounds, relative to
// the working directory (bench/).
const benchmarkJSON = "../BENCHMARK.json"

// runCalibrate runs n full sets back to back (seeds seed, seed+1, ...),
// prints each metric's quartiles and spread, derives the bounds,
// checks that the two halves of the runs — the same code twice —
// agree within them, and writes everything to outPath (default
// calibration.json). It fails if any run is incorrect, the halves
// disagree, or a spread exceeds its bound.
func runCalibrate(n int, seed int64, seconds int, m machine, outPath string) error {
	if n < 2 {
		return fmt.Errorf("bench: -calibrate needs at least 2 sets")
	}
	if outPath == "" {
		outPath = "calibration.json"
	}
	set := &runSet{Machine: m, Seconds: seconds}
	o := runOptions{window: time.Duration(seconds) * time.Second, warmup: warmup}
	for i := 0; i < n; i++ {
		o.seed = seed + int64(i)
		run := setRun{Seed: o.seed}
		for _, w := range workloads {
			wr := runWorkload(w, o)
			if !wr.Correct || wr.Failed != 0 {
				return fmt.Errorf("bench: set %d, %s: incorrect (%s, failed=%d)", i, w.name, wr.Error, wr.Failed)
			}
			fmt.Printf("set %2d seed %-4d %-15s commit_tps %10.1f  txn_p50_us %9.2f  txn_p99_us %10.2f  real_p50_us %10.2f  real_p99_us %10.2f  setup_s %.3g\n",
				i, o.seed, w.name, wr.Metrics["commit_tps"], wr.Metrics["txn_p50_us"], wr.Metrics["txn_p99_us"],
				wr.Metrics["real_p50_us"], wr.Metrics["real_p99_us"], wr.Metrics["setup_s"])
			run.Workloads = append(run.Workloads, wr)
		}
		set.Runs = append(set.Runs, run)
		// Written after every set, so an interrupted calibration keeps
		// the runs it made.
		if err := writeJSON(outPath, set); err != nil {
			return err
		}
	}
	ok := summarise(os.Stdout, set)
	if err := writeJSON(outPath, set); err != nil {
		return err
	}
	if err := rewriteBounds(benchmarkJSON, set.Calibration); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("bench: calibration failed: see the rows marked NOT WITHIN / TOO WIDE above")
	}
	return nil
}

// summarise fills set.Calibration and set.AA from set.Runs and prints
// both tables. It reports whether every A/A pair agrees within its
// bound and every spread (setup_s aside) stays within its bound.
func summarise(w io.Writer, set *runSet) bool {
	set.Calibration, set.AA = nil, nil
	bounds := make(map[string]float64)
	for _, d := range endToEnd {
		widest := 0.0
		for _, wl := range workloads {
			if s := spread(values(set.Runs, wl.name, d.name)); s > widest {
				widest = s
			}
		}
		// Three times the widest spread, so that a spread stays below a
		// third of its bound; rounded up to a whole percent.
		b := math.Ceil(math.Max(d.bound, 3*widest)*100-1e-9) / 100
		bounds[d.name] = math.Min(maxBound, b)
	}
	ok := true
	fmt.Fprintf(w, "\n%-15s %-12s %14s %14s %14s %8s %7s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "stated", "bound")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			vals := values(set.Runs, wl.name, d.name)
			q1, med, q3 := quartiles(vals)
			row := calRow{Workload: wl.name, Metric: d.name, Unit: d.unit, Q1: q1, Median: med, Q3: q3,
				Spread: spread(vals), Stated: d.bound, Bound: bounds[d.name]}
			set.Calibration = append(set.Calibration, row)
			note := ""
			if d.name != "setup_s" && row.Spread > row.Bound {
				note, ok = "  TOO WIDE", false
			}
			fmt.Fprintf(w, "%-15s %-12s %14.6g %14.6g %14.6g %7.2f%% %6.0f%% %5.0f%%%s\n",
				wl.name, d.name, q1, med, q3, 100*row.Spread, 100*d.bound, 100*row.Bound, note)
		}
	}
	half := len(set.Runs) / 2
	first, second := set.Runs[:half], set.Runs[len(set.Runs)-half:]
	fmt.Fprintf(w, "\nA/A: medians of the first %d sets against the last %d, same code\n", half, half)
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b := median(values(first, wl.name, d.name)), median(values(second, wl.name, d.name))
			row := aaRow{Workload: wl.name, Metric: d.name, First: a, Second: b, Bound: bounds[d.name]}
			if a != 0 {
				row.Differ = math.Abs(b-a) / a
			}
			row.Within = row.Differ <= row.Bound
			set.AA = append(set.AA, row)
			note := "within"
			if !row.Within {
				note, ok = "NOT WITHIN", false
			}
			fmt.Fprintf(w, "%-15s %-12s %14.6g %14.6g  differ %6.2f%% of first, bound %3.0f%%  %s\n",
				wl.name, d.name, a, b, 100*row.Differ, 100*row.Bound, note)
		}
	}
	return ok
}

// benchmarkFile mirrors BENCHMARK.json's contract: exactly these keys,
// in this order.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// rewriteBounds writes the calibrated bounds into BENCHMARK.json,
// leaving everything else as it is. A missing file is not an error
// (the binary may be run outside the repository).
func rewriteBounds(path string, rows []calRow) error {
	bf, err := readBenchmarkFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for i := range bf.EndToEnd {
		for _, r := range rows {
			if r.Metric == bf.EndToEnd[i].Name {
				bf.EndToEnd[i].Bound = r.Bound
				break
			}
		}
	}
	return writeJSON(path, bf)
}

// compareFiles prints the parent/change table: one row per (workload,
// end-to-end metric) with both medians, the ratio with its base, the
// bound, and a verdict.
//
//	worse       the change's median is worse than the parent's by more than the bound
//	unresolved  the parent's own spread is wider than the bound, and not every run of
//	            the change beats every run of the parent
//	better      the medians are apart by more than the parent's inter-quartile distance
//	            and the change wins at least 9 of 10 pairs (run i against run i)
//	within      none of the above
//
// With a single run on a side there is no spread to judge by, so the
// bound stands in for it.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	load := func(path string) (*runSet, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var s runSet
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	parent, err := load(parentPath)
	if err != nil {
		return err
	}
	change, err := load(changePath)
	if err != nil {
		return err
	}
	bounds := make(map[string]float64)
	for _, d := range endToEnd {
		bounds[d.name] = d.bound
	}
	if bf, err := readBenchmarkFile(benchmarkJSON); err == nil {
		for _, e := range bf.EndToEnd {
			bounds[e.Name] = e.Bound
		}
	}
	fmt.Fprintf(w, "parent %s: %d runs, commit %s, go %s, GOMAXPROCS %d\n", parentPath, len(parent.Runs), parent.Machine.Commit, parent.Machine.GoVersion, parent.Machine.GoMaxProcs)
	fmt.Fprintf(w, "change %s: %d runs, commit %s, go %s, GOMAXPROCS %d\n", changePath, len(change.Runs), change.Machine.Commit, change.Machine.GoVersion, change.Machine.GoMaxProcs)
	fmt.Fprintf(w, "%-15s %-12s %14s %14s  %-24s %6s  %s\n", "workload", "metric", "parent", "change", "ratio", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b := values(parent.Runs, wl.name, d.name), values(change.Runs, wl.name, d.name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			fmt.Fprintf(w, "%-15s %-12s %14.6g %14.6g  %-24s %5.0f%%  %s\n", wl.name, d.name, ma, mb,
				fmt.Sprintf("%.3fx of parent %.4g", mb/ma, ma), 100*bounds[d.name], verdict(a, b, d.better == "higher", bounds[d.name]))
		}
	}
	return nil
}

func verdict(parent, change []float64, higherBetter bool, bound float64) string {
	better := func(c, p float64) bool {
		if higherBetter {
			return c > p
		}
		return c < p
	}
	q1, mp, q3 := quartiles(parent)
	mc := median(change)
	worseBy := (mc - mp) / mp
	if higherBetter {
		worseBy = -worseBy
	}
	if worseBy > bound {
		return "worse"
	}
	noise := bound
	if len(parent) >= 2 {
		noise = math.Abs(q3-q1) / mp
		allBetter := true
		for _, c := range change {
			for _, p := range parent {
				allBetter = allBetter && better(c, p)
			}
		}
		if noise > bound && !allBetter {
			return "unresolved"
		}
	}
	pairs, wins := min(len(parent), len(change)), 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if -worseBy > noise && 10*wins >= 9*pairs {
		return "better"
	}
	return "within"
}
