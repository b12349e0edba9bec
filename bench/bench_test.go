package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestSmoke is the -smoke mode: all four workloads, traced and
// untraced, every check, with windows too short to mean anything as
// numbers. A workload that breaks fails here, not in the next
// performance change.
func TestSmoke(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("the workloads are defined at GOMAXPROCS=2")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, w := range workloads {
		wr := runWorkload(w, smokeOptions(1))
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Fatalf("%s: correct=%v failed=%d attempted=%d: %s", w.name, wr.Correct, wr.Failed, wr.Attempted, wr.Error)
		}
		for _, d := range endToEnd {
			if v := wr.Metrics[d.name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.name, v)
			}
		}
		for _, d := range perLayer() {
			if _, ok := wr.Layers[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, d.name)
			}
		}
		if len(wr.Layers) != len(perLayer()) {
			t.Errorf("%s: %d per-layer values for %d catalogue entries", w.name, len(wr.Layers), len(perLayer()))
		}
		if wr.Layers["client.do_us_p50"] <= 0 || wr.Layers["proc.cpu_us_per_txn"] <= 0 {
			t.Errorf("%s: traced pass recorded nothing: %v", w.name, wr.Layers)
		}
		if w.name == "wire-push" && (wr.Layers["wire.frames_per_txn"] <= 0 || wr.Layers["wire.rtt_request_us_p50"] <= 0) {
			t.Errorf("wire-push: wire counters not read: %v", wr.Layers)
		}
		if w.name == "db-mix" && wr.Layers["dist.fast_commit_share"] != 0 {
			t.Errorf("db-mix bypasses dist but reports %v", wr.Layers["dist.fast_commit_share"])
		}

		raw, err := os.ReadFile(filepath.Join(outDir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			Workload string `json:"workload"`
			Spans    []struct {
				ID, Txn, Parent uint64
				Name            string
				Start, End      int64
			} `json:"spans"`
		}
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatalf("%s trace file: %v", w.name, err)
		}
		if tf.Workload != w.name || len(tf.Spans) == 0 {
			t.Errorf("%s trace file: workload %q, %d spans", w.name, tf.Workload, len(tf.Spans))
		}

		line := resultLine(wr, true)
		var got struct {
			Correct   bool
			Attempted uint64
			Failed    uint64
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatal(err)
		}
		if !got.Correct || got.Attempted == 0 || len(got.Metrics) != len(perLayer()) {
			t.Errorf("%s: result line %s", w.name, line)
		}
	}
}

// BENCHMARK.json is the contract the acceptance driver reads; the
// program's catalogue must say the same thing.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	bf, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, bf.Workloads[i].Name, w.name)
		}
		if why := bf.Workloads[i].Why; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bf.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, d := range endToEnd {
		e := bf.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %s/%s/%s in the program", i, e, d.name, d.unit, d.better)
		}
		// Calibration may only widen a stated bound, up to the cap.
		if e.Bound < d.bound || e.Bound > maxBound {
			t.Errorf("%s: bound %g outside [stated %g, %g]", e.Name, e.Bound, d.bound, maxBound)
		}
		sawSetup = sawSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !sawSetup {
		t.Error("setup_s (s, lower) is required")
	}
	defs := perLayer()
	if len(bf.PerLayer) != len(defs) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bf.PerLayer), len(defs))
	}
	seen := map[string]bool{}
	for i, d := range defs {
		e := bf.PerLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %s/%s/%s in the program", i, e, d.name, d.unit, d.better)
		}
		if seen[d.name] || d.moves == "" {
			t.Errorf("%s: duplicate name or no prediction", d.name)
		}
		seen[d.name] = true
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", bf.Paths, bf.RunSeconds)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 75, 130, 90, 120, 70, 110, 135}
	for _, c := range []struct {
		what           string
		parent, change []float64
		higher         bool
		want           string
	}{
		{"same", steady, steady, true, "within"},
		{"throughput up 20%", steady, scale(1.2), true, "better"},
		{"throughput down 20%", steady, scale(0.8), true, "worse"},
		{"latency down 20%", steady, scale(0.8), false, "better"},
		{"latency up 5%", steady, scale(1.05), false, "within"},
		{"latency up 20%", steady, scale(1.2), false, "worse"},
		{"parent noisier than the bound", noisy, scale(1.02), true, "unresolved"},
		{"noisy parent, every run beaten", noisy, scale(2), true, "better"},
		{"single runs, inside the bound", []float64{100}, []float64{105}, true, "within"},
		{"single runs, beyond the bound", []float64{100}, []float64{85}, true, "worse"},
	} {
		if got := verdict(c.parent, c.change, c.higher, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.what, got, c.want)
		}
	}
}

func TestSummariseDerivesBoundsAndChecksAA(t *testing.T) {
	mk := func(tps ...float64) *runSet {
		set := &runSet{}
		for i, v := range tps {
			run := setRun{Seed: int64(i)}
			for _, w := range workloads {
				run.Workloads = append(run.Workloads, &workloadResult{Workload: w.name, Correct: true, Metrics: map[string]float64{
					"commit_tps": v, "txn_p50_us": 10, "txn_p99_us": 100, "real_p50_us": 10, "real_p99_us": 100, "setup_s": 0.001,
				}})
			}
			set.Runs = append(set.Runs, run)
		}
		return set
	}
	var out bytes.Buffer
	steady := mk(100, 101, 99, 100, 101, 99, 100, 101, 99, 100)
	if !summarise(&out, steady) {
		t.Fatalf("steady runs failed calibration:\n%s", out.String())
	}
	for _, r := range steady.Calibration {
		if r.Metric == "commit_tps" && r.Bound != 0.15 {
			t.Errorf("steady commit_tps bound %g, want the stated 0.15", r.Bound)
		}
	}
	// Spread 7% on commit_tps: the bound becomes 3 x 7% = 21%.
	wide := mk(96.5, 103.5, 96.5, 103.5, 96.5, 103.5, 96.5, 103.5, 100, 100)
	summarise(&out, wide)
	for _, r := range wide.Calibration {
		if r.Metric == "commit_tps" && (r.Bound < 0.20 || r.Bound > 0.23) {
			t.Errorf("commit_tps spread %g gave bound %g", r.Spread, r.Bound)
		}
	}
	// The second half 40% slower than the first is not the same code.
	if summarise(&out, mk(100, 100, 100, 100, 100, 60, 60, 60, 60, 60)) {
		t.Error("A/A check passed halves 40% apart")
	}
}
