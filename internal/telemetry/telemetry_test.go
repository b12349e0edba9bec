package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestBucketBoundaries pins the power-of-two bucketing: bucket 0
// holds exactly v == 0, bucket i holds 2^(i-1) <= v < 2^i, and the
// top bucket absorbs everything beyond the range.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{1 << 20, 21},
		{(1 << 21) - 1, 21},
		{1 << 46, 47},
		{1 << 47, 47},        // capped
		{math.MaxUint64, 47}, // capped
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Boundary consistency with the rendered upper bounds: every value
	// must satisfy v <= BucketUpperBound(bucketOf(v)).
	for _, v := range []uint64{0, 1, 2, 3, 4, 100, 1023, 1024, 1 << 30} {
		ub := BucketUpperBound(bucketOf(v))
		if float64(v) > ub {
			t.Errorf("value %d above its bucket bound %g", v, ub)
		}
		if b := bucketOf(v); b > 0 {
			below := BucketUpperBound(b - 1)
			if float64(v) <= below {
				t.Errorf("value %d fits the previous bucket (bound %g)", v, below)
			}
		}
	}
	if !math.IsInf(BucketUpperBound(numBuckets-1), 1) {
		t.Errorf("top bucket bound must be +Inf")
	}
}

// TestHistogramSnapshot checks count/sum/quantile arithmetic across
// the shard merge.
func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	for i := uint64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if want := uint64(1000 * 1001 / 2); s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
	if q := s.Quantile(0.5); q < 500 || q > 1023 {
		t.Fatalf("p50 = %g, want within [500,1023] (power-of-two bound above the median)", q)
	}
	if q := s.Quantile(1.0); q < 1000 {
		t.Fatalf("p100 = %g, want >= 1000", q)
	}
	if m := s.Mean(); m != float64(s.Sum)/1000 {
		t.Fatalf("mean = %g", m)
	}
	// Nearest rank: the q-quantile is the ⌈q·n⌉-th smallest value, so
	// one outlier among a hundred is not the p99, nor one of two the
	// median.
	var tail Histogram
	for i := 0; i < 99; i++ {
		tail.Observe(1)
	}
	tail.Observe(1000)
	if q := tail.Snapshot().Quantile(0.99); q != 1 {
		t.Errorf("p99 of 99×1 and one 1000 = %g, want 1", q)
	}
	var pair Histogram
	pair.Observe(1)
	pair.Observe(1000)
	if q := pair.Snapshot().Quantile(0.5); q != 1 {
		t.Errorf("p50 of {1, 1000} = %g, want 1", q)
	}
}

// TestConcurrentExactness asserts counters, gauges and histograms
// lose no increments under concurrency — run under -race this also
// proves the paths are data-race-free.
func TestConcurrentExactness(t *testing.T) {
	const workers = 8
	const perWorker = 10000
	var c Counter
	var g Gauge
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(int64(w*perWorker + i))
				h.Observe(uint64(i % 100))
			}
		}(w)
	}
	wg.Wait()
	if c.Load() != workers*perWorker {
		t.Fatalf("counter = %d, want %d", c.Load(), workers*perWorker)
	}
	if s := h.Snapshot(); s.Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", s.Count, workers*perWorker)
	}
	if g.High() < perWorker-1 {
		t.Fatalf("gauge high-water = %d, want >= %d", g.High(), perWorker-1)
	}
}

// TestNilSafety: every instrument no-ops on a nil receiver — this is
// the "telemetry off" fast path.
func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var w *WireMetrics
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(9)
	if c.Load() != 0 || g.Load() != 0 || g.High() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if w.RTT(0x12) != nil {
		t.Fatal("nil wire metrics must hand out nil histograms")
	}
	w.RTT(0x12).Observe(1) // and those must still be safe to observe
}

// TestTracerWraparound pins the ring semantics of untraced site events
// (RecordSite), the ring's tracer role: they need no sampled context,
// once full the oldest are overwritten, Snapshot returns oldest-first
// with kind names filled in, and span ids keep counting across the wrap.
func TestTracerWraparound(t *testing.T) {
	tr := NewSpanBuffer(4, 0, 1)
	for i := 0; i < 10; i++ {
		tr.RecordSite(SpanHold, uint64(i), int32(i), int64(i))
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	evs := tr.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(evs))
	}
	for i, e := range evs {
		want := uint64(6 + i)
		if e.ID != want+1 || e.Txn != want || e.Site != int32(want) || e.Object != int64(want) {
			t.Fatalf("event %d = id %d txn %d site %d arg %d, want txn %d (oldest-first after wrap)",
				i, e.ID, e.Txn, e.Site, e.Object, want)
		}
		if e.Trace != 0 || e.KindS != "hold" {
			t.Fatalf("event %d = trace %d kind %q, want an untraced hold", i, e.Trace, e.KindS)
		}
	}
	// Before wrapping, a short ring returns exactly what was recorded.
	tr2 := NewSpanBuffer(8, 0, 1)
	tr2.RecordSite(SpanCrash, 0, 2, 0)
	tr2.RecordSite(SpanRestart, 0, 2, 5)
	evs = tr2.Snapshot()
	if len(evs) != 2 || evs[0].Kind != SpanCrash || evs[1].Kind != SpanRestart || evs[1].KindS != "restart" || evs[1].Object != 5 {
		t.Fatalf("pre-wrap snapshot = %+v", evs)
	}
	if evs[1].Start < evs[0].Start {
		t.Fatalf("timestamps must be monotonic: %d then %d", evs[0].Start, evs[1].Start)
	}
}

// TestPromRender sanity-checks the text exposition: headers once per
// family, cumulative buckets ending at +Inf, sum/count lines.
func TestPromRender(t *testing.T) {
	var h Histogram
	h.Observe(1)
	h.Observe(3)
	h.Observe(100)
	var sb strings.Builder
	p := &PromWriter{W: &sb}
	var c Counter
	c.Add(7)
	p.Counter("scc_commits_total", "commits", c.Load(), "")
	p.Counter("scc_commits_total", "commits", 1, `site="1"`)
	p.Histogram("scc_hold_nanos", "hold phase", h.Snapshot(), "")
	out := sb.String()
	if strings.Count(out, "# TYPE scc_commits_total counter") != 1 {
		t.Fatalf("counter header must appear exactly once:\n%s", out)
	}
	for _, want := range []string{
		"scc_commits_total 7",
		`scc_commits_total{site="1"} 1`,
		`scc_hold_nanos_bucket{le="+Inf"} 3`,
		"scc_hold_nanos_sum 104",
		"scc_hold_nanos_count 3",
		`scc_hold_nanos_bucket{le="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Cumulative: the le="127" bucket (holding 100) must count all 3.
	if !strings.Contains(out, `scc_hold_nanos_bucket{le="127"} 3`) {
		t.Fatalf("cumulative bucket wrong:\n%s", out)
	}
}

// TestGaugeHighWater pins Set's max-fold under regressing values.
func TestGaugeHighWater(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Set(2)
	if g.Load() != 2 || g.High() != 5 {
		t.Fatalf("load=%d high=%d, want 2/5", g.Load(), g.High())
	}
	g.Set(9)
	if g.High() != 9 {
		t.Fatalf("high=%d, want 9", g.High())
	}
}
