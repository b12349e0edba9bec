package main

import (
	"math"
	"testing"
)

func seq(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(1000) // 1..1000
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("single sample: got %d", got)
	}
}

func TestHighestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1_000_000, 99}, // the rows are named p99: never above it
		{1000, 99},      // exactly 10 beyond p99
		{999, 95},       // 9 beyond p99: fall back
		{200, 95},       // 10 beyond p95
		{199, 90},
		{40, 75},
		{39, 50}, // nothing has 10 beyond
		{0, 50},
	} {
		if got := highestSupported(c.n, tailCandidates); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g (beyond=%d)", c.n, got, c.want, samplesBeyond(c.n, got))
		}
	}
	if got := highestSupported(10000, []float64{99.9, 99}); got != 99.9 {
		t.Errorf("10 beyond p99.9 of 10000: got %g", got)
	}
}

// The expected values are statistics.quantiles(data, n=4) from Python
// 3.11, whose spread the acceptance driver computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", s)
	}
	if s := spread([]float64{5}); s != 0 {
		t.Errorf("spread of one value = %g, want 0", s)
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<40 + 12345, math.MaxUint64} {
		i := histIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of range", v, i)
		}
		if lo := histLow(i); lo > v {
			t.Errorf("value %d in bucket %d starting at %d", v, i, lo)
		}
		if i+1 < histBuckets {
			if hi := histLow(i + 1); hi <= v {
				t.Errorf("value %d in bucket %d ending at %d", v, i, hi)
			}
		}
	}
}

func TestHistQuantileWithinBucketWidth(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v * 10)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 1e6
		if got := h.quantile(q); math.Abs(got-want)/want > 0.04 {
			t.Errorf("quantile(%g) = %g, want %g within 4%%", q, got, want)
		}
	}
	var a, b hist
	a.add(100)
	b.add(300)
	a.merge(&b)
	if a.n != 2 || a.sum != 400 {
		t.Errorf("merge: n=%d sum=%d", a.n, a.sum)
	}
	var empty hist
	if empty.quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}
