package main

import (
	"math"
	"math/bits"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it. sorted must be ascending and non-empty.
func percentile(sorted []int64, p float64) int64 {
	return sorted[nearestRank(len(sorted), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n
// samples, clamped to [1, n]. The small tolerance keeps p*n products
// that are whole numbers (99.9% of 1000) from rounding up a rank.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(1, min(rank, n))
}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank p-th percentile's position.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, p)
}

// tailCandidates are the percentiles the report's p99 rows may fall
// back through, highest first.
var tailCandidates = []float64{99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything (choosing-metrics §1).
const minBeyond = 10

// highestSupported returns the highest candidate percentile that has
// at least minBeyond of n samples beyond it, or 50 when none has.
func highestSupported(n int, candidates []float64) float64 {
	for _, p := range candidates {
		if samplesBeyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// quartiles returns the first, second and third quartile of values the
// way Python's statistics.quantiles(values, n=4) does (the exclusive
// method), so spreads printed here match the ones the acceptance
// driver computes. It needs at least two values; with fewer it returns
// the single value three times.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// median is the second quartile.
func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// spread is the inter-quartile distance as a share of the median — the
// run-to-run noise figure every bound is compared against.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// hist is a log-linear histogram of non-negative nanosecond values: 32
// sub-buckets per power of two, so a bucket is at most ~3% wide. The
// traced run feeds one per span name per client; they are merged when
// the window ends. Not safe for concurrent use.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
}

const (
	histSub     = 32 // sub-buckets per octave
	histSubBits = 5
	histBuckets = (64-histSubBits)*histSub + histSub
)

func histIndex(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1 // v>>e is in [32, 64)
	return e*histSub + int(v>>uint(e))
}

// histLow is the smallest value that lands in bucket i.
func histLow(i int) uint64 {
	if i < 2*histSub {
		return uint64(i)
	}
	e := i/histSub - 1
	return uint64(i-e*histSub) << uint(e)
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
	h.sum += uint64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile (0..1) in nanoseconds, interpolated
// linearly inside the bucket the rank falls in; 0 on an empty
// histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := float64(histLow(i)), float64(histLow(i+1))
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(histLow(histBuckets - 1))
}
