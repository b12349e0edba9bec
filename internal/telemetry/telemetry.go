// Package telemetry is the repo's low-overhead instrumentation layer:
// nil-safe atomic counters and gauges, lock-free sharded histograms
// with power-of-two buckets, and the process's span plane — one
// SpanBuffer that mints each transaction's trace context from its
// seeded sampler and is the one event ring every commit-conversation
// step is recorded into (span.go), which the flight recorder dumps
// (flight.go). A process builds its span plane once and hands that one
// value to every layer that records or serves spans. The package
// imports nothing from the rest of the repo so every layer — core,
// depgraph, dist, wire — can depend on it without cycles.
//
// The overhead contract, pinned by alloc_test.go: Counter.Inc,
// Gauge.Set, Histogram.Observe and SpanBuffer.Context/Record/RecordSite
// are allocation-free, and every method is nil-safe (a nil receiver is a
// no-op), so instrumented hot paths cost one branch when telemetry is
// off.
package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// Counter is a monotonically increasing atomic counter. The zero
// value is ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current count (0 for nil).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed level (held-set size, pipeline
// depth). The zero value is ready; a nil *Gauge is a no-op.
type Gauge struct {
	v    atomic.Int64
	high atomic.Int64
}

// Set stores the current level and folds it into the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		h := g.high.Load()
		if v <= h || g.high.CompareAndSwap(h, v) {
			return
		}
	}
}

// Load returns the current level (0 for nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// High returns the high-water mark since creation (0 for nil).
func (g *Gauge) High() int64 {
	if g == nil {
		return 0
	}
	return g.high.Load()
}

// Histogram buckets and sharding. Values land in power-of-two buckets
// — bucket i counts observations v with 2^(i-1) <= v < 2^i (bucket 0
// counts v == 0) — so 48 buckets cover the full useful range of
// nanosecond latencies (2^47 ns ≈ 1.6 days) and of any count we
// track. Observers are spread over a small fixed set of shards to
// keep concurrent Observe calls off a shared cache line; Snapshot
// sums the shards.
const (
	numBuckets = 48
	numShards  = 8
)

type histShard struct {
	counts [numBuckets]atomic.Uint64
	sum    atomic.Uint64
	_      [48]byte // pad to keep shards on separate cache lines
}

// Histogram is a lock-free sharded histogram with power-of-two
// buckets. The zero value is ready to embed; a nil *Histogram is a
// no-op.
type Histogram struct {
	shards [numShards]histShard
}

// bucketOf maps a value to its power-of-two bucket index: the
// position of the highest set bit plus one, capped at the last
// bucket (so bucket 0 holds only v == 0).
func bucketOf(v uint64) int {
	b := bits.Len64(v)
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// Observe records one value. Shard choice keys off the observer's
// stack address, which is stable per goroutine and free to compute —
// no per-goroutine state, no hashing.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	var pin byte
	s := &h.shards[(uintptr(unsafe.Pointer(&pin))>>10)&(numShards-1)]
	s.counts[bucketOf(v)].Add(1)
	s.sum.Add(v)
}

// HistSnapshot is a merged, consistent-enough view of a histogram
// (each shard read atomically; cross-shard skew is bounded by
// in-flight Observe calls).
type HistSnapshot struct {
	Counts [numBuckets]uint64
	Sum    uint64
	Count  uint64
}

// Snapshot merges the shards.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.counts {
			n := sh.counts[b].Load()
			s.Counts[b] += n
			s.Count += n
		}
		s.Sum += sh.sum.Load()
	}
	return s
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.Snapshot().Count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.Snapshot().Sum }

// BucketUpperBound returns the exclusive upper bound of bucket i
// (inclusive for rendering as a Prometheus `le` bound): 0 for bucket
// 0, 2^i - 1 thereafter, +Inf for the last bucket.
func BucketUpperBound(i int) float64 {
	if i <= 0 {
		return 0
	}
	if i >= numBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1)<<uint(i)) - 1
}

// Quantile returns an upper-bound estimate of the q-quantile (q in
// [0,1]): the upper bound of the bucket holding the nearest-rank
// observation, the ⌈q·n⌉-th smallest. Returns 0 on an empty
// histogram.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := min(max(math.Ceil(q*float64(s.Count)), 1), float64(s.Count))
	var seen uint64
	for i, n := range s.Counts {
		seen += n
		if float64(seen) >= rank {
			return BucketUpperBound(i)
		}
	}
	return BucketUpperBound(numBuckets - 1)
}

// Mean returns the arithmetic mean of the observations (0 if empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
