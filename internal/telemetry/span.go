package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"time"
)

// Causal tracing: per-transaction trace contexts, span records, and the
// per-process span buffer the debug plane exports.
//
// A TraceContext is minted once per transaction (deterministically, by
// the seeded SpanBuffer.Context — or by a remote client, in which case
// it arrives over the wire) and carried through every layer the
// transaction crosses: the coordinator's conversation, the wire frames,
// the site daemons. Every process records its own spans into its
// SpanBuffer; the shared trace id is what lets sccctl stitch the
// buffers back into one end-to-end timeline. The overhead contract
// matches the rest of the package: Context and Record are
// allocation-free and nil-safe, and an unsampled context short-circuits
// before taking the lock, so tracing disabled (or a transaction not
// sampled) costs one branch.

// TraceContext identifies a transaction's position in a distributed
// trace: the trace id (shared by every span of the transaction, across
// processes), the parent span id, and the sampling decision. The zero
// value is "no trace" — every consumer treats it as unsampled.
type TraceContext struct {
	Trace uint64
	Span  uint64
	Flags uint8
}

// TraceSampled is the Flags bit carrying the sampling decision.
const TraceSampled uint8 = 0x01

// Sampled reports whether spans should be recorded for this context.
func (tc TraceContext) Sampled() bool { return tc.Flags&TraceSampled != 0 }

// Valid reports whether the context carries a trace at all.
func (tc TraceContext) Valid() bool { return tc.Trace != 0 }

// SpanKind labels one step of a transaction's causal timeline, or —
// recorded through RecordSite, outside any trace — a site event.
type SpanKind uint8

const (
	SpanBegin         SpanKind = iota + 1 // transaction created, where its id was minted
	SpanRequest                           // an operation executed at a site
	SpanBlock                             // a request parked behind a conflict
	SpanGrant                             // a parked request resumed
	SpanHold                              // commit-hold (prepare) at a site
	SpanDecide                            // commit decision logged (Object: gdeps, Wave: wave)
	SpanRelease                           // real commit landed at a site
	SpanShed                              // hold policy refused the conversation (Object: depth, Wave: held)
	SpanAbort                             // transaction aborted
	SpanRedo                              // logged commit redone at restart
	SpanCrash                             // site crashed (RecordSite)
	SpanRestart                           // site recovered (RecordSite; Object: redone commits)
	SpanViolation                         // decision conservation broke (RecordSite; Object: excess)
	SpanRestartFailed                     // a site's recovery was refused; it stays down (RecordSite)
)

// String names the kind for JSON and the sccctl timeline.
func (k SpanKind) String() string {
	switch k {
	case SpanBegin:
		return "begin"
	case SpanRequest:
		return "request"
	case SpanBlock:
		return "block"
	case SpanGrant:
		return "grant"
	case SpanHold:
		return "hold"
	case SpanDecide:
		return "decide"
	case SpanRelease:
		return "release"
	case SpanShed:
		return "shed"
	case SpanAbort:
		return "abort"
	case SpanRedo:
		return "redo"
	case SpanCrash:
		return "crash"
	case SpanRestart:
		return "restart"
	case SpanViolation:
		return "violation"
	case SpanRestartFailed:
		return "restart-failed"
	}
	return "?"
}

// Span is one recorded step of a trace: identity (trace id, span id,
// parent; trace 0 for a RecordSite span), what happened (kind,
// transaction, site, object — or the kind's argument where no object
// is involved — and decide wave), and when (Wall: nanoseconds since
// the Unix epoch, for cross-process alignment; Start: monotonic
// nanoseconds since the buffer's epoch; Dur: the step's duration, 0
// for instant events).
type Span struct {
	Trace  uint64   `json:"trace"`
	ID     uint64   `json:"id"`
	Parent uint64   `json:"parent,omitempty"`
	Kind   SpanKind `json:"-"`
	KindS  string   `json:"kind"`
	Txn    uint64   `json:"txn"`
	Site   int32    `json:"site"`
	Object int64    `json:"object,omitempty"`
	Wave   int64    `json:"wave,omitempty"`
	Wall   int64    `json:"wall"`
	Start  int64    `json:"start"`
	Dur    int64    `json:"dur,omitempty"`
}

// mix64 is the splitmix64 finalizer: a cheap, high-quality bijective
// hash, used to derive trace ids (and the sampling decision)
// deterministically from a seed and a transaction id.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// TraceExemplar is one completed trace pinned by tail-based retention:
// its end-to-end latency landed in the buffer's top latency buckets, so
// its spans were copied out of the ring before wraparound could
// overwrite them.
type TraceExemplar struct {
	Trace   uint64 `json:"trace"`
	Txn     uint64 `json:"txn"`
	Latency int64  `json:"latency"`
	Bucket  int    `json:"bucket"`
	Spans   []Span `json:"spans"`
}

// exemplarCap is how many tail traces a span buffer pins.
const exemplarCap = 8

// SpanBuffer is a process's span plane: it mints trace contexts, records
// spans into a fixed ring (overwriting the oldest once full) and pins a
// small exemplar store for the latency tail. Record is allocation-free
// and nil-safe; an unsampled context is a no-op before the lock.
// Complete — called once per finished trace — runs the tail-based
// exemplar retention and may allocate.
type SpanBuffer struct {
	mu    sync.Mutex
	ring  []Span
	next  uint64 // total spans ever recorded
	epoch time.Time
	wall0 int64 // UnixNano at epoch

	// clock, when non-nil, replaces wall time entirely: it returns the
	// current time in nanoseconds, used for both Wall and Start. distsim
	// installs the virtual clock here, which is what makes simulated
	// spans deterministic.
	clock func() int64

	// The sampler: Context samples when mix(seed,txn)>>32 < threshold.
	// Immutable after construction, so Context takes no lock.
	seed      uint64
	rate      float64
	threshold uint64

	exCap     int
	exemplars []TraceExemplar
}

// NewSpanBuffer builds a span buffer with ring capacity size whose
// sampler has the given seed and rate; a rate outside (0,1] samples
// everything. size <= 0 disables: the returned buffer is nil, and every
// method on a nil buffer no-ops.
func NewSpanBuffer(size int, seed int64, rate float64) *SpanBuffer {
	if size <= 0 {
		return nil
	}
	if rate <= 0 || rate > 1 {
		rate = 1
	}
	now := time.Now()
	return &SpanBuffer{
		ring:      make([]Span, size),
		epoch:     now,
		wall0:     now.UnixNano(),
		seed:      uint64(seed),
		rate:      rate,
		threshold: uint64(rate * (1 << 32)),
		exCap:     exemplarCap,
	}
}

// Context mints the transaction's trace context deterministically: the
// same seed and transaction id always produce the same trace id and the
// same sampling decision, so two runs of a seeded workload sample the
// same transactions — and a coordinator can re-derive a transaction's
// context (after a restart, say) without having stored it.
// Allocation-free; a nil buffer returns the zero context.
func (b *SpanBuffer) Context(txn uint64) TraceContext {
	if b == nil {
		return TraceContext{}
	}
	id := mix64(b.seed ^ txn*0x9e3779b97f4a7c15)
	if id == 0 {
		id = 1
	}
	tc := TraceContext{Trace: id, Span: mix64(id)}
	if id>>32 < b.threshold {
		tc.Flags |= TraceSampled
	}
	return tc
}

// Sampling reports the sampler's seed and the rate it runs at (zeros
// for nil).
func (b *SpanBuffer) Sampling() (seed int64, rate float64) {
	if b == nil {
		return 0, 0
	}
	return int64(b.seed), b.rate
}

// SetClock installs a deterministic time source (nanoseconds): both the
// wall and monotonic stamps of subsequent spans come from it. For
// simulations driving spans from a virtual clock.
func (b *SpanBuffer) SetClock(fn func() int64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.clock = fn
	b.mu.Unlock()
}

// Record appends one span for a sampled context. Nil-safe and
// allocation-free; a nil buffer or an unsampled context is a no-op.
func (b *SpanBuffer) Record(tc TraceContext, kind SpanKind, txn uint64, site int32, object, wave, dur int64) {
	if b == nil || !tc.Sampled() {
		return
	}
	b.put(tc, kind, txn, site, object, wave, dur)
}

// RecordSite appends one span that belongs to no trace (Trace 0): a
// site's crash or restart, or the evidence of a violated invariant,
// with its argument in Object. These are rare and are what a
// post-mortem needs, so unlike Record they do not depend on sampling.
// Nil-safe and allocation-free.
func (b *SpanBuffer) RecordSite(kind SpanKind, txn uint64, site int32, arg int64) {
	if b == nil {
		return
	}
	b.put(TraceContext{}, kind, txn, site, arg, 0, 0)
}

// put stamps and stores one span in the ring.
func (b *SpanBuffer) put(tc TraceContext, kind SpanKind, txn uint64, site int32, object, wave, dur int64) {
	b.mu.Lock()
	var wall, start int64
	if b.clock != nil {
		start = b.clock()
		wall = start
	} else {
		start = int64(time.Since(b.epoch))
		wall = b.wall0 + start
	}
	s := &b.ring[b.next%uint64(len(b.ring))]
	s.Trace = tc.Trace
	s.ID = b.next + 1
	s.Parent = tc.Span
	s.Kind = kind
	s.KindS = ""
	s.Txn = txn
	s.Site = site
	s.Object = object
	s.Wave = wave
	s.Wall = wall
	s.Start = start
	s.Dur = dur
	b.next++
	b.mu.Unlock()
}

// Complete marks a sampled trace finished with the given end-to-end
// latency (nanoseconds) and runs tail-based exemplar retention: if the
// latency lands in the top latency buckets seen so far — concretely, if
// the exemplar store has room or the latency beats the slowest pinned
// trace — the trace's spans are copied out of the ring and pinned, so
// ring wraparound cannot lose the tail that matters.
func (b *SpanBuffer) Complete(tc TraceContext, txn uint64, latency int64) {
	if b == nil || !tc.Sampled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// Find the current minimum-latency exemplar (the eviction victim).
	minIdx, minLat := -1, int64(0)
	for i := range b.exemplars {
		if minIdx < 0 || b.exemplars[i].Latency < minLat {
			minIdx, minLat = i, b.exemplars[i].Latency
		}
	}
	if len(b.exemplars) >= b.exCap && latency <= minLat {
		return // not in the tail: the ring keeps (and may overwrite) it
	}
	spans := b.collectLocked(tc.Trace)
	if len(spans) == 0 {
		return
	}
	ex := TraceExemplar{
		Trace:   tc.Trace,
		Txn:     txn,
		Latency: latency,
		Bucket:  bucketOf(uint64(latency)),
		Spans:   spans,
	}
	// Re-completing the same trace (a retry under the same id) replaces
	// its pin rather than duplicating it.
	for i := range b.exemplars {
		if b.exemplars[i].Trace == tc.Trace {
			b.exemplars[i] = ex
			return
		}
	}
	if len(b.exemplars) < b.exCap {
		b.exemplars = append(b.exemplars, ex)
		return
	}
	b.exemplars[minIdx] = ex
}

// collectLocked copies the retained spans of one trace, oldest-first.
// Caller holds b.mu.
func (b *SpanBuffer) collectLocked(trace uint64) []Span {
	n := uint64(len(b.ring))
	start, count := uint64(0), b.next
	if b.next > n {
		start, count = b.next-n, n
	}
	var out []Span
	for i := uint64(0); i < count; i++ {
		s := b.ring[(start+i)%n]
		if s.Trace == trace {
			s.KindS = s.Kind.String()
			out = append(out, s)
		}
	}
	return out
}

// Len reports how many spans are currently retained in the ring.
func (b *SpanBuffer) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.next < uint64(len(b.ring)) {
		return int(b.next)
	}
	return len(b.ring)
}

// Cap reports the ring capacity (0 for nil).
func (b *SpanBuffer) Cap() int {
	if b == nil {
		return 0
	}
	return len(b.ring)
}

// Snapshot copies out the retained ring spans oldest-first, with KindS
// filled in for JSON rendering.
func (b *SpanBuffer) Snapshot() []Span {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	n := uint64(len(b.ring))
	start, count := uint64(0), b.next
	if b.next > n {
		start, count = b.next-n, n
	}
	out := make([]Span, 0, count)
	for i := uint64(0); i < count; i++ {
		s := b.ring[(start+i)%n]
		s.KindS = s.Kind.String()
		out = append(out, s)
	}
	return out
}

// Exemplars copies out the pinned tail traces (unsorted).
func (b *SpanBuffer) Exemplars() []TraceExemplar {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]TraceExemplar, len(b.exemplars))
	copy(out, b.exemplars)
	return out
}

// WriteChromeTrace renders spans as a Chrome trace_event JSON document
// ({"traceEvents": [...]}, the chrome://tracing / Perfetto format).
// Timestamps are the spans' wall stamps in microseconds, so documents
// from different processes of one cluster merge on a shared axis; the
// process name becomes pid, the transaction becomes tid, and the trace
// identity travels in args.
func WriteChromeTrace(w io.Writer, process string, spans []Span) error {
	return WriteChromeTraceGroups(w, []SpanGroup{{Process: process, Spans: spans}})
}

// SpanGroup is one process's contribution to a merged Chrome trace.
type SpanGroup struct {
	Process string `json:"process"`
	Spans   []Span `json:"spans"`
}

// WriteChromeTraceGroups renders several processes' spans as ONE Chrome
// trace document: each group keeps its own pid lane, and because every
// span's ts is a wall stamp the lanes line up on a shared time axis —
// the cluster-wide view sccctl trace -chrome produces.
func WriteChromeTraceGroups(w io.Writer, groups []SpanGroup) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	for _, g := range groups {
		for _, s := range g.Spans {
			if !first {
				bw.WriteByte(',')
			}
			first = false
			ph, dur := "X", s.Dur
			if dur <= 0 {
				// Instant events render as zero-width slices; keep them "X"
				// with a 1µs floor so chrome://tracing shows them.
				dur = 1000
			}
			kind := s.KindS
			if kind == "" {
				kind = s.Kind.String()
			}
			fmt.Fprintf(bw,
				`{"name":%q,"ph":%q,"ts":%.3f,"dur":%.3f,"pid":%q,"tid":"T%d","args":{"trace":"%016x","span":%d,"parent":%d,"site":%d,"object":%d,"wave":%d}}`,
				kind, ph, float64(s.Wall)/1e3, float64(dur)/1e3, g.Process, s.Txn,
				s.Trace, s.ID, s.Parent, s.Site, s.Object, s.Wave)
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
