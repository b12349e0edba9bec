package telemetry

import (
	"sync"
	"time"
)

// EventKind labels one step of a commit conversation (or a fault
// transition) in the tracer's ring.
type EventKind uint8

const (
	EvBegin   EventKind = iota + 1 // transaction first touched a site
	EvBlocked                      // a request parked behind a conflict
	EvHold                         // commit-hold issued at a site
	EvDecide                       // decision round done (Arg = global deps)
	EvRelease                      // pseudo-commit released at a site
	EvShed                         // hold policy refused the conversation
	EvCrash                        // site crashed
	EvRestart                      // site recovered (Arg = redone commits)
)

// String names the kind for /tracez and sccctl trace.
func (k EventKind) String() string {
	switch k {
	case EvBegin:
		return "begin"
	case EvBlocked:
		return "blocked"
	case EvHold:
		return "hold"
	case EvDecide:
		return "decide"
	case EvRelease:
		return "release"
	case EvShed:
		return "shed"
	case EvCrash:
		return "crash"
	case EvRestart:
		return "restart"
	}
	return "?"
}

// Event is one recorded step: wall and monotonic stamps (Unix
// nanoseconds; nanoseconds since the tracer's epoch), the transaction
// and site involved, and a kind-specific argument (dependency count,
// redo count, ...).
type Event struct {
	Seq   uint64    `json:"seq"`
	Wall  int64     `json:"wall"`
	Nanos int64     `json:"nanos"`
	Kind  EventKind `json:"-"`
	KindS string    `json:"kind"`
	Txn   uint64    `json:"txn"`
	Site  int32     `json:"site"`
	Arg   int64     `json:"arg"`
}

// Tracer records conversation events into a fixed ring, overwriting
// the oldest once full — drained on demand (Snapshot) rather than
// logged eagerly. Record is allocation-free and nil-safe; the ring is
// pre-allocated at construction. A mutex (not atomics) guards the
// ring: Record's critical section is a few stores, and tracing is
// opt-in, so contention is not on the default path at all. It is the
// package's one event ring: /tracez scrapes it, and a FlightRecorder
// dumps one.
type Tracer struct {
	mu    sync.Mutex
	ring  []Event
	next  uint64 // total events ever recorded; ring index is next % len
	epoch time.Time
	wall0 int64 // epoch as Unix nanoseconds
}

// NewTracer builds a tracer with capacity size (<= 0 disables: the
// returned tracer is nil, and every method on a nil tracer no-ops).
func NewTracer(size int) *Tracer {
	if size <= 0 {
		return nil
	}
	now := time.Now()
	return &Tracer{ring: make([]Event, size), epoch: now, wall0: now.UnixNano()}
}

// Record appends one event. Nil-safe, allocation-free.
func (tr *Tracer) Record(kind EventKind, txn uint64, site int32, arg int64) {
	if tr == nil {
		return
	}
	now := int64(time.Since(tr.epoch))
	tr.mu.Lock()
	e := &tr.ring[tr.next%uint64(len(tr.ring))]
	e.Seq = tr.next
	e.Wall = tr.wall0 + now
	e.Nanos = now
	e.Kind = kind
	e.Txn = txn
	e.Site = site
	e.Arg = arg
	tr.next++
	tr.mu.Unlock()
}

// Len reports how many events are currently retained.
func (tr *Tracer) Len() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.next < uint64(len(tr.ring)) {
		return int(tr.next)
	}
	return len(tr.ring)
}

// Cap reports the ring capacity (0 for nil).
func (tr *Tracer) Cap() int {
	if tr == nil {
		return 0
	}
	return len(tr.ring)
}

// Snapshot copies out the retained events oldest-first, with KindS
// filled in for JSON rendering.
func (tr *Tracer) Snapshot() []Event {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := uint64(len(tr.ring))
	start, count := uint64(0), tr.next
	if tr.next > n {
		start, count = tr.next-n, n
	}
	out := make([]Event, 0, count)
	for i := uint64(0); i < count; i++ {
		e := tr.ring[(start+i)%n]
		e.KindS = e.Kind.String()
		out = append(out, e)
	}
	return out
}
