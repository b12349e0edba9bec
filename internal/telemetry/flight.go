package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Flight recorder: a bounded structured-event black box per process.
//
// The recorder is a dump view over an event ring (a Tracer) — it exists
// to be *dumped*, not scraped: on SIGQUIT, on a daemon panic, or when a
// decision-log conservation invariant trips, it writes a self-contained
// JSON post-mortem (the ring, plus a snapshot of any attached span
// buffer) to disk. A cluster handed a recorder records its conversation
// events straight into the recorder's ring, so /tracez and the dump
// show one timeline, recorded once. The recording path keeps the
// package's contract: Record is allocation-free and nil-safe; only Dump
// allocates.

// FlightDump is the JSON document a dump writes.
type FlightDump struct {
	Process   string          `json:"process"`
	Reason    string          `json:"reason"`
	Wall      string          `json:"wall"`
	Events    []Event         `json:"events"`
	Spans     []Span          `json:"spans,omitempty"`
	Exemplars []TraceExemplar `json:"exemplars,omitempty"`
}

// FlightRecorder is the per-process black box. A nil recorder no-ops
// everywhere, so call sites never guard.
type FlightRecorder struct {
	events  *Tracer
	process string
	dir     string

	mu       sync.Mutex
	spans    *SpanBuffer
	lastPath string
	dumps    int
	once     map[string]bool // reasons already dumped via DumpOnce
}

// NewFlightRecorder builds a recorder with capacity size for process
// (a short role label: "coord", "site-a", ...), dumping into dir
// (defaulted to the working directory). size <= 0 disables: the
// returned recorder is nil.
func NewFlightRecorder(size int, process, dir string) *FlightRecorder {
	if size <= 0 {
		return nil
	}
	if dir == "" {
		dir = "."
	}
	return &FlightRecorder{
		events:  NewTracer(size),
		process: process,
		dir:     dir,
		once:    make(map[string]bool),
	}
}

// Events returns the recorder's event ring (nil for a nil recorder).
func (f *FlightRecorder) Events() *Tracer {
	if f == nil {
		return nil
	}
	return f.events
}

// AttachSpans includes the span buffer's snapshot in future dumps.
func (f *FlightRecorder) AttachSpans(b *SpanBuffer) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.spans = b
	f.mu.Unlock()
}

// Record appends one event. Nil-safe, allocation-free.
func (f *FlightRecorder) Record(kind EventKind, txn uint64, site int32, arg int64) {
	f.Events().Record(kind, txn, site, arg)
}

// Len reports how many events are currently retained.
func (f *FlightRecorder) Len() int { return f.Events().Len() }

// Cap reports the ring capacity (0 for nil).
func (f *FlightRecorder) Cap() int { return f.Events().Cap() }

// LastDump reports the path of the most recent on-disk dump ("" if
// none yet).
func (f *FlightRecorder) LastDump() string {
	if f == nil {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastPath
}

// Dumps reports how many dumps have been written.
func (f *FlightRecorder) Dumps() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumps
}

// snapshot assembles the dump document. Caller must NOT hold f.mu.
func (f *FlightRecorder) snapshot(reason string) FlightDump {
	f.mu.Lock()
	spans := f.spans
	f.mu.Unlock()
	d := FlightDump{
		Process: f.process,
		Reason:  reason,
		Wall:    time.Now().UTC().Format(time.RFC3339Nano),
		Events:  f.events.Snapshot(),
	}
	if spans != nil {
		d.Spans = spans.Snapshot()
		d.Exemplars = spans.Exemplars()
	}
	return d
}

// DumpTo writes the post-mortem document to w.
func (f *FlightRecorder) DumpTo(w io.Writer, reason string) error {
	if f == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f.snapshot(reason))
}

// Dump writes the post-mortem to a fresh file in the recorder's dump
// directory and returns its path. File naming is
// flight-<process>-<n>.json so successive dumps never clobber.
func (f *FlightRecorder) Dump(reason string) (string, error) {
	if f == nil {
		return "", nil
	}
	f.mu.Lock()
	f.dumps++
	path := filepath.Join(f.dir, fmt.Sprintf("flight-%s-%d.json", f.process, f.dumps))
	f.mu.Unlock()

	tmp := path + ".tmp"
	file, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	err = f.DumpTo(file, reason)
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	f.mu.Lock()
	f.lastPath = path
	f.mu.Unlock()
	return path, nil
}

// DumpOnce dumps at most once per reason — the hook for invariant
// violations that would otherwise re-trip on every subsequent check.
// Returns the dump path ("" when this reason already fired).
func (f *FlightRecorder) DumpOnce(reason string) (string, error) {
	if f == nil {
		return "", nil
	}
	f.mu.Lock()
	if f.once[reason] {
		f.mu.Unlock()
		return "", nil
	}
	f.once[reason] = true
	f.mu.Unlock()
	return f.Dump(reason)
}
