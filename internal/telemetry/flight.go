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

// Flight recorder: the per-process black box.
//
// The recorder owns no ring of its own: it is a dump view over the
// process's span buffer, the one event ring. It exists to be *dumped*,
// not scraped: on SIGQUIT, on a daemon panic, or when a decision-log
// conservation invariant trips, it writes a self-contained JSON
// post-mortem — the ring's spans plus the pinned exemplars — to disk,
// so /tracez and the dump show one timeline, recorded once. Only Dump
// allocates.

// FlightDump is the JSON document a dump writes.
type FlightDump struct {
	Process   string          `json:"process"`
	Reason    string          `json:"reason"`
	Wall      string          `json:"wall"`
	Spans     []Span          `json:"spans,omitempty"`
	Exemplars []TraceExemplar `json:"exemplars,omitempty"`
}

// FlightRecorder is the per-process black box. A nil recorder no-ops
// everywhere, so call sites never guard.
type FlightRecorder struct {
	process string
	dir     string
	spans   *SpanBuffer

	mu       sync.Mutex
	lastPath string
	dumps    int
	once     map[string]bool // reasons already dumped via DumpOnce
}

// NewFlightRecorder builds a recorder for process (a short role label:
// "coord", "site-a", ...), dumping into dir (defaulted to the working
// directory). Its dumps carry spans, the process's span buffer.
func NewFlightRecorder(process, dir string, spans *SpanBuffer) *FlightRecorder {
	if dir == "" {
		dir = "."
	}
	return &FlightRecorder{
		process: process,
		dir:     dir,
		spans:   spans,
		once:    make(map[string]bool),
	}
}

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

// snapshot assembles the dump document.
func (f *FlightRecorder) snapshot(reason string) FlightDump {
	return FlightDump{
		Process:   f.process,
		Reason:    reason,
		Wall:      time.Now().UTC().Format(time.RFC3339Nano),
		Spans:     f.spans.Snapshot(),
		Exemplars: f.spans.Exemplars(),
	}
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
