package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/dist"
	"repro/internal/workload"
)

// ClusterFile is the JSON cluster description the sccd and sccctl
// binaries share: one file describes the whole deployment, and every
// process picks its own role out of it.
//
//	{
//	  "client":   "127.0.0.1:7400",
//	  "log":      "/var/tmp/scc/decision.log",
//	  "sync":     false,
//	  "workload": "pushes:64",
//	  "daemons": [
//	    {"listen": "127.0.0.1:7401", "sites": [0, 1]},
//	    {"listen": "127.0.0.1:7402", "sites": [2, 3]}
//	  ]
//	}
type ClusterFile struct {
	// Client is the coordinator's client-plane listen address.
	Client string `json:"client"`
	// Log is the coordinator's decision-log file path.
	Log string `json:"log"`
	// Sync forces an fsync per decision record (slower, survives OS
	// crash; off survives process crash only).
	Sync bool `json:"sync"`
	// Workload names the workload spec (workload.ParseSpec) whose
	// object factory every site daemon and the coordinator install, so
	// all processes agree on object types without code crossing the
	// wire.
	Workload string `json:"workload"`
	// Policy optionally names the coordinator's hold policy: "depth=N"
	// or "off" for the paper's unbounded holds; empty is the cluster
	// default, dist.DefaultPolicy.
	Policy string `json:"policy,omitempty"`
	// Debug is the coordinator's debug-plane HTTP listen address
	// (/metrics, /statusz, /tracez, pprof); empty disables it.
	Debug string `json:"debug,omitempty"`
	// Spans sizes every process's causal span ring (coordinator and
	// site daemons alike), the one event ring /tracez serves and the
	// flight recorder dumps; 0 disables the span plane — and with it
	// the black box — cluster-wide.
	Spans int `json:"spans,omitempty"`
	// SampleRate is the traced fraction of transactions in [0,1]; 0
	// means sample everything when the span plane is on.
	SampleRate float64 `json:"sample_rate,omitempty"`
	// SampleSeed seeds the deterministic trace sampler; every process
	// derives the same trace ids from it.
	SampleSeed int64 `json:"sample_seed,omitempty"`
	// FlightDir is where flight dumps land (default: the working
	// directory of each process).
	FlightDir string `json:"flight_dir,omitempty"`
	// Daemons places the global site ids onto site-daemon processes.
	Daemons []DaemonSpec `json:"daemons"`
}

// LoadClusterFile reads and validates a cluster description. An
// unknown key — a typo, or one a newer build retired — is an error
// naming it, not silently dropped; so is anything after the one JSON
// object, where a second object's keys would go unread.
func LoadClusterFile(path string) (*ClusterFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ClusterFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("wire: cluster file %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("wire: cluster file %s: trailing content after the cluster description", path)
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("wire: cluster file %s: %w", path, err)
	}
	return &f, nil
}

// NumSites returns the total number of global sites the file places.
func (f *ClusterFile) NumSites() int {
	n := 0
	for _, d := range f.Daemons {
		n += len(d.Sites)
	}
	return n
}

// Validate checks the file is a runnable deployment: a client address,
// a parseable workload (when present), a site placement covering
// exactly 0..N-1, and span-plane sizes and rate in range.
func (f *ClusterFile) Validate() error {
	if f.Client == "" {
		return fmt.Errorf("missing client address")
	}
	if !(f.SampleRate >= 0 && f.SampleRate <= 1) {
		return fmt.Errorf("sample_rate %g: want a fraction in [0,1]", f.SampleRate)
	}
	if f.Spans < 0 {
		return fmt.Errorf("spans %d: want a ring size, or 0 for off", f.Spans)
	}
	if len(f.Daemons) == 0 {
		return fmt.Errorf("no daemons")
	}
	n := f.NumSites()
	seen := make(map[uint16]bool, n)
	for i, d := range f.Daemons {
		if d.Listen == "" {
			return fmt.Errorf("daemon %d: missing listen address", i)
		}
		if len(d.Sites) == 0 {
			return fmt.Errorf("daemon %d: no sites", i)
		}
		for _, sid := range d.Sites {
			if int(sid) >= n || seen[sid] {
				return fmt.Errorf("daemon %d: bad site placement %d (want each of 0..%d exactly once)", i, sid, n-1)
			}
			seen[sid] = true
		}
	}
	if f.Workload != "" {
		if _, err := workload.ParseSpec(f.Workload); err != nil {
			return err
		}
	}
	if _, err := dist.ParsePolicy(f.Policy); err != nil {
		return err
	}
	return nil
}
