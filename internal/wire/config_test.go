package wire

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
)

// loadCluster writes a two-site cluster file with the extra keys spliced
// in and loads it.
func loadCluster(t *testing.T, extra string) (*ClusterFile, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cluster.json")
	body := `{"client": "127.0.0.1:0", ` + extra + `
		"daemons": [{"listen": "127.0.0.1:0", "sites": [0, 1]}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return LoadClusterFile(path)
}

// TestLoadClusterFilePolicy: a cluster file naming a retired hold policy
// fails to load, with the ParsePolicy error listing the accepted forms,
// rather than silently running the default; no policy and depth=N load.
func TestLoadClusterFilePolicy(t *testing.T) {
	load := func(policy string) (*ClusterFile, error) {
		return loadCluster(t, `"policy": "`+policy+`",`)
	}
	for _, ok := range []string{"", "off", "depth=4"} {
		if _, err := load(ok); err != nil {
			t.Errorf("policy %q: %v", ok, err)
		}
	}
	for _, stale := range []string{"eager", "admit=32/16"} {
		_, err := load(stale)
		if err == nil || !strings.Contains(err.Error(), "off or depth=N") {
			t.Errorf("policy %q: err = %v, want the ParsePolicy error", stale, err)
		}
	}
}

// TestLoadClusterFileUnknownKeys: a key the file format does not have —
// the retired event-ring sizes "trace" and "flight" and the retired
// exemplar-store size "span_exemplars" among them — fails
// the load with an error naming it instead of being dropped silently,
// and so does content after the description, where a second object's
// keys would go unread; the span plane's keys load.
func TestLoadClusterFileUnknownKeys(t *testing.T) {
	if _, err := loadCluster(t, `"spans": 4096, "sample_rate": 0.5, "sample_seed": 42, "flight_dir": "/tmp",`); err != nil {
		t.Errorf("span-plane keys: %v", err)
	}
	for _, key := range []string{"trace", "flight", "span_exemplars", "spnas"} {
		_, err := loadCluster(t, `"`+key+`": 2048,`)
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+key+`"`) {
			t.Errorf("key %q: err = %v, want an unknown-field error naming it", key, err)
		}
	}
	const file = `{"client": "127.0.0.1:0", "daemons": [{"listen": "127.0.0.1:0", "sites": [0]}]}`
	for _, tail := range []string{"\n" + `{"bogus": 1, "spans": -5}`, " trailing garbage"} {
		path := filepath.Join(t.TempDir(), "cluster.json")
		if err := os.WriteFile(path, []byte(file+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadClusterFile(path)
		if err == nil || !strings.Contains(err.Error(), "trailing content") {
			t.Errorf("file + %q: err = %v, want a trailing-content error", tail, err)
		}
	}
	if _, err := loadCluster(t, ""); err != nil {
		t.Errorf("the file alone: %v", err)
	}
}

// TestLoadClusterFileRanges: a span-plane value out of range fails the
// load with an error naming its key, instead of being reinterpreted
// (a negative rate as "sample everything", a rate above 1 clamped).
func TestLoadClusterFileRanges(t *testing.T) {
	for _, ok := range []string{`"sample_rate": 0,`, `"sample_rate": 0.25,`, `"sample_rate": 1,`, `"spans": 0,`} {
		if _, err := loadCluster(t, ok); err != nil {
			t.Errorf("%s: %v", ok, err)
		}
	}
	for _, bad := range []struct{ extra, key string }{
		{`"sample_rate": -0.5,`, "sample_rate"},
		{`"sample_rate": 1.5,`, "sample_rate"},
		{`"spans": -1,`, "spans"},
	} {
		_, err := loadCluster(t, bad.extra)
		if err == nil || !strings.Contains(err.Error(), bad.key+" ") {
			t.Errorf("%s: err = %v, want an error naming %s", bad.extra, err, bad.key)
		}
	}
}

// FuzzLoadClusterFile feeds arbitrary bytes to the cluster-file loader
// as a file. The loader must never panic; a file it accepts passes
// Validate, re-marshals into a file that loads equal, and names a hold
// policy whose Name parses back to the same policy. Seeds are in
// testdata/fuzz/FuzzLoadClusterFile; `go test -run xxx -fuzz
// FuzzLoadClusterFile -fuzztime 30s ./internal/wire/` fuzzes.
func FuzzLoadClusterFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		load := func(name string, b []byte) (*ClusterFile, error) {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			return LoadClusterFile(path)
		}
		cf, err := load("fuzz.json", raw)
		if err != nil {
			return
		}
		if err := cf.Validate(); err != nil {
			t.Fatalf("accepted file fails Validate: %v", err)
		}
		out, err := json.Marshal(cf)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		again, err := load("again.json", out)
		if err != nil {
			t.Fatalf("re-marshalled file %s fails to load: %v", out, err)
		}
		if !reflect.DeepEqual(cf, again) {
			t.Fatalf("reload differs:\n%+v\n%+v", cf, again)
		}
		p, err := dist.ParsePolicy(cf.Policy)
		if err != nil || p == nil {
			return // Validate vouched for it; nil is the cluster default
		}
		q, err := dist.ParsePolicy(p.Name())
		if err != nil || q != p {
			t.Fatalf("policy %q: Name %q parses to %v, %v", cf.Policy, p.Name(), q, err)
		}
	})
}
