package wire

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadClusterFilePolicy: a cluster file naming a retired hold policy
// fails to load, with the ParsePolicy error listing the accepted forms,
// rather than silently running the default; no policy and depth=N load.
func TestLoadClusterFilePolicy(t *testing.T) {
	load := func(policy string) (*ClusterFile, error) {
		path := filepath.Join(t.TempDir(), "cluster.json")
		body := `{"client": "127.0.0.1:0", "policy": "` + policy + `",
			"daemons": [{"listen": "127.0.0.1:0", "sites": [0, 1]}]}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return LoadClusterFile(path)
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
