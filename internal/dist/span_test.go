package dist

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// newSpanCluster builds a 3-site page cluster with the span plane and
// a flight recorder armed.
func newSpanCluster(t *testing.T, dir string) *Cluster {
	t.Helper()
	spans := telemetry.NewSpanBuffer(1024, 1, 1)
	c, err := NewWithConfig(Config{
		Sites:  3,
		Spans:  spans,
		Flight: telemetry.NewFlightRecorder("test", dir, spans),
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := core.ObjectID(1); id <= 6; id++ {
		if err := c.Register(id, adt.Page{}, compat.PageTable()); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// kinds returns the set of span kinds recorded for one transaction.
func kinds(sb *telemetry.SpanBuffer, txn uint64) map[telemetry.SpanKind]int {
	m := make(map[telemetry.SpanKind]int)
	for _, s := range sb.Snapshot() {
		if s.Txn == txn {
			m[s.Kind]++
		}
	}
	return m
}

// TestClusterSpans: a cross-site held transaction leaves a full causal
// chain — begin, per-site requests, per-site holds, a decision,
// per-site releases — and completes into the exemplar store.
func TestClusterSpans(t *testing.T) {
	c := newSpanCluster(t, t.TempDir())
	t1, t2 := c.Begin(), c.Begin()
	if _, err := t1.Do(1, write(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Do(1, write(11)); err != nil { // dep T2->T1 at site 1
		t.Fatal(err)
	}
	if _, err := t2.Do(2, write(22)); err != nil {
		t.Fatal(err)
	}
	if st, err := t2.Commit(); err != nil || st != core.PseudoCommitted {
		t.Fatalf("T2 commit = %v, %v", st, err)
	}
	if tc := t2.(*Txn).Trace(); !tc.Valid() || !tc.Sampled() {
		t.Fatalf("T2 trace context = %+v, want valid+sampled", tc)
	}
	if st, err := t1.Commit(); err != nil || st != core.Committed {
		t.Fatalf("T1 commit = %v, %v", st, err)
	}
	<-t2.Done()
	if err := t2.Err(); err != nil {
		t.Fatal(err)
	}

	k2 := kinds(c.Spans(), uint64(t2.ID()))
	if k2[telemetry.SpanBegin] == 0 || k2[telemetry.SpanRequest] == 0 {
		t.Fatalf("T2 missing begin/request spans: %v", k2)
	}
	if k2[telemetry.SpanHold] != 2 {
		t.Fatalf("T2 hold spans = %d, want 2 (both visited sites)", k2[telemetry.SpanHold])
	}
	if k2[telemetry.SpanDecide] != 1 {
		t.Fatalf("T2 decide spans = %d, want 1", k2[telemetry.SpanDecide])
	}
	if k2[telemetry.SpanRelease] != 2 {
		t.Fatalf("T2 release spans = %d, want 2", k2[telemetry.SpanRelease])
	}

	// Both terminal transactions completed into the exemplar store.
	ex := c.Spans().Exemplars()
	seen := make(map[uint64]bool)
	for _, e := range ex {
		seen[e.Txn] = true
	}
	if !seen[uint64(t1.ID())] || !seen[uint64(t2.ID())] {
		t.Fatalf("exemplars %v missing T1/T2", seen)
	}

	// TraceContextOf re-derives an unregistered id from the span buffer.
	if tc := c.TraceContextOf(core.TxnID(9999)); tc != c.Spans().Context(9999) || !tc.Valid() {
		t.Fatal("TraceContextOf(9999) invalid — sampler re-derivation broken")
	}
}

// TestClusterSpansAbort: an aborted transaction's trace terminates
// with an abort span and still completes into the exemplar store.
func TestClusterSpansAbort(t *testing.T) {
	c := newSpanCluster(t, t.TempDir())
	t1 := c.Begin()
	if _, err := t1.Do(1, write(1)); err != nil {
		t.Fatal(err)
	}
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}
	k := kinds(c.Spans(), uint64(t1.ID()))
	if k[telemetry.SpanAbort] == 0 {
		t.Fatalf("aborted T1 has no abort span: %v", k)
	}
}

// TestClusterFlightDump: the cluster's flight recorder dumps the span
// ring the commit conversation recorded into, as a readable artifact.
func TestClusterFlightDump(t *testing.T) {
	dir := t.TempDir()
	c := newSpanCluster(t, dir)
	t1 := c.Begin()
	if _, err := t1.Do(1, write(10)); err != nil {
		t.Fatal(err)
	}
	if st, err := t1.Commit(); err != nil || st != core.Committed {
		t.Fatalf("commit = %v, %v", st, err)
	}
	path, err := c.Flight().Dump("test")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("dump landed in %s, want %s", filepath.Dir(path), dir)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d telemetry.FlightDump
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	if n := len(d.Spans); n == 0 || d.Spans[n-1].KindS != "release" {
		t.Fatalf("flight dump spans = %+v, want the commit ending in its release", d.Spans)
	}
}

// TestClusterSiteSpansUnsampled: a site's crash and restart are
// recorded in the span ring even when no transaction is sampled.
func TestClusterSiteSpansUnsampled(t *testing.T) {
	c, err := NewWithConfig(Config{Sites: 2, Spans: telemetry.NewSpanBuffer(64, 0, 1e-12)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register(1, adt.Page{}, compat.PageTable()); err != nil {
		t.Fatal(err)
	}
	t1 := c.Begin()
	if _, err := t1.Do(1, write(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range c.Spans().Snapshot() {
		if s.Trace != 0 || s.Site != 1 {
			t.Fatalf("span %+v: want only site 1's untraced crash and restart", s)
		}
		got = append(got, s.KindS)
	}
	if !slices.Equal(got, []string{"crash", "restart"}) {
		t.Fatalf("span ring = %v, want [crash restart]", got)
	}
}
