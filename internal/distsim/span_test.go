package distsim

import (
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// spanConvoy is Convoy(42) with the span plane armed: a ring big
// enough to keep every span of the run, beside the exemplar store.
func spanConvoy() Config {
	cfg := Convoy(42)
	cfg.Spans = 1 << 15
	return cfg
}

// TestConvoySpans42 is the golden causal trace: arming the span plane
// must leave the seed-42 convoy bit-identical (same trace hash, same
// headline numbers), and the convoy's slowest retained trace — the
// longest chain the exemplar store pinned — must reconstruct the same
// causal timeline on every run: begin, twelve executed requests across
// four sites, four forced holds, one decision after a ten-second held
// wait, four releases.
func TestConvoySpans42(t *testing.T) {
	const (
		baseHash    = uint64(0x71872824acbf006c)
		spanCount   = 19408
		goldenTrace = uint64(0x9024eb3f1aad53bd)
		goldenTxn   = uint64(1461)
		goldenLat   = int64(21050529208) // ns, virtual: submit → real commit
		goldenHeld  = int64(10061738316) // ns, virtual: the decide span's held wait
	)
	res := run(t, spanConvoy())
	if res.TraceHash != baseHash {
		t.Fatalf("span plane perturbed the event trace: hash = %016x, want %016x",
			res.TraceHash, baseHash)
	}
	if res.RealCommits != 400 || res.PseudoCompletions != 604 || res.Held != 684 {
		t.Fatalf("span plane perturbed the run: real=%d pseudo=%d held=%d, want 400/604/684",
			res.RealCommits, res.PseudoCompletions, res.Held)
	}
	if len(res.Spans) != spanCount {
		t.Fatalf("retained spans = %d, want %d", len(res.Spans), spanCount)
	}
	if len(res.Exemplars) != 8 {
		t.Fatalf("exemplars = %d, want 8", len(res.Exemplars))
	}

	// The slowest exemplar is the convoy's longest chain.
	top := res.Exemplars[0]
	for _, ex := range res.Exemplars[1:] {
		if ex.Latency > top.Latency {
			top = ex
		}
	}
	if top.Trace != goldenTrace || top.Txn != goldenTxn || top.Latency != goldenLat {
		t.Fatalf("slowest trace = %016x txn=%d latency=%d, want %016x txn=%d latency=%d",
			top.Trace, top.Txn, top.Latency, goldenTrace, goldenTxn, goldenLat)
	}
	wantKinds := []telemetry.SpanKind{
		telemetry.SpanBegin,
		telemetry.SpanRequest, telemetry.SpanRequest, telemetry.SpanRequest,
		telemetry.SpanRequest, telemetry.SpanRequest, telemetry.SpanRequest,
		telemetry.SpanRequest, telemetry.SpanRequest, telemetry.SpanRequest,
		telemetry.SpanRequest, telemetry.SpanRequest, telemetry.SpanRequest,
		telemetry.SpanHold, telemetry.SpanHold, telemetry.SpanHold, telemetry.SpanHold,
		telemetry.SpanDecide,
		telemetry.SpanRelease, telemetry.SpanRelease, telemetry.SpanRelease, telemetry.SpanRelease,
	}
	if len(top.Spans) != len(wantKinds) {
		t.Fatalf("golden chain has %d spans, want %d", len(top.Spans), len(wantKinds))
	}
	for i, s := range top.Spans {
		if s.Kind != wantKinds[i] {
			t.Errorf("golden chain span %d = %s, want %s", i, s.Kind, wantKinds[i])
		}
		if i > 0 && s.Wall < top.Spans[i-1].Wall {
			t.Errorf("golden chain span %d wall %d precedes span %d wall %d",
				i, s.Wall, i-1, top.Spans[i-1].Wall)
		}
	}
	if d := top.Spans[17]; d.Kind != telemetry.SpanDecide || d.Dur != goldenHeld {
		t.Errorf("decide span dur = %d, want %d (the held wait)", d.Dur, goldenHeld)
	}
}

// TestConvoySpansDeterministic: two same-seed runs yield bit-identical
// span rings and exemplar stores — the whole point of clocking spans
// off the virtual timeline and deriving contexts purely from
// (seed, txn).
func TestConvoySpansDeterministic(t *testing.T) {
	a := run(t, spanConvoy())
	b := run(t, spanConvoy())
	if !reflect.DeepEqual(a.Spans, b.Spans) {
		t.Fatal("same-seed runs disagree on the span ring")
	}
	if !reflect.DeepEqual(a.Exemplars, b.Exemplars) {
		t.Fatal("same-seed runs disagree on the exemplar store")
	}
}

// TestSpansOffByDefault: the default path allocates no span plane and
// the Result carries none.
func TestSpansOffByDefault(t *testing.T) {
	res := run(t, small(7))
	if res.Spans != nil || res.Exemplars != nil {
		t.Fatal("span plane armed without Config.Spans")
	}
}
