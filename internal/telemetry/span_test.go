package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSpanContextDeterminism pins the sampling contract: the same
// (seed, txn) pair always yields the same trace id and the same
// decision, so seeded runs are reproducible and contexts can be
// re-derived after a restart without having been stored.
func TestSpanContextDeterminism(t *testing.T) {
	a := NewSpanBuffer(1, 42, 0.5)
	b := NewSpanBuffer(1, 42, 0.5)
	sampled := 0
	for txn := uint64(1); txn <= 4096; txn++ {
		ca, cb := a.Context(txn), b.Context(txn)
		if ca != cb {
			t.Fatalf("txn %d: contexts differ across buffers: %+v vs %+v", txn, ca, cb)
		}
		if !ca.Valid() {
			t.Fatalf("txn %d: invalid trace id", txn)
		}
		if ca.Sampled() {
			sampled++
		}
	}
	// Rate 0.5 over 4096 uniform hashes: expect roughly half, with wide
	// slack — this asserts the threshold works, not the distribution.
	if sampled < 1024 || sampled > 3072 {
		t.Errorf("rate 0.5 sampled %d/4096, far from half", sampled)
	}
	// The trace id is the seed-42 splitmix derivation, bit for bit.
	if tc := a.Context(1); tc.Trace != 0xbdd732262feb6e95 {
		t.Errorf("seed 42 txn 1 trace = %#x, want 0xbdd732262feb6e95", tc.Trace)
	}

	// Different seeds must diverge (else the seed does nothing).
	c := NewSpanBuffer(1, 43, 0.5)
	diff := 0
	for txn := uint64(1); txn <= 256; txn++ {
		if a.Context(txn).Trace != c.Context(txn).Trace {
			diff++
		}
	}
	if diff == 0 {
		t.Error("seed change did not change any trace id")
	}

	// Rate edges: 1 samples everything, and so does any rate outside
	// (0,1] — 0 is the unset default; a tiny rate samples next to
	// nothing; nil mints zero.
	for _, rate := range []float64{1, 0, -1, 2} {
		all := NewSpanBuffer(1, 7, rate)
		if seed, r := all.Sampling(); seed != 7 || r != 1 {
			t.Fatalf("rate %g: Sampling = (%d, %g), want (7, 1)", rate, seed, r)
		}
		for txn := uint64(1); txn <= 64; txn++ {
			if !all.Context(txn).Sampled() {
				t.Fatalf("rate %g skipped txn %d", rate, txn)
			}
		}
	}
	none := NewSpanBuffer(1, 7, 1e-12)
	for txn := uint64(1); txn <= 64; txn++ {
		if none.Context(txn).Sampled() {
			t.Fatalf("rate 1e-12 sampled txn %d", txn)
		}
	}
	var nilB *SpanBuffer
	if tc := nilB.Context(9); tc.Valid() || tc.Sampled() {
		t.Errorf("nil buffer minted %+v", tc)
	}
	if seed, r := nilB.Sampling(); seed != 0 || r != 0 {
		t.Errorf("nil buffer Sampling = (%d, %g), want zeros", seed, r)
	}
}

// TestSpanBufferWraparound checks the ring semantics: capacity bounds
// retention, oldest spans are overwritten first, snapshots come out
// oldest-first with kind names filled in, span ids keep counting across
// the wrap, and site spans record without sampling.
func TestSpanBufferWraparound(t *testing.T) {
	b := NewSpanBuffer(4, 0, 1)
	tc := TraceContext{Trace: 1, Span: 1, Flags: TraceSampled}
	for i := uint64(1); i <= 6; i++ {
		b.Record(tc, SpanRequest, i, 0, 0, 0, 0)
	}
	if b.Len() != 4 || b.Cap() != 4 {
		t.Fatalf("Len/Cap = %d/%d, want 4/4", b.Len(), b.Cap())
	}
	snap := b.Snapshot()
	for i, s := range snap {
		want := uint64(3 + i)
		if s.Txn != want || s.ID != want || s.KindS != "request" {
			t.Fatalf("span %d = txn %d id %d kind %q, want %d/%d/request (oldest-first after wrap)",
				i, s.Txn, s.ID, s.KindS, want, want)
		}
		if i > 0 && s.Start < snap[i-1].Start {
			t.Fatalf("span %d stamped before its predecessor", i)
		}
	}
	// Unsampled contexts record nothing.
	b.Record(TraceContext{Trace: 2}, SpanBegin, 9, 0, 0, 0, 0)
	if b.Len() != 4 || b.Snapshot()[3].Txn != 6 {
		t.Error("unsampled context was recorded")
	}
	// A site span needs no context: it lands under trace 0.
	b.RecordSite(SpanRestart, 0, 2, 5)
	if s := b.Snapshot()[3]; s.Kind != SpanRestart || s.KindS != "restart" || s.Trace != 0 || s.Site != 2 || s.Object != 5 {
		t.Errorf("site span = %+v, want restart at site 2 with arg 5 under trace 0", s)
	}
	// Nil buffer no-ops everywhere.
	var nb *SpanBuffer
	nb.Record(tc, SpanBegin, 1, 0, 0, 0, 0)
	nb.RecordSite(SpanCrash, 0, 1, 0)
	nb.Complete(tc, 1, 1)
	if nb.Len() != 0 || nb.Snapshot() != nil || nb.Exemplars() != nil {
		t.Error("nil buffer retained data")
	}
}

// TestExemplarRetention is the tail-based retention contract: a
// completed trace whose latency lands in the top buckets is pinned
// with its spans copied out, so subsequent ring wraparound cannot lose
// it, and the slowest traces win eviction once the store is full.
func TestExemplarRetention(t *testing.T) {
	b := NewSpanBuffer(8, 0, 1)
	b.exCap = 2
	mk := func(trace uint64) TraceContext {
		return TraceContext{Trace: trace, Span: trace, Flags: TraceSampled}
	}

	// Trace 1 completes slow, then the ring wraps completely.
	b.Record(mk(1), SpanBegin, 1, 0, 0, 0, 0)
	b.Record(mk(1), SpanRelease, 1, 0, 0, 0, 0)
	b.Complete(mk(1), 1, 1_000_000)
	for i := uint64(10); i < 30; i++ {
		b.Record(mk(i), SpanRequest, i, 0, 0, 0, 0)
	}
	if exs := b.Exemplars(); len(exs) != 1 || exs[0].Trace != 1 || len(exs[0].Spans) != 2 {
		t.Fatalf("trace 1 lost to wraparound: exemplars %+v, want trace 1's 2 spans", exs)
	}

	// Fill the store (cap 2), then evict by latency: a faster trace
	// must not displace a slower pin; a slower one must.
	b.Record(mk(2), SpanBegin, 2, 0, 0, 0, 0)
	b.Complete(mk(2), 2, 2_000_000)
	b.Record(mk(3), SpanBegin, 3, 0, 0, 0, 0)
	b.Complete(mk(3), 3, 500) // faster than both pins: rejected
	exs := b.Exemplars()
	if len(exs) != 2 {
		t.Fatalf("exemplar count = %d, want 2", len(exs))
	}
	for _, ex := range exs {
		if ex.Trace == 3 {
			t.Fatal("fast trace displaced a slower exemplar")
		}
	}
	b.Record(mk(4), SpanBegin, 4, 0, 0, 0, 0)
	b.Complete(mk(4), 4, 5_000_000) // slower than the min pin (trace 1)
	traces := map[uint64]bool{}
	for _, ex := range b.Exemplars() {
		traces[ex.Trace] = true
	}
	if !traces[4] || !traces[2] || traces[1] {
		t.Fatalf("eviction picked wrong victim: pins = %v, want {2,4}", traces)
	}

	// Unsampled completion is a no-op.
	b.Complete(TraceContext{Trace: 99}, 99, 1<<40)
	if len(b.Exemplars()) != 2 {
		t.Error("unsampled completion changed the exemplar store")
	}
}

// TestSpanBufferVirtualClock checks SetClock: both stamps come from
// the injected source, which is what makes distsim spans deterministic.
func TestSpanBufferVirtualClock(t *testing.T) {
	b := NewSpanBuffer(4, 0, 1)
	now := int64(0)
	b.SetClock(func() int64 { return now })
	tc := TraceContext{Trace: 5, Span: 5, Flags: TraceSampled}
	now = 1500
	b.Record(tc, SpanBegin, 1, 0, 0, 0, 0)
	now = 2500
	b.Record(tc, SpanHold, 1, 2, 0, 0, 300)
	snap := b.Snapshot()
	if snap[0].Wall != 1500 || snap[0].Start != 1500 {
		t.Errorf("first span stamps = (%d,%d), want (1500,1500)", snap[0].Wall, snap[0].Start)
	}
	if snap[1].Wall != 2500 || snap[1].Dur != 300 {
		t.Errorf("second span = %+v, want wall 2500 dur 300", snap[1])
	}
}

// TestWriteChromeTrace checks the export is valid JSON in the
// trace_event shape with the trace identity in args.
func TestWriteChromeTrace(t *testing.T) {
	b := NewSpanBuffer(8, 0, 1)
	tc := TraceContext{Trace: 0xabc, Span: 7, Flags: TraceSampled}
	b.Record(tc, SpanHold, 3, 1, 42, 0, 2000)
	b.Record(tc, SpanDecide, 3, -1, 0, 4, 0)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, "coord", b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  string  `json:"pid"`
			Tid  string  `json:"tid"`
			Args struct {
				Trace string `json:"trace"`
				Site  int32  `json:"site"`
				Wave  int64  `json:"wave"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("event count = %d, want 2", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Name != "hold" || doc.TraceEvents[0].Pid != "coord" || doc.TraceEvents[0].Tid != "T3" {
		t.Errorf("first event = %+v", doc.TraceEvents[0])
	}
	if doc.TraceEvents[0].Args.Trace != "0000000000000abc" {
		t.Errorf("trace id rendered as %q", doc.TraceEvents[0].Args.Trace)
	}
	if doc.TraceEvents[1].Args.Wave != 4 {
		t.Errorf("wave = %d, want 4", doc.TraceEvents[1].Args.Wave)
	}
}

// TestFlightRecorderDump checks the black box end to end: the
// process's span ring (trace and site spans alike) dumped to a buffer and to disk,
// DumpOnce once-per-reason semantics, and nil safety.
func TestFlightRecorderDump(t *testing.T) {
	dir := t.TempDir()
	spans := NewSpanBuffer(8, 0, 1)
	f := NewFlightRecorder("site-a", dir, spans)

	tc := TraceContext{Trace: 11, Span: 11, Flags: TraceSampled}
	spans.Record(tc, SpanHold, 7, 2, 0, 0, 0)
	spans.RecordSite(SpanCrash, 0, 2, 0)

	var buf bytes.Buffer
	if err := f.DumpTo(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if d.Process != "site-a" || d.Reason != "test" {
		t.Errorf("dump header = %q/%q", d.Process, d.Reason)
	}
	if len(d.Spans) != 2 || d.Spans[0].Trace != 11 || d.Spans[1].KindS != "crash" || d.Spans[1].Wall == 0 {
		t.Errorf("dump spans = %+v", d.Spans)
	}

	path, err := f.Dump("sigquit")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(path, dir) || f.LastDump() != path {
		t.Errorf("dump path %q, LastDump %q", path, f.LastDump())
	}
	if p2, _ := f.Dump("sigquit"); p2 == path {
		t.Error("second dump clobbered the first")
	}

	if p, err := f.DumpOnce("conservation"); err != nil || p == "" {
		t.Fatalf("first DumpOnce = %q, %v", p, err)
	}
	if p, err := f.DumpOnce("conservation"); err != nil || p != "" {
		t.Errorf("second DumpOnce fired: %q, %v", p, err)
	}

	var nf *FlightRecorder
	if nf.Dumps() != 0 || nf.LastDump() != "" {
		t.Error("nil recorder retained state")
	}
	if p, err := nf.Dump("x"); p != "" || err != nil {
		t.Error("nil recorder dumped")
	}
	if NewSpanBuffer(0, 1, 1) != nil {
		t.Error("size 0 must disable")
	}
}
