//go:build !race

package telemetry

import "testing"

// The telemetry overhead contract: every hot-path instrument call —
// enabled or nil — is allocation-free. The scheduler/coordinator pins
// in internal/core and internal/dist depend on this; a regression
// here would surface there as a budget blowout, but failing at the
// source is a clearer signal.

func TestInstrumentZeroAllocs(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	sb := NewSpanBuffer(64, 42, 0.5)
	sampled := TraceContext{Trace: 1, Span: 1, Flags: TraceSampled}
	unsampled := TraceContext{Trace: 2, Span: 2}
	var nilC *Counter
	var nilH *Histogram
	var nilSB *SpanBuffer
	cases := []struct {
		name string
		f    func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(7) }},
		{"Histogram.Observe", func() { h.Observe(12345) }},
		{"SpanBuffer.Context", func() { sb.Context(7) }},
		{"SpanBuffer.Record sampled", func() { sb.Record(sampled, SpanHold, 1, 2, 3, 0, 0) }},
		{"SpanBuffer.Record unsampled", func() { sb.Record(unsampled, SpanHold, 1, 2, 3, 0, 0) }},
		{"SpanBuffer.RecordSite", func() { sb.RecordSite(SpanCrash, 0, 2, 0) }},
		{"nil Counter.Inc", func() { nilC.Inc() }},
		{"nil Histogram.Observe", func() { nilH.Observe(1) }},
		{"nil SpanBuffer.Context", func() { nilSB.Context(7) }},
		{"nil SpanBuffer.Record", func() { nilSB.Record(sampled, SpanHold, 1, 2, 3, 0, 0) }},
		{"nil SpanBuffer.RecordSite", func() { nilSB.RecordSite(SpanCrash, 0, 2, 0) }},
	}
	for _, tc := range cases {
		if avg := testing.AllocsPerRun(200, tc.f); avg != 0 {
			t.Errorf("%s allocates %.2f times per op, want 0", tc.name, avg)
		}
	}
}
