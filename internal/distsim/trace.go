package distsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// fnvOffset/fnvPrime are the FNV-1a 64-bit constants.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// tracef appends one trace line: the line is always folded into the
// run's FNV-1a hash (the determinism fingerprint) and kept verbatim
// only when Config.RecordTrace asks for it. Times are printed with
// fixed precision so the byte stream — and therefore the hash — is a
// pure function of the event sequence.
func (e *Engine) tracef(format string, args ...any) {
	if e.draining {
		// The post-target drain is measurement-only: the hash (and the
		// recorded trace) freeze at the completion target, so a
		// policy-off run stays bit-identical to the checked-in
		// baselines whether or not a drain phase follows.
		return
	}
	line := fmt.Sprintf("t=%.6f ", e.tl.Now()) + fmt.Sprintf(format, args...)
	h := e.traceHash
	for i := 0; i < len(line); i++ {
		h ^= uint64(line[i])
		h *= fnvPrime
	}
	h ^= '\n'
	h *= fnvPrime
	e.traceHash = h
	e.traceLines++
	if e.cfg.RecordTrace {
		e.trace = append(e.trace, line)
	}
}

// span records one causal span stamped from the virtual clock. Span
// emission is deliberately decoupled from tracef: it never touches the
// trace hash, never draws randomness, and keeps recording through the
// drain phase, so a run's determinism fingerprint is bit-identical
// with the span plane on or off. With it off the buffer is nil, and
// this is a no-op.
func (e *Engine) span(kind telemetry.SpanKind, txn core.TxnID, site int, object, wave, dur int64) {
	e.spans.Record(e.spans.Context(uint64(txn)), kind, uint64(txn), int32(site), object, wave, dur)
}

// completeSpan folds the transaction's finished trace into the
// exemplar store with the given virtual latency (seconds).
func (e *Engine) completeSpan(txn core.TxnID, latency float64) {
	e.spans.Complete(e.spans.Context(uint64(txn)), uint64(txn), int64(latency*1e9))
}
