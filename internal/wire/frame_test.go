package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// TestTraceBlockRoundTrip pins the trace-context frame encoding: a
// valid context rides the kindTrace bit and a length-prefixed block,
// decodes bit-identically, and leaves the payload untouched; an
// invalid context produces a plain frame.
func TestTraceBlockRoundTrip(t *testing.T) {
	tc := telemetry.TraceContext{Trace: 0xdeadbeefcafe, Span: 0x1234, Flags: telemetry.TraceSampled}
	payload := []byte{1, 2, 3, 4, 5}

	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeFrame(bw, 7, kCommitHold, tc, payload); err != nil {
		t.Fatal(err)
	}
	bw.Flush()

	br := bufio.NewReader(bytes.NewReader(buf.Bytes()))
	corr, kind, body, _, err := readFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if corr != 7 {
		t.Errorf("corr = %d, want 7", corr)
	}
	if kind&kindTrace == 0 {
		t.Fatal("trace bit not set on the wire")
	}
	base, got, rest, err := splitTrace(kind, body)
	if err != nil {
		t.Fatal(err)
	}
	if base != kCommitHold {
		t.Errorf("base kind = %#x, want %#x", base, kCommitHold)
	}
	if got != tc {
		t.Errorf("context = %+v, want %+v", got, tc)
	}
	if !bytes.Equal(rest, payload) {
		t.Errorf("payload = %v, want %v", rest, payload)
	}

	// Invalid context: plain frame, no trace bit, splitTrace passthrough.
	buf.Reset()
	bw = bufio.NewWriter(&buf)
	if err := writeFrame(bw, 8, kCommit, telemetry.TraceContext{}, payload); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	br = bufio.NewReader(bytes.NewReader(buf.Bytes()))
	_, kind, body, _, err = readFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if kind&kindTrace != 0 {
		t.Fatal("plain frame carries the trace bit")
	}
	base, got, rest, err = splitTrace(kind, body)
	if err != nil || base != kCommit || got.Valid() || !bytes.Equal(rest, payload) {
		t.Errorf("plain passthrough = (%#x, %+v, %v, %v)", base, got, rest, err)
	}
}

// TestTraceBlockForwardCompat pins the unknown-field rule: a block
// longer than this version's known fields (a newer sender) decodes the
// known prefix and skips the rest; a shorter block decodes what it
// carries; a truncated block is a loud error, not a misparse.
func TestTraceBlockForwardCompat(t *testing.T) {
	mkBlock := func(blockLen int, tc telemetry.TraceContext, payload []byte) []byte {
		b := []byte{byte(blockLen)}
		var f [17]byte
		binary.LittleEndian.PutUint64(f[0:8], tc.Trace)
		binary.LittleEndian.PutUint64(f[8:16], tc.Span)
		f[16] = tc.Flags
		if blockLen <= len(f) {
			b = append(b, f[:blockLen]...)
		} else {
			b = append(b, f[:]...)
			for i := len(f); i < blockLen; i++ {
				b = append(b, 0xee) // future fields
			}
		}
		return append(b, payload...)
	}
	tc := telemetry.TraceContext{Trace: 42, Span: 43, Flags: 1}
	payload := []byte{9, 9, 9}

	// Newer sender: 8 extra bytes after the known fields.
	base, got, rest, err := splitTrace(kCommit|kindTrace, mkBlock(17+8, tc, payload))
	if err != nil || base != kCommit || got != tc || !bytes.Equal(rest, payload) {
		t.Errorf("extended block = (%#x, %+v, %v, %v)", base, got, rest, err)
	}

	// Older sender: trace id only (8-byte block).
	base, got, rest, err = splitTrace(kCommit|kindTrace, mkBlock(8, tc, payload))
	if err != nil || got.Trace != 42 || got.Span != 0 || got.Flags != 0 || !bytes.Equal(rest, payload) {
		t.Errorf("short block = (%#x, %+v, %v, %v)", base, got, rest, err)
	}

	// Truncated block: blockLen promises more bytes than the frame has.
	if _, _, _, err := splitTrace(kCommit|kindTrace, []byte{17, 1, 2, 3}); err == nil {
		t.Error("truncated block decoded without error")
	}
	if _, _, _, err := splitTrace(kCommit|kindTrace, nil); err == nil {
		t.Error("empty traced payload decoded without error")
	}
}

// FuzzFrame feeds untrusted bytes through what a server's read loop
// and a peer's decoders do with them — readFrame, splitTrace, then
// every reader decoder over the payload, the begin-flagged request
// body and the first Do's id-before-Ret answer among them — and
// requires no panic and no allocation beyond one MaxFrame buffer plus
// a constant factor of the bytes the input actually carries (a length
// or count field alone must not buy memory). It also round-trips
// writeFrame for arbitrary
// (corr, kind, trace context, payload), pinning the frame's byte size.
func FuzzFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, corr uint64, kind uint8, trace, span uint64, flags uint8, payload []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for {
			_, k, body, nbuf, err := readFrame(br, buf)
			if err != nil {
				break
			}
			buf = nbuf
			if _, _, body, err = splitTrace(k, body); err != nil {
				continue
			}
			(&reader{b: body}).op()
			(&reader{b: body}).request()
			answer := &reader{b: body}
			answer.u64()
			answer.ret()
			var eff core.Effects
			(&reader{b: body}).effects(&eff)
			(&reader{b: body}).edgeSets()
			_ = (&reader{b: body}).errResp()
			(&reader{b: body}).stats()
		}
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(MaxFrame+64*len(data)+64<<10); grew > limit {
			t.Fatalf("decoding %d input bytes allocated %d bytes (limit %d)", len(data), grew, limit)
		}

		kind &^= kindTrace
		tc := telemetry.TraceContext{Trace: trace, Span: span, Flags: flags}
		var wb bytes.Buffer
		bw := bufio.NewWriter(&wb)
		if err := writeFrame(bw, corr, kind, tc, payload); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		size := frameOverhead + len(payload)
		if tc.Valid() {
			size += 1 + traceBlockKnown
		} else {
			tc = telemetry.TraceContext{}
		}
		if wb.Len() != size {
			t.Fatalf("frame is %d bytes, want %d", wb.Len(), size)
		}
		gotCorr, gotKind, body, _, err := readFrame(bufio.NewReader(&wb), nil)
		if err != nil {
			t.Fatal(err)
		}
		base, gotTC, rest, err := splitTrace(gotKind, body)
		if err != nil || gotCorr != corr || base != kind || gotTC != tc || !bytes.Equal(rest, payload) {
			t.Fatalf("round trip = (%d, %#x, %+v, %x, %v), want (%d, %#x, %+v, %x)",
				gotCorr, base, gotTC, rest, err, corr, kind, tc, payload)
		}
	})
}
