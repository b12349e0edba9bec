package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/telemetry"
)

// frameOverhead is the on-wire cost of a frame beyond its payload:
// u32 length + u64 correlation id + u8 kind.
const frameOverhead = 4 + 8 + 1

// kindTrace is the kind-byte flag marking a trace block between the
// header and the payload. The block is length-prefixed —
//
//	u8 blockLen | u64 trace id | u64 parent span | u8 flags | ...
//
// — so a decoder reads the fields it knows and skips the rest: a newer
// sender can extend the block without breaking an older receiver
// (forward compatibility), and a receiver that predates tracing still
// fails loudly on the unknown kind bit rather than misparsing the
// payload.
const kindTrace uint8 = 0x80

// traceBlockKnown is the size of the trace-block fields this version
// writes and understands.
const traceBlockKnown = 8 + 8 + 1

// writeFrame appends one frame to w: length prefix, correlation id,
// kind, payload. A valid trace context sets the kindTrace bit and
// travels between the header and the payload, so the receiving process
// stitches its spans into the sender's trace; an invalid (zero) one
// writes a plain frame — the wire carries no tracing overhead when
// tracing is off. The caller flushes: the server's send and the Peer's
// roundTrip and oneway each flush after every frame, under the
// connection's write lock, so every frame costs one write syscall and
// nothing is batched (DESIGN.md, "Wire protocol", says where batching
// would go).
func writeFrame(w *bufio.Writer, corr uint64, kind uint8, tc telemetry.TraceContext, payload []byte) error {
	var buf [13 + 1 + traceBlockKnown]byte
	hdr := buf[:13]
	if tc.Valid() {
		hdr = buf[:]
		kind |= kindTrace
		hdr[13] = traceBlockKnown
		binary.LittleEndian.PutUint64(hdr[14:22], tc.Trace)
		binary.LittleEndian.PutUint64(hdr[22:30], tc.Span)
		hdr[30] = tc.Flags
	}
	n := len(hdr) - 4 + len(payload)
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	binary.LittleEndian.PutUint64(hdr[4:12], corr)
	hdr[12] = kind
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// splitTrace strips a received frame's trace block: it returns the
// base kind, the decoded context, and the payload proper. Unknown
// trailing block bytes (a newer sender) are skipped; a block shorter
// than the known fields decodes the prefix it carries and leaves the
// rest zero.
func splitTrace(kind uint8, payload []byte) (uint8, telemetry.TraceContext, []byte, error) {
	if kind&kindTrace == 0 {
		return kind, telemetry.TraceContext{}, payload, nil
	}
	if len(payload) < 1 {
		return 0, telemetry.TraceContext{}, nil, fmt.Errorf("wire: truncated trace block")
	}
	bl := int(payload[0])
	if len(payload) < 1+bl {
		return 0, telemetry.TraceContext{}, nil, fmt.Errorf("wire: truncated trace block (%d of %d bytes)", len(payload)-1, bl)
	}
	block := payload[1 : 1+bl]
	var tc telemetry.TraceContext
	if len(block) >= 8 {
		tc.Trace = binary.LittleEndian.Uint64(block)
		block = block[8:]
	}
	if len(block) >= 8 {
		tc.Span = binary.LittleEndian.Uint64(block)
		block = block[8:]
	}
	if len(block) >= 1 {
		tc.Flags = block[0]
	}
	return kind &^ kindTrace, tc, payload[1+bl:], nil
}

// readFrame reads one frame, reusing buf when it is large enough. The
// returned payload aliases the (possibly grown) buffer, which is also
// returned for reuse.
func readFrame(r *bufio.Reader, buf []byte) (corr uint64, kind uint8, payload, newBuf []byte, err error) {
	var hdr [13]byte
	if _, err = io.ReadFull(r, hdr[:4]); err != nil {
		return 0, 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n < 9 || n > MaxFrame {
		return 0, 0, nil, buf, fmt.Errorf("wire: bad frame length %d", n)
	}
	if _, err = io.ReadFull(r, hdr[4:13]); err != nil {
		return 0, 0, nil, buf, err
	}
	corr = binary.LittleEndian.Uint64(hdr[4:12])
	kind = hdr[12]
	body := int(n) - 9
	if cap(buf) < body {
		buf = make([]byte, body+256)
	}
	payload = buf[:body]
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, buf, err
	}
	return corr, kind, payload, buf, nil
}
