package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/depgraph"
)

// The codec is append-style on the write side (everything goes through
// a caller-owned []byte, so steady-state calls reuse one buffer) and a
// consuming reader on the read side. Integers are little-endian fixed
// width; strings and slices carry a u32 count. Signed ints cross as
// two's-complement u64; a bool crosses as a u8, 1 for true.

func appendU8(b []byte, v uint8) []byte   { return append(b, v) }
func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return appendU64(b, uint64(v)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// reader consumes a payload; the first decode error sticks and every
// later read returns zero values, so call sites check err once at the
// end instead of after every field.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated %s", what)
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || len(r.b) < 1 {
		r.fail("u8")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) str() string { return string(r.strBytes()) }

// strBytes reads a string as a view into the payload, valid until the
// frame buffer is reused.
func (r *reader) strBytes() []byte {
	n := r.u32()
	if r.err != nil || uint64(len(r.b)) < uint64(n) {
		r.fail("string")
		return nil
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

// count reads a u32 element count, bounding it by the bytes that
// remain so a corrupt frame cannot drive a huge allocation.
func (r *reader) count(minElem int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if minElem > 0 && n > len(r.b)/minElem {
		r.fail("count")
		return 0
	}
	return n
}

// ---- protocol values ----

func appendOp(b []byte, op adt.Op) []byte {
	b = appendStr(b, op.Name)
	var flags uint8
	if op.HasArg {
		flags |= 1
	}
	if op.HasAux {
		flags |= 2
	}
	b = appendU8(b, flags)
	if op.HasArg {
		b = appendI64(b, int64(op.Arg))
	}
	if op.HasAux {
		b = appendI64(b, int64(op.Aux))
	}
	return b
}

func (r *reader) op() adt.Op {
	var op adt.Op
	op.Name = adt.CanonicalOpName(r.strBytes())
	flags := r.u8()
	if flags&1 != 0 {
		op.HasArg = true
		op.Arg = int(r.i64())
	}
	if flags&2 != 0 {
		op.HasAux = true
		op.Aux = int(r.i64())
	}
	return op
}

// appendRequest encodes a kRequest body after the site id: the
// transaction, whether this request carries its begin, the object and
// the operation.
func appendRequest(b []byte, id core.TxnID, begin bool, obj core.ObjectID, op adt.Op) []byte {
	b = appendU64(b, uint64(id))
	b = appendBool(b, begin)
	b = appendU64(b, uint64(obj))
	return appendOp(b, op)
}

func (r *reader) request() (id core.TxnID, begin bool, obj core.ObjectID, op adt.Op) {
	id = core.TxnID(r.u64())
	begin = r.u8() == 1
	obj = core.ObjectID(r.u64())
	return id, begin, obj, r.op()
}

func appendRet(b []byte, ret adt.Ret) []byte {
	b = appendU8(b, uint8(ret.Code))
	return appendI64(b, int64(ret.Val))
}

func (r *reader) ret() adt.Ret {
	return adt.Ret{Code: adt.Code(r.u8()), Val: int(r.i64())}
}

func appendEffects(b []byte, eff *core.Effects) []byte {
	b = appendU32(b, uint32(len(eff.Grants)))
	for _, g := range eff.Grants {
		b = appendU64(b, uint64(g.Txn))
		b = appendU64(b, uint64(g.Object))
		b = appendOp(b, g.Op)
		b = appendRet(b, g.Ret)
	}
	b = appendU32(b, uint32(len(eff.RetryAborts)))
	for _, ra := range eff.RetryAborts {
		b = appendU64(b, uint64(ra.Txn))
		b = appendU8(b, uint8(ra.Reason))
	}
	b = appendU32(b, uint32(len(eff.Committed)))
	for _, id := range eff.Committed {
		b = appendU64(b, uint64(id))
	}
	return b
}

// effects decodes into eff, appending (the caller owns Reset, matching
// the *Into convention).
func (r *reader) effects(eff *core.Effects) {
	for n := r.count(18); n > 0; n-- {
		g := core.Grant{Txn: core.TxnID(r.u64()), Object: core.ObjectID(r.u64())}
		g.Op = r.op()
		g.Ret = r.ret()
		eff.Grants = append(eff.Grants, g)
	}
	for n := r.count(9); n > 0; n-- {
		eff.RetryAborts = append(eff.RetryAborts, core.RetryAbort{
			Txn: core.TxnID(r.u64()), Reason: core.AbortReason(r.u8()),
		})
	}
	for n := r.count(8); n > 0; n-- {
		eff.Committed = append(eff.Committed, core.TxnID(r.u64()))
	}
}

func appendEdges(b []byte, edges []depgraph.Edge) []byte {
	b = appendU32(b, uint32(len(edges)))
	for _, e := range edges {
		b = appendU64(b, uint64(e.From))
		b = appendU64(b, uint64(e.To))
		b = appendU8(b, uint8(e.Kind))
	}
	return b
}

func (r *reader) edges(buf []depgraph.Edge) []depgraph.Edge {
	for n := r.count(17); n > 0; n-- {
		buf = append(buf, depgraph.Edge{
			From: depgraph.TxnID(r.u64()),
			To:   depgraph.TxnID(r.u64()),
			Kind: depgraph.EdgeKind(r.u8()),
		})
	}
	return buf
}

// edgeSet is one transaction's out-edge export inside a batched edge
// report.
type edgeSet struct {
	txn   core.TxnID
	edges []depgraph.Edge
}

func (r *reader) edgeSets() []edgeSet {
	n := r.count(12)
	sets := make([]edgeSet, 0, n)
	for ; n > 0; n-- {
		s := edgeSet{txn: core.TxnID(r.u64())}
		s.edges = r.edges(nil)
		sets = append(sets, s)
	}
	return sets
}

func appendStats(b []byte, st core.Stats) []byte {
	for _, v := range []uint64{
		st.Executes, st.Blocks, st.Grants, st.Aborts, st.DeadlockAborts,
		st.CycleAborts, st.Withdrawals, st.Commits, st.PseudoCommits,
		st.CycleChecks, st.CommitDepEdges, st.WaitForEdges,
	} {
		b = appendU64(b, v)
	}
	return b
}

func (r *reader) stats() core.Stats {
	return core.Stats{
		Executes: r.u64(), Blocks: r.u64(), Grants: r.u64(), Aborts: r.u64(),
		DeadlockAborts: r.u64(), CycleAborts: r.u64(), Withdrawals: r.u64(),
		Commits: r.u64(), PseudoCommits: r.u64(), CycleChecks: r.u64(),
		CommitDepEdges: r.u64(), WaitForEdges: r.u64(),
	}
}

// appendErrResp builds a kErr payload from an error.
func appendErrResp(b []byte, err error) []byte {
	code, txn, reason, msg := encodeErr(err)
	b = appendU8(b, code)
	b = appendU64(b, uint64(txn))
	b = appendU8(b, uint8(reason))
	return appendStr(b, msg)
}

// errResp decodes a kErr payload back into a typed error.
func (r *reader) errResp() error {
	code := r.u8()
	txn := core.TxnID(r.u64())
	reason := core.AbortReason(r.u8())
	msg := r.str()
	if r.err != nil {
		return r.err
	}
	return decodeErr(code, txn, reason, msg)
}

// sanity bound for i64 values that should be small non-negative counts.
func clampLen(v int64) int {
	if v < 0 || v > math.MaxInt32 {
		return -1
	}
	return int(v)
}
