package wire

import (
	"testing"

	"repro/internal/adt"
)

// TestOpDecodeZeroAllocs: decoding an operation of a built-in type
// returns the type's name constant, not a copy of the frame's bytes —
// the decoded Op is what object logs and prepared records retain. An
// unknown name still round-trips (as a copy: the frame buffer is reused).
func TestOpDecodeZeroAllocs(t *testing.T) {
	types := []adt.Type{adt.Page{}, adt.Stack{}, adt.Set{}, adt.KTable{}, adt.Abstract{Sigma: 4}}
	for _, typ := range types {
		for _, sp := range typ.Specs() {
			in := sp.Invoke(3, 7)
			b := appendOp(nil, in)
			var out adt.Op
			var r reader
			allocs := testing.AllocsPerRun(100, func() {
				r = reader{b: b}
				out = r.op()
			})
			if r.err != nil || len(r.b) != 0 || out != in {
				t.Fatalf("%s.%s: decoded %+v (err %v, %d bytes left), want %+v", typ.Name(), sp.Name, out, r.err, len(r.b), in)
			}
			if allocs != 0 {
				t.Errorf("%s.%s: decode allocates %.0f times, want 0", typ.Name(), sp.Name, allocs)
			}
		}
	}

	b := appendOp(nil, adt.Op{Name: "custom-op", Arg: 1, HasArg: true})
	r := reader{b: b}
	out := r.op()
	b[4] = 'X' // the frame buffer moves on
	if r.err != nil || out.Name != "custom-op" {
		t.Fatalf("unknown name decoded as %q (err %v)", out.Name, r.err)
	}
}
