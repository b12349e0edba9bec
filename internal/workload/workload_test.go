package workload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
)

func TestReadWriteGenerator(t *testing.T) {
	w := ReadWrite{DBSize: 100, WriteProb: 0.3}
	if w.Size() != 100 {
		t.Errorf("Size = %d", w.Size())
	}
	if w.Name() == "" {
		t.Error("empty name")
	}
	rng := rand.New(rand.NewSource(1))
	writes, total := 0, 0
	for i := 0; i < 500; i++ {
		steps := w.NewTxn(rng, 8)
		if len(steps) != 8 {
			t.Fatalf("length = %d", len(steps))
		}
		for _, s := range steps {
			if s.Object < 1 || s.Object > 100 {
				t.Fatalf("object %d out of range", s.Object)
			}
			total++
			switch s.Op.Name {
			case adt.PageWrite:
				writes++
				if !s.Op.HasArg {
					t.Fatal("write without a value")
				}
			case adt.PageRead:
			default:
				t.Fatalf("unexpected op %s", s.Op.Name)
			}
		}
	}
	frac := float64(writes) / float64(total)
	if math.Abs(frac-0.3) > 0.03 {
		t.Errorf("write fraction = %.3f, want ≈0.30", frac)
	}

	typ, class := w.Factory()(core.ObjectID(5))
	if typ.Name() != "page" {
		t.Errorf("factory type = %s", typ.Name())
	}
	if class == nil {
		t.Error("nil classifier")
	}
}

func TestAbstractGenerator(t *testing.T) {
	w := Abstract{DBSize: 50, Sigma: 4, Pc: 4, Pr: 8, TableSeed: 3}
	if w.Name() == "" || w.Size() != 50 {
		t.Error("metadata wrong")
	}
	rng := rand.New(rand.NewSource(2))
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		for _, s := range w.NewTxn(rng, 6) {
			seen[s.Op.Name] = true
			if s.Op.HasArg {
				t.Fatal("abstract ops are parameterless")
			}
		}
	}
	for i := 0; i < 4; i++ {
		if !seen[adt.AbstractOpName(i)] {
			t.Errorf("op%d never drawn", i)
		}
	}

	// Factory tables are deterministic per object and respect Pc/Pr.
	f := w.Factory()
	_, c1 := f(core.ObjectID(7))
	_, c2 := f(core.ObjectID(7))
	g1 := c1.(*compat.Generated)
	g2 := c2.(*compat.Generated)
	comm, rec, _ := g1.Counts()
	if comm != 4 || rec != 8 {
		t.Errorf("counts = %d,%d, want 4,8", comm, rec)
	}
	for i := range g1.Cell {
		for j := range g1.Cell[i] {
			if g1.Cell[i][j] != g2.Cell[i][j] {
				t.Fatal("factory not deterministic per object")
			}
		}
	}
	_, c3 := f(core.ObjectID(8))
	g3 := c3.(*compat.Generated)
	same := true
	for i := range g1.Cell {
		for j := range g1.Cell[i] {
			if g1.Cell[i][j] != g3.Cell[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different objects should (generically) differ in tables")
	}
}

func TestMixGenerator(t *testing.T) {
	w := Mix{DBSize: 30, ArgRange: 5}
	if w.Name() == "" || w.Size() != 30 {
		t.Error("metadata wrong")
	}
	f := w.Factory()
	kinds := map[string]bool{}
	for id := core.ObjectID(1); id <= 30; id++ {
		typ, class := f(id)
		kinds[typ.Name()] = true
		if class == nil {
			t.Fatal("nil classifier")
		}
		if class.(*compat.Table).TypeName != typ.Name() {
			t.Fatalf("object %d: %s paired with the %s table", id, typ.Name(), class.(*compat.Table).TypeName)
		}
		if _, again := f(id + 3); again != class {
			t.Fatalf("objects %d and %d of one kind do not share a table", id, id+3)
		}
	}
	for _, k := range []string{"stack", "set", "table"} {
		if !kinds[k] {
			t.Errorf("mix never produced %s", k)
		}
	}

	// Every generated op must be applicable to its object's type.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		for _, s := range w.NewTxn(rng, 5) {
			typ, _ := f(s.Object)
			if _, err := typ.Apply(typ.New(), s.Op); err != nil {
				t.Fatalf("op %v invalid for %s: %v", s.Op, typ.Name(), err)
			}
		}
	}

	// Zero ArgRange falls back to a sane default.
	w0 := Mix{DBSize: 9}
	for _, s := range w0.NewTxn(rng, 4) {
		if s.Op.HasArg && (s.Op.Arg < 1 || s.Op.Arg > 8) {
			t.Errorf("arg %d outside default range", s.Op.Arg)
		}
	}
}

func TestShardedGenerator(t *testing.T) {
	const sites = 4
	w := Sharded{Inner: ReadWrite{DBSize: 100, WriteProb: 0.5}, Sites: sites}
	if w.Size() != 100 {
		t.Errorf("Size = %d", w.Size())
	}
	if w.Name() == "" {
		t.Error("empty name")
	}
	r := rand.New(rand.NewSource(1))
	// CrossProb 0: every transaction is single-partition and ids stay
	// in range.
	for i := 0; i < 200; i++ {
		steps := w.NewTxn(r, 8)
		if len(steps) != 8 {
			t.Fatalf("length = %d", len(steps))
		}
		home := steps[0].Object % sites
		for _, s := range steps {
			if s.Object < 1 || int(s.Object) > w.Size() {
				t.Fatalf("object %d out of range", s.Object)
			}
			if s.Object%sites != home {
				t.Fatalf("txn spans partitions without CrossProb: %v", steps)
			}
		}
	}
	// CrossProb 1 must reproduce the inner generator's spread: expect
	// many multi-partition transactions.
	wx := Sharded{Inner: ReadWrite{DBSize: 100, WriteProb: 0.5}, Sites: sites, CrossProb: 1}
	multi := 0
	for i := 0; i < 200; i++ {
		steps := wx.NewTxn(r, 8)
		parts := map[core.ObjectID]bool{}
		for _, s := range steps {
			parts[s.Object%sites] = true
		}
		if len(parts) > 1 {
			multi++
		}
	}
	if multi < 150 {
		t.Errorf("only %d/200 transactions crossed partitions under CrossProb=1", multi)
	}
	// Sites<=1 passes the inner draw through.
	w1 := Sharded{Inner: ReadWrite{DBSize: 100, WriteProb: 0.5}, Sites: 1}
	if steps := w1.NewTxn(r, 5); len(steps) != 5 {
		t.Error("degenerate sharding broke the draw")
	}
	// The factory is the inner factory: pages everywhere.
	typ, _ := w.Factory()(core.ObjectID(7))
	if _, ok := typ.(adt.Page); !ok {
		t.Errorf("factory type = %T", typ)
	}
}

// TestShardedSkew: Skew > 1 concentrates each partition's traffic on
// its hot keys without breaking partitioning, and Skew <= 1 is
// bit-identical to the unskewed draw (same RNG consumption), so
// checked-in deterministic baselines are unaffected.
func TestShardedSkew(t *testing.T) {
	const sites, size = 4, 100
	w := Sharded{Inner: ReadWrite{DBSize: size, WriteProb: 0.5}, Sites: sites, Skew: 2.0}
	r := rand.New(rand.NewSource(7))
	freq := map[core.ObjectID]int{}
	total := 0
	for i := 0; i < 500; i++ {
		steps := w.NewTxn(r, 8)
		home := steps[0].Object % sites
		for _, s := range steps {
			if s.Object < 1 || int(s.Object) > size {
				t.Fatalf("object %d out of range", s.Object)
			}
			if s.Object%sites != home {
				t.Fatalf("skewed txn spans partitions without CrossProb: %v", steps)
			}
			freq[s.Object]++
			total++
		}
	}
	// Each partition's rank-0 key is its lowest id: 1, 2, 3 and 4
	// (home 0's partition starts at Sites). Under uniform routing those
	// four of 100 keys would see ~4% of the traffic; zipf s=2 puts the
	// bulk of each partition's draws on its hot key.
	hot := freq[1] + freq[2] + freq[3] + freq[4]
	if hot < total/3 {
		t.Errorf("hot keys got %d/%d draws (%.1f%%), want skewed concentration >= 33%%",
			hot, total, 100*float64(hot)/float64(total))
	}
	if w.Name() != "sharded(read-write(p_w=0.50),sites=4,cross=0.00,skew=2.00)" {
		t.Errorf("Name = %q", w.Name())
	}

	// Sub-threshold skew is the uniform path, same RNG stream.
	a := Sharded{Inner: ReadWrite{DBSize: size, WriteProb: 0.5}, Sites: sites}
	b := Sharded{Inner: ReadWrite{DBSize: size, WriteProb: 0.5}, Sites: sites, Skew: 0.99}
	ra, rb := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		sa, sb := a.NewTxn(ra, 6), b.NewTxn(rb, 6)
		for j := range sa {
			if sa[j] != sb[j] {
				t.Fatalf("Skew<=1 diverged from unskewed draw at txn %d step %d: %v vs %v", i, j, sa[j], sb[j])
			}
		}
	}
	if a.Name() != b.Name() {
		t.Errorf("Skew<=1 changed the name: %q vs %q", a.Name(), b.Name())
	}
}
