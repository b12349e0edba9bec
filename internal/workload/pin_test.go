package workload

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
)

// TestDrawsArePinned pins what every seed draws: the first 64 steps a
// Source yields from each generator, for seeds 1 and 42, hashed. The
// goldens were recorded at commit 8f05661, before the generators drew
// from precomputed templates; every simulator trace pin and benchmark
// seed downstream depends on them, so a change to a generator must
// consume the RNG in exactly the recorded order (for Mix: object, op,
// arg, aux).
func TestDrawsArePinned(t *testing.T) {
	gens := []struct {
		name string
		gen  Generator
		want [2]string // seeds 1, 42
	}{
		{"mix", Mix{DBSize: 64, ArgRange: 8},
			[2]string{"07b835d47ad43b85", "fbd5c074bd75ee82"}},
		{"readwrite", ReadWrite{DBSize: 4096, WriteProb: 0.3},
			[2]string{"a943a1de02656de0", "c4e62c4cb1c62db9"}},
		{"pushes", Pushes{DBSize: 256},
			[2]string{"dff5214870f2b4c3", "352c0baa6ed5678b"}},
		{"abstract", Abstract{DBSize: 256, Sigma: 4, Pc: 4, Pr: 4, TableSeed: 7},
			[2]string{"d8e67c7d8f26716d", "acd25100f150c211"}},
		{"sharded-readwrite", Sharded{Inner: ReadWrite{DBSize: 4096, WriteProb: 0.3}, Sites: 2, CrossProb: 0.05},
			[2]string{"866613d6eee5e0ba", "d1f58af2d92d77a6"}},
		{"sharded-pushes", Sharded{Inner: Pushes{DBSize: 256}, Sites: 2, CrossProb: 0.1},
			[2]string{"cfb240cca1d7b1e2", "c1eac1a3f865c1ec"}},
		{"sharded-mix-skew", Sharded{Inner: Mix{DBSize: 64, ArgRange: 8}, Sites: 4, CrossProb: 0.2, Skew: 1.2},
			[2]string{"bf50e7a91f28caa1", "22f44e64662cbda6"}},
	}
	for _, g := range gens {
		for i, seed := range [2]int64{1, 42} {
			src := Source{Gen: g.gen, MinLen: 4, MaxLen: 12}
			r := rand.New(rand.NewSource(seed))
			var steps []Step
			for len(steps) < 64 {
				steps = append(steps, src.Draw(r)...)
			}
			var sb strings.Builder
			for _, s := range steps[:64] {
				fmt.Fprintf(&sb, "%d %s\n", s.Object, s.Op)
			}
			h := fnv.New64a()
			h.Write([]byte(sb.String()))
			if got := fmt.Sprintf("%016x", h.Sum64()); got != g.want[i] {
				t.Errorf("%s seed %d: draw hash %s, want %s; drew:\n%s", g.name, seed, got, g.want[i], sb.String())
			}
		}
	}
}

// TestSourceDrawAllocs: drawing a transaction resolves no
// type, builds no table and formats no name — its one allocation is the
// step slice it returns.
func TestSourceDrawAllocs(t *testing.T) {
	for _, gen := range []Generator{
		Mix{DBSize: 64, ArgRange: 8},
		ReadWrite{DBSize: 4096, WriteProb: 0.3},
		Pushes{DBSize: 256},
		Abstract{DBSize: 256, Sigma: 4, Pc: 4, Pr: 4, TableSeed: 7},
	} {
		src := Source{Gen: gen, MinLen: 4, MaxLen: 12}
		r := rand.New(rand.NewSource(1))
		if avg := testing.AllocsPerRun(500, func() { src.Draw(r) }); avg != 1 {
			t.Errorf("%s: Draw allocates %.2f times, want 1", gen.Name(), avg)
		}
	}
}
