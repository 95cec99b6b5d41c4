package measure

import (
	"fmt"
	"math/rand"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/order"
	"ursa/internal/reuse"
)

const paperSrc = `
func paper {
entry:
	v = load V[0]       ; A
	w = muli v, 2       ; B
	x = muli v, 3       ; C
	y = addi v, 5       ; D
	t1 = add w, x       ; E
	t2 = mul w, x       ; F
	t3 = muli y, 2      ; G
	t4 = divi y, 3      ; H
	t5 = div t1, t2     ; I
	t6 = add t3, t4     ; J
	z = add t5, t6      ; K
}
`

func paperGraph(t testing.TB) *dag.Graph {
	t.Helper()
	f := ir.MustParse(paperSrc)
	g, err := dag.Build(f.Blocks[0])
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestPaperFURequirement(t *testing.T) {
	g := paperGraph(t)
	res := Measure(reuse.FU(g, reuse.AllFUs))
	if res.Width != 4 {
		t.Errorf("FU width = %d, want 4 (paper Fig 2)", res.Width)
	}
	if err := order.ValidateDecomposition(res.R.Rel, res.Chains); err != nil {
		t.Errorf("decomposition invalid: %v", err)
	}
}

func TestPaperRegRequirement(t *testing.T) {
	g := paperGraph(t)
	res := Measure(reuse.Reg(g, ir.ClassInt))
	if res.Width != 5 {
		t.Errorf("register width = %d, want 5 (paper Fig 2)", res.Width)
	}
	if err := order.ValidateDecomposition(res.R.Rel, res.Chains); err != nil {
		t.Errorf("decomposition invalid: %v", err)
	}
}

func TestChainOfConsistency(t *testing.T) {
	g := paperGraph(t)
	res := Measure(reuse.FU(g, reuse.AllFUs))
	for ci, c := range res.Chains {
		for _, it := range c {
			if res.ChainOf[it] != ci {
				t.Errorf("ChainOf[%d] = %d, want %d", it, res.ChainOf[it], ci)
			}
		}
	}
}

func TestFindExcessFU(t *testing.T) {
	g := paperGraph(t)
	res := Measure(reuse.FU(g, reuse.AllFUs))
	hs := g.Hammocks()
	sets := FindExcess(res, hs, 3)
	if len(sets) == 0 {
		t.Fatal("no excessive set found for limit 3 on width-4 DAG")
	}
	reach := g.Reach()
	for _, set := range sets {
		if set.Excess() < 1 {
			t.Errorf("set %v has no excess", set)
		}
		// Heads pairwise independent; tails pairwise independent (Def 6).
		heads := make([]int, len(set.Chains))
		tails := make([]int, len(set.Chains))
		for i, c := range set.Chains {
			heads[i] = res.R.Items[c[0]].Node
			tails[i] = res.R.Items[c[len(c)-1]].Node
		}
		for i := range heads {
			for j := i + 1; j < len(heads); j++ {
				if reach.Has(heads[i], heads[j]) || reach.Has(heads[j], heads[i]) {
					t.Errorf("heads %d,%d dependent", heads[i], heads[j])
				}
				if reach.Has(tails[i], tails[j]) || reach.Has(tails[j], tails[i]) {
					t.Errorf("tails %d,%d dependent", tails[i], tails[j])
				}
			}
		}
		// All chain members lie in the hammock.
		for _, c := range set.Chains {
			for _, it := range c {
				if !set.Hammock.Contains(res.R.Items[it].Node) {
					t.Errorf("item %d outside hammock", it)
				}
			}
		}
	}
}

func TestNoExcessWhenEnoughResources(t *testing.T) {
	g := paperGraph(t)
	res := Measure(reuse.FU(g, reuse.AllFUs))
	hs := g.Hammocks()
	if sets := FindExcess(res, hs, 4); len(sets) != 0 {
		t.Errorf("limit 4 on width-4 DAG produced %d excessive sets", len(sets))
	}
	if sets := FindExcess(res, hs, 11); len(sets) != 0 {
		t.Errorf("limit 11 produced %d excessive sets", len(sets))
	}
	// Hammocks within the limit are counted, not projected.
	if n := testing.AllocsPerRun(10, func() { FindExcess(res, hs, 4) }); n != 0 {
		t.Errorf("FindExcess within the limit allocated %.0f times; want 0", n)
	}
}

func TestExcessRegLimits(t *testing.T) {
	g := paperGraph(t)
	res := Measure(reuse.Reg(g, ir.ClassInt))
	hs := g.Hammocks()
	for limit := 1; limit < 5; limit++ {
		sets := FindExcess(res, hs, limit)
		if len(sets) == 0 {
			t.Errorf("limit %d on width-5 register order: no excessive set", limit)
		}
	}
	if sets := FindExcess(res, hs, 5); len(sets) != 0 {
		t.Errorf("limit 5: unexpected excess")
	}
}

// TestExcessChainsAreIndependent: the chains of an excessive set share
// one buffer, so appending to one of them must leave the others intact.
func TestExcessChainsAreIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sets := 0
	for trial := 0; trial < 80; trial++ {
		g, err := dag.Build(randomBlock(rng, 6+rng.Intn(12)).Blocks[0])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		hs := g.Hammocks()
		for _, r := range []*reuse.Reuse{reuse.FU(g, reuse.AllFUs), reuse.Reg(g, ir.ClassInt)} {
			res := Measure(r)
			for limit := 1; limit < res.Width; limit++ {
				for _, set := range FindExcess(res, hs, limit) {
					sets++
					want := fmt.Sprint(set.Chains)
					for _, c := range set.Chains {
						_ = append(c, -1)
					}
					if got := fmt.Sprint(set.Chains); got != want {
						t.Fatalf("trial %d limit %d: appending changed the chains to %s, want %s", trial, limit, got, want)
					}
				}
			}
		}
	}
	if sets == 0 {
		t.Fatal("no excessive set found")
	}
}

func randomBlock(rng *rand.Rand, n int) *ir.Func {
	f := ir.NewFunc("rand")
	b := f.NewBlock("entry")
	var vals []ir.VReg
	for i := 0; i < n; i++ {
		dst := f.NewReg(fmt.Sprintf("v%d", i), ir.ClassInt)
		switch {
		case len(vals) == 0 || rng.Intn(4) == 0:
			b.Append(&ir.Instr{Op: ir.ConstI, Dst: dst, Imm: int64(rng.Intn(100))})
		case rng.Intn(3) == 0:
			a := vals[rng.Intn(len(vals))]
			b.Append(&ir.Instr{Op: ir.MulI, Dst: dst, Args: []ir.VReg{a}, Imm: 2})
		default:
			a := vals[rng.Intn(len(vals))]
			c := vals[rng.Intn(len(vals))]
			b.Append(&ir.Instr{Op: ir.Add, Dst: dst, Args: []ir.VReg{a, c}})
		}
		vals = append(vals, dst)
	}
	return f
}

// TestWidthMatchesBruteForce is the key correctness property: the matching-
// based width must equal the brute-force maximum antichain for both
// resources on random small DAGs (Dilworth's theorem realized correctly).
func TestWidthMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 80; trial++ {
		f := randomBlock(rng, 3+rng.Intn(10))
		g, err := dag.Build(f.Blocks[0])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, r := range []*reuse.Reuse{reuse.FU(g, reuse.AllFUs), reuse.Reg(g, ir.ClassInt)} {
			res := Measure(r)
			want := len(order.MaxAntichainBrute(r.Rel, nil))
			if res.Width != want {
				t.Fatalf("trial %d: width %d != brute force %d", trial, res.Width, want)
			}
			if err := order.ValidateDecomposition(r.Rel, res.Chains); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

// TestPrioritizedMatchingMinimalInNestedHammocks checks the §3.1 property
// motivating the prioritized matching: the decomposition's projection onto a
// nested hammock is also minimal for that hammock.
func TestPrioritizedMatchingMinimalInNestedHammocks(t *testing.T) {
	g := paperGraph(t)
	r := reuse.FU(g, reuse.AllFUs)
	res := Measure(r)
	hs := g.Hammocks()
	reach := g.Reach()
	for _, h := range hs {
		// Project: count chains intersecting the hammock's instruction set.
		var items []int
		for i, it := range r.Items {
			if h.Contains(it.Node) {
				items = append(items, i)
			}
		}
		if len(items) == 0 {
			continue
		}
		projChains := make(map[int]bool)
		for _, i := range items {
			projChains[res.ChainOf[i]] = true
		}
		// Minimal chain count for the hammock = width of its sub-order.
		sub := order.NewRelation(r.NumItems())
		for _, a := range items {
			for _, b := range items {
				if a != b && (reach.Has(r.Items[a].Node, r.Items[b].Node) ||
					r.Items[a].Node == r.Items[b].Node) {
					sub.Add(a, b)
				}
			}
		}
		want := len(order.MaxAntichainBrute(sub, items))
		if len(projChains) != want {
			t.Errorf("hammock %d..%d: projection uses %d chains, width is %d",
				h.Entry, h.Exit, len(projChains), want)
		}
	}
}

func BenchmarkMeasurePaper(b *testing.B) {
	g := paperGraph(b)
	for i := 0; i < b.N; i++ {
		Measure(reuse.Reg(g, ir.ClassInt))
	}
}
