package reuse

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/order"
	"ursa/internal/workload"
)

func relEqual(a, b *order.Relation) bool {
	if a.Size() != b.Size() {
		return false
	}
	for i := 0; i < a.Size(); i++ {
		if !a.Row(i).SubsetOf(b.Row(i)) || !b.Row(i).SubsetOf(a.Row(i)) {
			return false
		}
	}
	return true
}

// addRandomSeqEdge adds one cycle-safe sequencing edge between instruction
// nodes and maintains the closure, reporting whether it found one.
func addRandomSeqEdge(rng *rand.Rand, g *dag.Graph, reach *order.Relation) bool {
	nodes := g.InstrNodes()
	for tries := 0; tries < 50; tries++ {
		a := nodes[rng.Intn(len(nodes))]
		b := nodes[rng.Intn(len(nodes))]
		if a == b || g.HasEdge(a, b) || reach.Has(b, a) {
			continue
		}
		g.AddEdge(a, b, dag.EdgeSeq)
		reach.AddClosureEdge(a, b)
		return true
	}
	return false
}

// specs are the item specs the builder tests drive: every instruction,
// the memory instructions, and both register classes.
var specs = []Spec{FUSpec(AllFUs), FUSpec(KindFUs(ir.KindMem)), RegSpec(ir.ClassInt), RegSpec(ir.ClassFP)}

// addValueNode appends a constant instruction defining a new integer value,
// wired between root and leaf, as a spill's reload adds a node and a
// register.
func addValueNode(g *dag.Graph) {
	v := g.AddInstr(&ir.Instr{Op: ir.ConstI, Dst: g.Func.NewReg("", ir.ClassInt)})
	g.AddEdge(g.Root, v, dag.EdgeSeq)
	g.AddEdge(v, g.Leaf, dag.EdgeSeq)
}

// TestBuilderMatchesRebuild drives one builder per spec across random
// graphs, each measured once (prev) and then changed by sequencing edges
// or by an added value node, and checks every build against a one-shot
// build of the changed graph: the same items, kills and relation, use
// lists equal to g.UseNodes, and a report that is Rebuilt exactly when
// the items or kills differ from prev's, and Unchanged — with prev
// returned — exactly when the relation is prev's too.
func TestBuilderMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	bs := make([]Builder, len(specs))
	var counts [Unchanged + 1]int
	for trial := 0; trial < 120; trial++ {
		n := 4 + rng.Intn(12)
		if trial%4 == 3 {
			n = 70 + rng.Intn(100) // closure rows of several words
		}
		f := randomBlock(rng, n)
		g, err := dag.Build(f.Blocks[0])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		prevs := make([]*Reuse, len(specs))
		for si := range specs {
			prevs[si] = specs[si].Build(g, g.Reach(), g.Depths())
		}
		base, reach := g.Reach(), g.Reach()
		for step := 0; step < 3; step++ {
			if step == 2 && trial%2 == 0 {
				addValueNode(g)
				reach = g.Reach()
			} else if !addRandomSeqEdge(rng, g, reach) {
				break
			}
			depths := g.Depths()
			for si := range specs {
				s, prev := &specs[si], prevs[si]
				got, change := bs[si].Build(g, s, reach, depths, prev, base)
				want := s.Build(g, g.Reach(), g.Depths())
				if !slices.Equal(got.Items, want.Items) || !slices.Equal(got.Kill, want.Kill) || !relEqual(got.Rel, want.Rel) {
					t.Fatalf("trial %d step %d spec %d: build differs from the one-shot build", trial, step, si)
				}
				wantChange := Rebuilt
				if slices.Equal(want.Items, prev.Items) && slices.Equal(want.Kill, prev.Kill) {
					wantChange = Grown
					if relEqual(want.Rel, prev.Rel) {
						wantChange = Unchanged
					}
				}
				if change != wantChange {
					t.Fatalf("trial %d step %d spec %d: reported change %d, want %d", trial, step, si, change, wantChange)
				}
				if change == Unchanged && got != prev {
					t.Fatalf("trial %d step %d spec %d: unchanged build did not return prev", trial, step, si)
				}
				counts[change]++
				if s.Values {
					for i, it := range got.Items {
						if u := g.UseNodes(it.Reg); !slices.Equal(bs[si].uses[i], u) {
							t.Fatalf("trial %d: uses of item %d = %v, UseNodes says %v", trial, i, bs[si].uses[i], u)
						}
					}
				}
			}
		}
	}
	if counts[Rebuilt] == 0 || counts[Grown] == 0 || counts[Unchanged] == 0 {
		t.Errorf("%d builds rebuilt, %d grown and %d unchanged; want all three", counts[Rebuilt], counts[Grown], counts[Unchanged])
	}
}

// liveInBlock is randomBlock with k live-in registers among the operands:
// they are read but never defined, so they become items produced at the
// root, all sharing that node.
func liveInBlock(rng *rand.Rand, n, k int) *ir.Func {
	f := ir.NewFunc("livein")
	b := f.NewBlock("entry")
	var vals []ir.VReg
	for i := 0; i < k; i++ {
		vals = append(vals, f.NewReg(fmt.Sprintf("in%d", i), ir.ClassInt))
	}
	for i := 0; i < n; i++ {
		dst := f.NewReg(fmt.Sprintf("v%d", i), ir.ClassInt)
		switch {
		case len(vals) == 0 || rng.Intn(5) == 0:
			b.Append(&ir.Instr{Op: ir.ConstI, Dst: dst, Imm: int64(rng.Intn(100))})
		default:
			a := vals[rng.Intn(len(vals))]
			c := vals[rng.Intn(len(vals))]
			b.Append(&ir.Instr{Op: ir.Add, Dst: dst, Args: []ir.VReg{a, c}})
		}
		vals = append(vals, dst)
	}
	return f
}

// pairwiseRel is CanReuse_R by its definition, one item pair at a time:
// (a, b) iff a's kill node (an FU item's own node) is b's producer or
// reaches it, a != b, and a is not killed at the leaf.
func pairwiseRel(r *Reuse, reach *order.Relation) *order.Relation {
	rel := order.NewRelation(r.NumItems())
	for i, a := range r.Items {
		k := a.Node
		if r.Kill != nil {
			k = r.Kill[i]
		}
		if k < 0 {
			continue
		}
		for j, b := range r.Items {
			if i != j && (k == b.Node || reach.Has(k, b.Node)) {
				rel.Add(i, j)
			}
		}
	}
	return rel
}

// TestFillRelMatchesPairwise holds the word-level pair derivation — one-shot
// builds and builder builds after sequencing edges — to the pairwise
// definition on blocks of up to ~200 nodes, across word boundaries and
// with live-in values sharing the root.
func TestFillRelMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var b Builder
	shared := 0 // register orders with several live-ins at the root
	for trial := 0; trial < 60; trial++ {
		f := liveInBlock(rng, 2+rng.Intn(200), rng.Intn(4))
		g, err := dag.Build(f.Blocks[0])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for si := range specs[:3] {
			s := &specs[si]
			r := s.Build(g, g.Reach(), g.Depths())
			atRoot := 0
			for _, it := range r.Items {
				if it.Node == g.Root {
					atRoot++
				}
			}
			if atRoot > 1 {
				shared++
			}
			reach := g.Reach()
			if !relEqual(r.Rel, pairwiseRel(r, reach)) {
				t.Fatalf("trial %d (reg=%v): built relation differs from the pairwise definition", trial, r.IsReg)
			}
			cl := g.Clone()
			for step := 0; step < 4; step++ {
				if !addRandomSeqEdge(rng, cl, reach) {
					break
				}
			}
			dst, _ := b.Build(cl, s, reach, cl.Depths(), r, g.Reach())
			if !relEqual(dst.Rel, pairwiseRel(dst, reach)) {
				t.Fatalf("trial %d (reg=%v): rebuilt relation differs from the pairwise definition", trial, r.IsReg)
			}
		}
	}
	if shared == 0 {
		t.Error("no order had several live-ins at the root; the shared-node index went untested")
	}
}

// TestBuilderAllocatesNothing: on a reused builder, a build allocates
// nothing — items taken from prev or collected afresh, use lists, kill
// selection with its heap, the row comparison and fill — for register and
// FU orders alike, whether the relation grew or held.
func TestBuilderAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g, err := dag.Build(liveInBlock(rng, 150, 3).Blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	for si := range specs[:3] {
		s := &specs[si]
		prev := s.Build(g, g.Reach(), g.Depths())
		base := g.Reach()
		cl := g.Clone()
		reach := g.Reach()
		addRandomSeqEdge(rng, cl, reach)
		depths := cl.Depths()
		for _, p := range []*Reuse{prev, nil} {
			// Against the changed closure itself every row holds (an
			// unchanged build); against base a row may have grown.
			for _, pr := range []*order.Relation{base, reach} {
				var b Builder
				b.Build(cl, s, reach, depths, p, pr)
				if a := testing.AllocsPerRun(20, func() { b.Build(cl, s, reach, depths, p, pr) }); a != 0 {
					t.Errorf("spec %d (prev %v): allocs per build = %v, want 0", si, p != nil, a)
				}
			}
		}
	}
}

// greedyKills is the kill selection the builder's heap replaced, kept as
// the reference: every pick rescans every candidate for the best (cover,
// depth, -id) key, then every item's maximal uses for the pick.
func greedyKills(g *dag.Graph, items []Item, reach *order.Relation, depth []int) []int {
	kill := make([]int, len(items))
	maxUses := make([][]int, len(items))
	cover := make([]int, g.NumNodes())
	var cands []int
	for i, it := range items {
		kill[i] = -1
		if uses := g.UseNodes(it.Reg); !g.LiveOut[it.Reg] {
			for _, u := range uses {
				if !slices.ContainsFunc(uses, func(w int) bool { return w != u && reach.Has(u, w) }) {
					if cover[u] == 0 {
						cands = append(cands, u)
					}
					cover[u]++
					maxUses[i] = append(maxUses[i], u)
				}
			}
		}
	}
	for {
		best := -1
		for _, u := range cands {
			if c := cover[u]; c > 0 && (best < 0 || c > cover[best] ||
				(c == cover[best] && (depth[u] > depth[best] || (depth[u] == depth[best] && u < best)))) {
				best = u
			}
		}
		if best < 0 {
			return kill
		}
		for i, m := range maxUses {
			if kill[i] < 0 && slices.Contains(m, best) {
				kill[i] = best
				for _, u := range m {
					cover[u]--
				}
			}
		}
	}
}

// TestKillsMatchQuadraticGreedy: the heap kill selection picks exactly the
// kills of the rescanning greedy cover, on random blocks (with live-ins,
// before and after sequencing edges) and on the hydro, fft2 and state
// kernels at unroll 1, 2 and 4, for both register classes.
func TestKillsMatchQuadraticGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var graphs []*dag.Graph
	for trial := 0; trial < 80; trial++ {
		g, err := dag.Build(liveInBlock(rng, 4+rng.Intn(120), rng.Intn(4)).Blocks[0])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		graphs = append(graphs, g)
	}
	for _, name := range []string{"hydro", "fft2", "state"} {
		for _, u := range []int{1, 2, 4} {
			unit, err := workload.KernelByName(name).Unit(u)
			if err != nil {
				t.Fatalf("%s x%d: %v", name, u, err)
			}
			for _, blk := range unit.Func.Blocks {
				g, err := dag.Build(blk)
				if err != nil {
					t.Fatalf("%s x%d: %v", name, u, err)
				}
				graphs = append(graphs, g)
			}
		}
	}
	var b Builder
	picks := 0
	for gi, g := range graphs {
		reach := g.Reach()
		for step := 0; step < 3; step++ {
			depths := g.Depths()
			for _, s := range specs[2:] {
				r, _ := b.Build(g, &s, reach, depths, nil, nil)
				want := greedyKills(g, r.Items, reach, depths)
				if !slices.Equal(r.Kill, want) {
					t.Fatalf("graph %d step %d class %v: heap kills %v, greedy kills %v", gi, step, s.Class, r.Kill, want)
				}
				for _, k := range want {
					if k >= 0 {
						picks++
					}
				}
			}
			if len(g.InstrNodes()) < 2 || !addRandomSeqEdge(rng, g, reach) {
				break
			}
		}
	}
	if picks == 0 {
		t.Fatal("no value was killed by a use: the selection went untested")
	}
	t.Logf("%d graphs, %d kills compared", len(graphs), picks)
}
