package reuse

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/order"
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

// TestSelectKillsIntoMatchesSelectKills drives one reused scratch across many
// random graphs and edge insertions, requiring its use lists to be
// g.UseNodes' and the pooled kill selection to reproduce SelectKills
// exactly.
func TestSelectKillsIntoMatchesSelectKills(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ks KillScratch
	for trial := 0; trial < 60; trial++ {
		f := randomBlock(rng, 4+rng.Intn(12))
		g, err := dag.Build(f.Blocks[0])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r := Reg(g, ir.ClassInt)
		reach := g.Reach()
		for step := 0; step < 3; step++ {
			want := SelectKills(g, r.Items, reach)
			ks.PrecomputeUses(g, r.Items)
			for i, it := range r.Items {
				if u := g.UseNodes(it.Reg); !slices.Equal(ks.uses[i], u) {
					t.Fatalf("trial %d: uses of item %d = %v, UseNodes says %v", trial, i, ks.uses[i], u)
				}
			}
			got := SelectKillsInto(g, r.Items, reach, g.Depths(), &ks)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d step %d: kill[%d] = %d, want %d",
						trial, step, i, got[i], want[i])
				}
			}
			if !addRandomSeqEdge(rng, g, reach) {
				break
			}
		}
	}
}

// TestUpdateClosureIntoMatchesRebuild adds a sequencing edge and checks
// the pooled closure update against the structure rebuilt from scratch on
// the mutated graph: it must report a kill shift exactly when the rebuilt
// kill vector differs, and in either case produce the rebuild's relation
// row for row and its kill vector.
func TestUpdateClosureIntoMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var ks KillScratch
	builders := []func(*dag.Graph) *Reuse{
		func(g *dag.Graph) *Reuse { return FU(g, AllFUs) },
		func(g *dag.Graph) *Reuse { return Reg(g, ir.ClassInt) },
	}
	shifted := 0
	for trial := 0; trial < 120; trial++ {
		f := randomBlock(rng, 4+rng.Intn(12))
		g, err := dag.Build(f.Blocks[0])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, build := range builders {
			r := build(g)
			reach := g.Reach()
			if !addRandomSeqEdge(rng, g, reach) {
				continue
			}
			if r.IsReg {
				ks.PrecomputeUses(g, r.Items)
			}
			dst := &Reuse{Rel: order.NewRelation(r.NumItems())}
			ok := r.UpdateClosureInto(g, reach, g.Depths(), &ks, dst)
			want := build(g)
			if killsSame := slices.Equal(want.Kill, r.Kill); ok != killsSame {
				t.Fatalf("trial %d (reg=%v): ok = %v, but rebuilt kills unchanged = %v", trial, r.IsReg, ok, killsSame)
			}
			if !ok {
				shifted++
			}
			if !relEqual(dst.Rel, want.Rel) {
				t.Fatalf("trial %d (reg=%v): relation differs from the rebuild", trial, r.IsReg)
			}
			if !slices.Equal(dst.Kill, want.Kill) {
				t.Fatalf("trial %d: kills %v, rebuild %v", trial, dst.Kill, want.Kill)
			}
		}
	}
	if shifted == 0 {
		t.Error("no trial shifted a kill; the kill-shift path went untested")
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

// TestFillRelMatchesPairwise holds the word-level pair derivation — the
// cold builds and UpdateClosureInto after sequencing edges — to the
// pairwise definition on blocks of up to ~200 nodes, across word
// boundaries and with live-in values sharing the root.
func TestFillRelMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var ks KillScratch
	shared := 0 // register orders with several live-ins at the root
	for trial := 0; trial < 60; trial++ {
		f := liveInBlock(rng, 2+rng.Intn(200), rng.Intn(4))
		g, err := dag.Build(f.Blocks[0])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, r := range []*Reuse{FU(g, AllFUs), FU(g, KindFUs(ir.KindMem)), Reg(g, ir.ClassInt)} {
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
			if r.IsReg {
				ks.PrecomputeUses(cl, r.Items)
			}
			dst := &Reuse{Rel: order.NewRelation(r.NumItems())}
			r.UpdateClosureInto(cl, reach, cl.Depths(), &ks, dst)
			if !relEqual(dst.Rel, pairwiseRel(dst, reach)) {
				t.Fatalf("trial %d (reg=%v): updated relation differs from the pairwise definition", trial, r.IsReg)
			}
		}
	}
	if shared == 0 {
		t.Error("no order had several live-ins at the root; the shared-node index went untested")
	}
}

// TestUpdateClosureIntoAllocatesNothing: on a reused scratch and
// destination, a sequencing candidate's pair derivation — kill selection
// and fill — allocates nothing, for register and FU orders alike.
func TestUpdateClosureIntoAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g, err := dag.Build(liveInBlock(rng, 150, 3).Blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	reach := g.Reach()
	addRandomSeqEdge(rng, g, reach)
	depths := g.Depths()
	for _, r := range []*Reuse{FU(g, AllFUs), Reg(g, ir.ClassInt)} {
		var ks KillScratch
		ks.PrecomputeUses(g, r.Items)
		dst := &Reuse{Rel: order.NewRelation(r.NumItems())}
		r.UpdateClosureInto(g, reach, depths, &ks, dst)
		if a := testing.AllocsPerRun(20, func() {
			dst.Rel.Reset()
			r.UpdateClosureInto(g, reach, depths, &ks, dst)
		}); a != 0 {
			t.Errorf("reg=%v: allocs per run = %v, want 0", r.IsReg, a)
		}
	}
}
