package reuse

import (
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
// random graphs and edge insertions, requiring the pooled kill selection to
// reproduce SelectKills exactly.
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
