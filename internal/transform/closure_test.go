package transform

import (
	"math/rand"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/measure"
	"ursa/internal/order"
	"ursa/internal/reuse"
	"ursa/internal/workload"
)

// sameRelation reports whether a and b hold the same pairs.
func sameRelation(a, b *order.Relation) bool {
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

// dfsReach is the test's own reachability: for every node, a depth-first
// search over the current successor lists, excluding the node itself.
func dfsReach(g *dag.Graph) *order.Relation {
	r := order.NewRelation(g.NumNodes())
	for a := range g.Nodes {
		seen := make([]bool, g.NumNodes())
		stack := append([]int(nil), g.Succs(a)...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[n] {
				continue
			}
			seen[n] = true
			r.Add(a, n)
			stack = append(stack, g.Succs(n)...)
		}
	}
	return r
}

// closureGraphs returns random blocks and every block of the kernel suite
// at unroll 1.
func closureGraphs(t *testing.T) []*dag.Graph {
	var gs []*dag.Graph
	for seed := int64(1); seed <= 24; seed++ {
		f := workload.RandomBlock(rand.New(rand.NewSource(seed)), 8+int(seed), 0.5)
		g, err := dag.Build(f.Blocks[0])
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		gs = append(gs, g)
	}
	for _, k := range workload.Kernels() {
		u, err := k.Unit(1)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		for _, b := range u.Func.Blocks {
			g, err := dag.Build(b)
			if err != nil {
				t.Fatalf("%s %s: %v", k.Name, b.Label, err)
			}
			gs = append(gs, g)
		}
	}
	return gs
}

// TestApplyKeepsClosure: every candidate the generators emit for the FU
// and register excess sets of random and suite blocks goes through Apply
// on one reused copy of the graph's closure, which a spill grows past the
// graph's size and the next copy shrinks back. After every application,
// sequencing and spill alike, the relation Apply kept must equal both the
// graph's Reach and a depth-first search; every application must leave a
// valid graph that Revert restores.
func TestApplyKeepsClosure(t *testing.T) {
	seqs, spills := 0, 0
	for gi, g := range closureGraphs(t) {
		base, depths, hammocks := g.Reach(), g.Depths(), g.Hammocks()
		reach := order.NewRelation(base.Size())
		var log UndoLog
		rus := []*reuse.Reuse{reuse.FU(g, reuse.AllFUs), reuse.Reg(g, ir.ClassInt), reuse.Reg(g, ir.ClassFP)}
		for _, ru := range rus {
			res := measure.Measure(ru)
			for _, limit := range []int{res.Width - 1, res.Width / 2} {
				if limit < 1 {
					continue
				}
				for _, set := range measure.FindExcess(res, hammocks, limit) {
					var cands []*Candidate
					if ru.IsReg {
						cands = append(RegSeqCandidates(g, base, depths, res, set), SpillCandidates(g, depths, res, set)...)
					} else {
						cands = FUCandidates(g, base, depths, res, set)
					}
					for _, c := range cands {
						before := g.Clone()
						reach.CopyFrom(base)
						if err := c.Apply(g, reach, &log); err != nil {
							continue
						}
						if err := g.Check(); err != nil {
							t.Fatalf("graph %d %s: invalid after Apply: %v", gi, c, err)
						}
						if !sameRelation(reach, g.Reach()) {
							t.Fatalf("graph %d %s: Apply's closure differs from Reach", gi, c)
						}
						if !sameRelation(reach, dfsReach(g)) {
							t.Fatalf("graph %d %s: Apply's closure differs from a DFS", gi, c)
						}
						if c.SeqOnly() {
							seqs++
						} else {
							spills++
						}
						log.Revert()
						if err := g.Diff(before); err != nil {
							t.Fatalf("graph %d %s: Revert did not restore the graph: %v", gi, c, err)
						}
					}
				}
			}
		}
	}
	if seqs == 0 || spills == 0 {
		t.Fatalf("applied %d sequencing and %d spill candidates, want both", seqs, spills)
	}
	t.Logf("%d sequencing and %d spill applications", seqs, spills)
}
