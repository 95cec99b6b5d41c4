package dag

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ursa/internal/ir"
)

// randomGraph builds the DAG of a random straight-line block of n
// instructions, plus a few cycle-safe sequencing edges.
func randomGraph(t *testing.T, rng *rand.Rand, n int) *Graph {
	t.Helper()
	f := ir.NewFunc("rand")
	b := f.NewBlock("entry")
	var vals []ir.VReg
	for i := 0; i < n; i++ {
		dst := f.NewReg(fmt.Sprintf("v%d", i), ir.ClassInt)
		switch {
		case len(vals) == 0 || rng.Intn(4) == 0:
			b.Append(&ir.Instr{Op: ir.ConstI, Dst: dst, Imm: int64(rng.Intn(100))})
		case rng.Intn(3) == 0:
			b.Append(&ir.Instr{Op: ir.Mul, Dst: dst, Args: []ir.VReg{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]}})
		default:
			b.Append(&ir.Instr{Op: ir.Add, Dst: dst, Args: []ir.VReg{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]}})
		}
		vals = append(vals, dst)
	}
	g, err := Build(b)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	nodes := g.InstrNodes()
	reach := g.Reach()
	for tries := 0; tries < n && len(nodes) > 1; tries++ {
		a, c := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
		if a != c && !reach.Has(c, a) && !g.HasEdge(a, c) {
			g.AddEdge(a, c, EdgeSeq)
			reach.AddClosureEdge(a, c)
		}
	}
	return g
}

// TestScratchReuseMatchesFresh drives one Scratch across graphs that grow
// and shrink: every analysis run through it must equal the same analysis
// run through a fresh scratch.
func TestScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lat := func(n *Node) int { return 1 + int(n.Instr.Op)%3 }
	var s Scratch
	for step, n := range []int{40, 6, 25, 0, 3, 60, 12, 60, 1} {
		g := randomGraph(t, rng, n)
		if got, want := slices.Clone(g.TopoInto(&s)), g.TopoInto(new(Scratch)); !slices.Equal(got, want) {
			t.Fatalf("step %d (%d instrs): reused topo %v, fresh %v", step, n, got, want)
		}
		for _, l := range []func(*Node) int{lat, UnitLatency, nil} {
			depths, crit := g.PathsInto(l, &s)
			depths = slices.Clone(depths)
			wantDepths, wantCrit := g.PathsInto(l, new(Scratch))
			if !slices.Equal(depths, wantDepths) {
				t.Fatalf("step %d (%d instrs): reused depths %v, fresh %v", step, n, depths, wantDepths)
			}
			if crit != wantCrit {
				t.Fatalf("step %d (%d instrs): reused critical path %d, fresh %d", step, n, crit, wantCrit)
			}
		}
	}
}

// sortedPaths is the longest-path pass PathsInto replaced, kept as the
// reference: depths and the critical path relaxed over TopoInto's
// id-sorted order, one pass each.
func sortedPaths(g *Graph, latency func(*Node) int) ([]int, int) {
	var s Scratch
	topo := g.TopoInto(&s)
	depth := resetUnreached(nil, len(g.Nodes))
	dist := resetUnreached(nil, len(g.Nodes))
	depth[g.Root], dist[g.Root] = 0, 0
	for _, a := range topo {
		if depth[a] == unreached {
			continue
		}
		la := 0
		if !g.Nodes[a].IsPseudo() && latency != nil {
			la = latency(g.Nodes[a])
		}
		for _, b := range g.succ[a] {
			depth[b] = max(depth[b], depth[a]+1)
			dist[b] = max(dist[b], dist[a]+la)
		}
	}
	return depth, max(dist[g.Leaf], 0)
}

// TestPathsMatchSortedOrder: the one unsorted pass finds the depths and
// critical path the id-sorted order finds, on random graphs with
// sequencing edges, for several latency models.
func TestPathsMatchSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	lat := func(n *Node) int { return 1 + int(n.Instr.Op)%3 }
	var s Scratch
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(t, rng, rng.Intn(80))
		for _, l := range []func(*Node) int{lat, UnitLatency, nil} {
			depths, crit := g.PathsInto(l, &s)
			wantDepths, wantCrit := sortedPaths(g, l)
			if !slices.Equal(depths, wantDepths) || crit != wantCrit {
				t.Fatalf("trial %d: depths %v crit %d, sorted order %v %d", trial, depths, crit, wantDepths, wantCrit)
			}
		}
	}
}
