package dag

import "ursa/internal/order"

// TopoOrder returns the node ids in a deterministic topological order
// (ties broken by node id).
func (g *Graph) TopoOrder() []int {
	var s Scratch
	return g.TopoInto(&s)
}

// Reach returns the transitive closure of the graph's edges: Reach.Has(a,b)
// iff b is a proper descendant of a (or a==b is excluded; the relation is
// strict).
func (g *Graph) Reach() *order.Relation {
	return g.Relation().TransitiveClosure()
}

// CriticalPath returns the length of the longest root-to-leaf path where
// each node contributes latency(node) cycles (pseudo nodes contribute 0
// regardless).
func (g *Graph) CriticalPath(latency func(*Node) int) int {
	var s Scratch
	return g.CriticalPathLen(latency, &s)
}

// UnitLatency assigns every instruction one cycle; the default critical-path
// metric used by transformation scoring when no machine is given.
func UnitLatency(*Node) int { return 1 }

// Depths returns, for each node, its distance from the root in edges
// (longest path, unit weights). Used by the "closest to hammock entry"
// heuristics of §4.
func (g *Graph) Depths() []int {
	var s Scratch
	return g.DepthsInto(&s)
}

// Heights returns, for each node, its longest distance to the leaf in edges.
func (g *Graph) Heights() []int {
	topo := g.TopoOrder()
	height := make([]int, len(g.Nodes))
	for i := range height {
		height[i] = -1 << 30
	}
	height[g.Leaf] = 0
	for i := len(topo) - 1; i >= 0; i-- {
		a := topo[i]
		for _, b := range g.succ[a] {
			if height[b]+1 > height[a] {
				height[a] = height[b] + 1
			}
		}
	}
	return height
}

// Descendants returns the strict descendant set of n (excluding n).
func (g *Graph) Descendants(n int) *order.BitSet {
	s := order.NewBitSet(len(g.Nodes))
	stack := append([]int(nil), g.succ[n]...)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.Has(x) {
			continue
		}
		s.Set(x)
		stack = append(stack, g.succ[x]...)
	}
	return s
}

// Ancestors returns the strict ancestor set of n (excluding n).
func (g *Graph) Ancestors(n int) *order.BitSet {
	s := order.NewBitSet(len(g.Nodes))
	stack := append([]int(nil), g.pred[n]...)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.Has(x) {
			continue
		}
		s.Set(x)
		stack = append(stack, g.pred[x]...)
	}
	return s
}
