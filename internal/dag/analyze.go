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
	_, crit := g.PathsInto(latency, &s)
	return crit
}

// UnitLatency assigns every instruction one cycle; the default critical-path
// metric used by transformation scoring when no machine is given.
func UnitLatency(*Node) int { return 1 }

// Depths returns, for each node, its distance from the root in edges
// (longest path, unit weights). Used by the "closest to hammock entry"
// heuristics of §4.
func (g *Graph) Depths() []int {
	var s Scratch
	depths, _ := g.PathsInto(nil, &s)
	return depths
}
