package dag

import (
	"slices"
	"sort"
)

// Scratch holds reusable buffers for the graph analyses: topological
// orders, critical-path lengths, and depths. The candidate evaluator keeps
// one per worker and runs these analyses through it once per tentative
// transformation; TopoOrder, CriticalPath and Depths run them through a
// fresh one. The zero value is ready to use.
type Scratch struct {
	indeg    []int
	frontier []int
	topo     []int
	dist     []int
	depth    []int
}

// unreached is the longest-path sentinel for nodes the root does not reach.
const unreached = -1 << 30

// resetUnreached returns buf resized to n entries, all set to unreached.
func resetUnreached(buf []int, n int) []int {
	buf = sized(buf, n)
	for i := range buf {
		buf[i] = unreached
	}
	return buf
}

// sized returns buf resized to n entries, reusing its storage when
// possible. It reallocates with append's headroom: the graph a scratch
// serves grows by a spill's two nodes at a time.
func sized(buf []int, n int) []int {
	return slices.Grow(buf[:0], n)[:n]
}

// reserve sizes the scratch's order buffers for a graph of n nodes.
func (s *Scratch) reserve(n int) {
	s.indeg = sized(s.indeg, n)
	s.frontier = slices.Grow(s.frontier[:0], n)
	s.topo = slices.Grow(s.topo[:0], n)
}

// TopoInto computes the graph's deterministic topological order (ties
// broken by node id) into the scratch's buffer. The result is valid until
// the next call with the same scratch.
func (g *Graph) TopoInto(s *Scratch) []int {
	n := len(g.Nodes)
	s.reserve(n)
	indeg := s.indeg
	clear(indeg)
	for _, ss := range g.succ {
		for _, b := range ss {
			indeg[b]++
		}
	}
	frontier := s.frontier[:0]
	for i, d := range indeg {
		if d == 0 {
			frontier = append(frontier, i)
		}
	}
	sort.Ints(frontier)
	out := s.topo[:0]
	for len(frontier) > 0 {
		a := frontier[0]
		frontier = frontier[1:]
		out = append(out, a)
		added := false
		for _, b := range g.succ[a] {
			indeg[b]--
			if indeg[b] == 0 {
				frontier = append(frontier, b)
				added = true
			}
		}
		if added {
			sort.Ints(frontier)
		}
	}
	s.topo = out
	return out
}

// PathsInto computes, in one topological pass, each node's longest
// distance from the root in edges and the critical-path length under
// latency: the longest root-to-leaf path where each node contributes
// latency(node) cycles (pseudo nodes 0 regardless; a nil latency makes
// every path 0 cycles long). It works in the scratch's buffers. A longest
// path does not depend on the order its nodes are relaxed in, so the pass
// takes nodes in any topological order, without the id tie-break TopoInto
// sorts by. The depths are valid until the next call with the same
// scratch.
func (g *Graph) PathsInto(latency func(*Node) int, s *Scratch) ([]int, int) {
	n := len(g.Nodes)
	s.reserve(n)
	indeg := s.indeg
	clear(indeg)
	for _, ss := range g.succ {
		for _, b := range ss {
			indeg[b]++
		}
	}
	ready := s.frontier[:0]
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	s.depth = resetUnreached(s.depth, n)
	depth := s.depth
	depth[g.Root] = 0
	// Without latencies every path is 0 cycles long; only the depths are
	// computed.
	var dist []int
	if latency != nil {
		s.dist = resetUnreached(s.dist, n)
		dist = s.dist
		dist[g.Root] = 0
	}
	for len(ready) > 0 {
		a := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		reached := depth[a] != unreached
		la := 0
		if reached && dist != nil && !g.Nodes[a].IsPseudo() {
			la = latency(g.Nodes[a])
		}
		for _, b := range g.succ[a] {
			if reached {
				depth[b] = max(depth[b], depth[a]+1)
				if dist != nil {
					dist[b] = max(dist[b], dist[a]+la)
				}
			}
			if indeg[b]--; indeg[b] == 0 {
				ready = append(ready, b)
			}
		}
	}
	s.frontier = ready
	if dist == nil {
		return depth, 0
	}
	return depth, max(dist[g.Leaf], 0)
}
