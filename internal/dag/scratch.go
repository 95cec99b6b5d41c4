package dag

import "sort"

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
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = unreached
	}
	return buf
}

// TopoInto computes the graph's deterministic topological order (ties
// broken by node id) into the scratch's buffer. The result is valid until
// the next call with the same scratch.
func (g *Graph) TopoInto(s *Scratch) []int {
	n := len(g.Nodes)
	if cap(s.indeg) < n {
		s.indeg = make([]int, n)
		s.frontier = make([]int, 0, n)
		s.topo = make([]int, 0, n)
	}
	indeg := s.indeg[:n]
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

// CriticalPathLen returns the length of the longest root-to-leaf path where
// each node contributes latency(node) cycles (pseudo nodes contribute 0
// regardless), using the scratch's buffers.
func (g *Graph) CriticalPathLen(latency func(*Node) int, s *Scratch) int {
	topo := g.TopoInto(s)
	s.dist = resetUnreached(s.dist, len(g.Nodes))
	dist := s.dist
	dist[g.Root] = 0
	for _, a := range topo {
		if dist[a] == unreached {
			continue
		}
		la := 0
		if !g.Nodes[a].IsPseudo() && latency != nil {
			la = latency(g.Nodes[a])
		}
		for _, b := range g.succ[a] {
			if dist[a]+la > dist[b] {
				dist[b] = dist[a] + la
			}
		}
	}
	if dist[g.Leaf] < 0 {
		return 0
	}
	return dist[g.Leaf]
}

// DepthsInto computes each node's longest distance from the root in edges
// into the scratch's buffer. The result is valid until the next call with
// the same scratch.
func (g *Graph) DepthsInto(s *Scratch) []int {
	topo := g.TopoInto(s)
	s.depth = resetUnreached(s.depth, len(g.Nodes))
	depth := s.depth
	depth[g.Root] = 0
	for _, a := range topo {
		if depth[a] == unreached {
			continue
		}
		for _, b := range g.succ[a] {
			if depth[a]+1 > depth[b] {
				depth[b] = depth[a] + 1
			}
		}
	}
	return depth
}
