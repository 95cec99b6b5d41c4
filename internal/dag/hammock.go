package dag

import (
	"sort"

	"ursa/internal/order"
)

// A Hammock is a single-entry single-exit region of the DAG (paper §3.1):
// every path from outside the region enters through Entry and leaves through
// Exit. The modified DAG as a whole (root..leaf) is always a hammock.
// Interior holds the region's nodes including Entry and Exit.
type Hammock struct {
	Entry, Exit int
	Interior    *order.BitSet
	Level       int // nesting depth; 0 for the whole-graph hammock
}

// Size returns the number of nodes in the hammock including its endpoints.
func (h *Hammock) Size() int { return h.Interior.Count() }

// Contains reports whether node n lies in the hammock.
func (h *Hammock) Contains(n int) bool { return h.Interior.Has(n) }

// Dominators returns the immediate-dominator array of the DAG rooted at
// Root (idom[Root] == Root), computed by the Cooper–Harvey–Kennedy
// iterative algorithm specialized to acyclic graphs (one pass over a
// topological order suffices).
func (g *Graph) Dominators() []int {
	topo := g.TopoOrder()
	return idoms(len(g.Nodes), g.Root, topo, g.pred)
}

// PostDominators returns the immediate-postdominator array with respect to
// Leaf (ipdom[Leaf] == Leaf).
func (g *Graph) PostDominators() []int {
	topo := g.TopoOrder()
	rev := make([]int, len(topo))
	for i, n := range topo {
		rev[len(topo)-1-i] = n
	}
	return idoms(len(g.Nodes), g.Leaf, rev, g.succ)
}

func idoms(n, root int, topo []int, preds [][]int) []int {
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[root] = root
	pos := make([]int, n) // topological position, for intersect
	for i, v := range topo {
		pos[v] = i
	}
	intersect := func(a, b int) int {
		for a != b {
			for pos[a] > pos[b] {
				a = idom[a]
			}
			for pos[b] > pos[a] {
				b = idom[b]
			}
		}
		return a
	}
	for _, v := range topo {
		if v == root {
			continue
		}
		newIdom := -1
		for _, p := range preds[v] {
			if idom[p] == -1 {
				continue
			}
			if newIdom == -1 {
				newIdom = p
			} else {
				newIdom = intersect(newIdom, p)
			}
		}
		idom[v] = newIdom
	}
	return idom
}

// Hammocks enumerates the graph's single-entry single-exit regions:
// candidate pairs (e, x) where x is on e's postdominator chain and e is on
// x's dominator chain, verified for closure (no edge crosses the region
// boundary except through e and x). The whole-graph hammock is always
// present. Results are sorted by increasing size, then entry id, and
// levels are assigned by containment (whole graph = level 0).
func (g *Graph) Hammocks() []*Hammock {
	n := len(g.Nodes)
	dom := g.Dominators()
	pdom := g.PostDominators()

	domBy := func(v, d int) bool { // d dominates v
		for {
			if v == d {
				return true
			}
			if v == dom[v] || dom[v] == -1 {
				return false
			}
			v = dom[v]
		}
	}
	pdomBy := func(v, p int) bool {
		for {
			if v == p {
				return true
			}
			if v == pdom[v] || pdom[v] == -1 {
				return false
			}
			v = pdom[v]
		}
	}

	var hs []*Hammock
	tryRegion := func(e, x int) {
		if e == x {
			return
		}
		if !domBy(x, e) || !pdomBy(e, x) {
			return
		}
		region := order.NewBitSet(n)
		for v := 0; v < n; v++ {
			if domBy(v, e) && pdomBy(v, x) {
				region.Set(v)
			}
		}
		if region.Count() < 3 && !(e == g.Root && x == g.Leaf) {
			return // trivial region: just the pair
		}
		// Closure check: edges may enter only at e and leave only at x.
		for v := 0; v < n; v++ {
			if !region.Has(v) {
				continue
			}
			if v != e && !allIn(region, g.pred[v]) {
				return
			}
			if v != x && !allIn(region, g.succ[v]) {
				return
			}
		}
		hs = append(hs, &Hammock{Entry: e, Exit: x, Interior: region})
	}

	// Whole graph first, then each node paired with its postdominator chain.
	// The chain loop stops short of the leaf, so (e, leaf) is tried on its
	// own, for every e but the root, whose pair was tried first.
	tryRegion(g.Root, g.Leaf)
	for e := 0; e < n; e++ {
		for x := pdom[e]; x != -1 && x != pdom[x]; x = pdom[x] {
			tryRegion(e, x)
		}
		if pdom[e] != -1 && e != g.Root {
			tryRegion(e, g.Leaf)
		}
	}

	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Size() != hs[j].Size() {
			return hs[i].Size() < hs[j].Size()
		}
		if hs[i].Entry != hs[j].Entry {
			return hs[i].Entry < hs[j].Entry
		}
		return hs[i].Exit < hs[j].Exit
	})

	// Nesting level = number of strictly larger hammocks containing this
	// one; the whole-graph hammock is contained by nothing, so it gets 0.
	for i, h := range hs {
		level := 0
		for j := i + 1; j < len(hs); j++ {
			o := hs[j]
			if o.Size() > h.Size() && h.Interior.SubsetOf(o.Interior) {
				level++
			}
		}
		h.Level = level
	}
	return hs
}

// allIn reports whether every node in ns lies in s.
func allIn(s *order.BitSet, ns []int) bool {
	for _, v := range ns {
		if !s.Has(v) {
			return false
		}
	}
	return true
}

// NestLevels returns, for every node, the nesting level of the smallest
// hammock containing it. Used to prioritize matching edges (§3.1): edges
// whose endpoints share a level are preferred over level-crossing edges.
func (g *Graph) NestLevels(hs []*Hammock) []int {
	levels := make([]int, len(g.Nodes))
	assigned := make([]bool, len(g.Nodes))
	// hs is sorted by increasing size, so the first hammock containing a
	// node is its smallest.
	for _, h := range hs {
		h.Interior.ForEach(func(i int) {
			if !assigned[i] {
				assigned[i] = true
				levels[i] = h.Level
			}
		})
	}
	return levels
}
