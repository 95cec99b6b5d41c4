// Package measure computes URSA's resource-requirement measurements
// (paper §3.1): the maximum number of resource instances any schedule can
// demand, obtained as a minimum chain decomposition of the resource's
// CanReuse partial order via bipartite matching [FoF65], and the excessive
// chain sets (Definition 6) locating the regions whose demand exceeds the
// target machine.
//
// The matching is the paper's modified prioritized algorithm: edges that do
// not cross hammock-nesting levels are added (and augmented) first, then
// batches of increasing nesting-level difference, so the decomposition's
// projection onto every nested hammock is also minimal. Worst case O(N³).
package measure

import (
	"fmt"
	"slices"
	"sort"

	"ursa/internal/dag"
	"ursa/internal/matching"
	"ursa/internal/order"
	"ursa/internal/reuse"
)

// Result is a measured minimum chain decomposition for one resource.
type Result struct {
	R *reuse.Reuse
	// Width is the maximum requirement: the number of chains in the
	// minimum decomposition (Dilworth / Theorem 1).
	Width int
	// Chains is the decomposition; elements are item indices into R.Items,
	// each chain ordered head to tail.
	Chains order.Decomposition
	// ChainOf maps item index -> index in Chains.
	ChainOf []int
}

// relEdge is one reuse pair with its hammock-crossing priority (the
// absolute nesting-level difference of the two producers; 0 when no level
// information is supplied).
type relEdge struct {
	a, b int
	prio int
}

// sortedEdges lists the reuse order's pairs sorted by (priority, a, b):
// the canonical order in which the prioritized matcher consumes them. The
// key is a total order, so the sort is deterministic.
func sortedEdges(r *reuse.Reuse, levels []int) []relEdge {
	var dst []relEdge
	for a := 0; a < r.NumItems(); a++ {
		r.Rel.Row(a).ForEach(func(b int) {
			prio := 0
			if levels != nil {
				la := levels[r.Items[a].Node]
				lb := levels[r.Items[b].Node]
				if la > lb {
					prio = la - lb
				} else {
					prio = lb - la
				}
			}
			dst = append(dst, relEdge{a, b, prio})
		})
	}
	slices.SortFunc(dst, func(x, y relEdge) int {
		if x.prio != y.prio {
			return x.prio - y.prio
		}
		if x.a != y.a {
			return x.a - y.a
		}
		return x.b - y.b
	})
	return dst
}

// augmentBatches feeds priority-sorted edges to the matcher one priority
// batch at a time, augmenting after each batch: the paper's prioritized
// matching, under which the lower-priority (non-crossing) pairs are
// matched first.
func augmentBatches(m *matching.Incremental, edges []relEdge) {
	for i := 0; i < len(edges); {
		j := i
		for j < len(edges) && edges[j].prio == edges[i].prio {
			m.AddEdge(edges[j].a, edges[j].b)
			j++
		}
		m.Augment()
		i = j
	}
}

// Chains computes a minimum chain decomposition of the reuse order using
// prioritized incremental matching. levels gives each graph node's hammock
// nesting level (from dag.Graph.NestLevels); nil means no prioritization.
func Chains(r *reuse.Reuse, levels []int) *Result {
	n := r.NumItems()
	m := matching.NewIncremental(n, n)
	augmentBatches(m, sortedEdges(r, levels))
	return buildResult(r, m)
}

// buildResult turns a maximum matching over the reuse order into the chain
// decomposition Result, in deterministic order.
func buildResult(r *reuse.Reuse, m *matching.Incremental) *Result {
	n := r.NumItems()
	res := &Result{R: r, ChainOf: make([]int, n)}
	res.Width = n - m.Size()
	// Build chains by following matched successors from each chain head
	// (items unmatched on the right side).
	inChain := make([]bool, n)
	for h := 0; h < n; h++ {
		if m.PairR(h) != -1 {
			continue
		}
		var c order.Chain
		for x := h; x != -1; x = m.PairL(x) {
			if inChain[x] {
				panic(fmt.Sprintf("measure: item %d in two chains", x))
			}
			inChain[x] = true
			c = append(c, x)
		}
		res.Chains = append(res.Chains, c)
	}
	// Deterministic order: by producer node id of the head.
	sort.Slice(res.Chains, func(i, j int) bool {
		return r.Items[res.Chains[i][0]].Node < r.Items[res.Chains[j][0]].Node
	})
	for ci, c := range res.Chains {
		for _, it := range c {
			res.ChainOf[it] = ci
		}
	}
	if len(res.Chains) != res.Width {
		panic(fmt.Sprintf("measure: %d chains but width %d", len(res.Chains), res.Width))
	}
	return res
}

// Measure builds the reuse structure's decomposition with hammock
// prioritization derived from the graph.
func Measure(r *reuse.Reuse) *Result {
	hs := r.Graph.Hammocks()
	levels := r.Graph.NestLevels(hs)
	return Chains(r, levels)
}

// An ExcessSet is an excessive chain set (Definition 6): mutually
// independent allocation subchains within one hammock, more numerous than
// the available resources.
type ExcessSet struct {
	Hammock *dag.Hammock
	// Chains holds the trimmed subchains (item indices, head to tail).
	Chains []order.Chain
	// Limit is the number of available resource instances.
	Limit int
}

// Excess returns how many chains exceed the limit.
func (e *ExcessSet) Excess() int { return len(e.Chains) - e.Limit }

// String summarizes the set.
func (e *ExcessSet) String() string {
	return fmt.Sprintf("excess{hammock %d..%d: %d chains > %d}",
		e.Hammock.Entry, e.Hammock.Exit, len(e.Chains), e.Limit)
}

// FindExcess locates the excessive chain sets of the measured decomposition
// for the given resource limit, one per hammock whose projected chain count
// exceeds the limit after head/tail trimming. Hammocks are examined
// smallest first; the returned sets follow that order, so the first entry
// is the most local region needing transformation.
func FindExcess(res *Result, hammocks []*dag.Hammock, limit int) []*ExcessSet {
	var sets []*ExcessSet
	for _, h := range hammocks {
		if set := excessInHammock(res, h, limit); set != nil {
			sets = append(sets, set)
		}
	}
	return sets
}

func excessInHammock(res *Result, h *dag.Hammock, limit int) *ExcessSet {
	r := res.R
	// Project each chain onto the hammock interior (excluding the hammock's
	// own entry/exit pseudo endpoints when they are root/leaf).
	var proj []order.Chain
	for _, c := range res.Chains {
		var sub order.Chain
		for _, it := range c {
			n := r.Items[it].Node
			if h.Contains(n) {
				sub = append(sub, it)
			}
		}
		if len(sub) > 0 {
			proj = append(proj, sub)
		}
	}
	if len(proj) <= limit {
		return nil
	}

	// Independence is judged in the resource's own partial order (Def. 6):
	// two items are independent iff neither can reuse the other's resource
	// instance, i.e. they can hold instances simultaneously.
	rel := r.Rel

	// Trim heads that other heads depend on, and tails that depend on other
	// tails, until all heads and all tails are mutually independent
	// (paper §3.1's example procedure). The reuse-order ancestor head is
	// removed; the reuse-order descendant tail is removed.
	for changed := true; changed; {
		changed = false
		// Heads.
		for i := 0; i < len(proj) && !changed; i++ {
			for j := 0; j < len(proj) && !changed; j++ {
				if i == j {
					continue
				}
				hi, hj := proj[i][0], proj[j][0]
				if rel.Comparable(hi, hj) {
					vic := i // remove the earlier (ancestor) head
					if rel.Has(hj, hi) {
						vic = j
					}
					proj[vic] = proj[vic][1:]
					if len(proj[vic]) == 0 {
						proj = append(proj[:vic], proj[vic+1:]...)
					}
					changed = true
				}
			}
		}
		if changed {
			continue
		}
		// Tails.
		for i := 0; i < len(proj) && !changed; i++ {
			for j := 0; j < len(proj) && !changed; j++ {
				if i == j {
					continue
				}
				ti, tj := proj[i][len(proj[i])-1], proj[j][len(proj[j])-1]
				if rel.Comparable(ti, tj) {
					vic := i // remove the later (descendant) tail
					if rel.Has(tj, ti) {
						vic = i
					} else {
						vic = j
					}
					proj[vic] = proj[vic][:len(proj[vic])-1]
					if len(proj[vic]) == 0 {
						proj = append(proj[:vic], proj[vic+1:]...)
					}
					changed = true
				}
			}
		}
	}
	if len(proj) <= limit {
		return nil
	}
	return &ExcessSet{Hammock: h, Chains: proj, Limit: limit}
}
