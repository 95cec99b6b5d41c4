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
	"sort"
	"sync"

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

// matchers pools the matchers behind Chains: a committed measurement runs
// one prioritized matching and keeps only the decomposition.
var matchers = sync.Pool{New: func() any { return new(matching.Matcher) }}

// Chains computes a minimum chain decomposition of the reuse order using
// prioritized matching. levels gives each graph node's hammock nesting level
// (from dag.Graph.NestLevels); an edge's priority is the level difference
// of its items' producers, and nil levels means no prioritization.
func Chains(r *reuse.Reuse, levels []int) *Result {
	m := matchers.Get().(*matching.Matcher)
	defer matchers.Put(m)
	m.Reset(r.Rel)
	if levels == nil {
		m.Augment()
	} else {
		m.AugmentLevels(func(a int) int { return levels[r.Items[a].Node] })
	}
	return buildResult(r, m)
}

// buildResult turns a maximum matching over the reuse order into the chain
// decomposition Result, in deterministic order.
func buildResult(r *reuse.Reuse, m *matching.Matcher) *Result {
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
	// own entry/exit pseudo endpoints when they are root/leaf). Count the
	// non-empty projections first: a hammock within the limit allocates
	// nothing.
	nproj, nitems := 0, 0
	for _, c := range res.Chains {
		k := 0
		for _, it := range c {
			if h.Contains(r.Items[it].Node) {
				k++
			}
		}
		if k > 0 {
			nproj++
			nitems += k
		}
	}
	if nproj <= limit {
		return nil
	}
	// The projections are capped subslices of one buffer.
	buf := make([]int, 0, nitems)
	proj := make([]order.Chain, 0, nproj)
	for _, c := range res.Chains {
		start := len(buf)
		for _, it := range c {
			if h.Contains(r.Items[it].Node) {
				buf = append(buf, it)
			}
		}
		if end := len(buf); end > start {
			proj = append(proj, buf[start:end:end])
		}
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
					vic := j // remove the later (descendant) tail
					if rel.Has(tj, ti) {
						vic = i
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
