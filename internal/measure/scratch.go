package measure

import (
	"ursa/internal/matching"
	"ursa/internal/reuse"
)

// DeltaScratch holds the reusable buffers behind ChainsDeltaWidth: a pooled
// incremental matcher plus edge and pair slices. One scratch belongs to one
// evaluator worker; the zero value is ready to use.
type DeltaScratch struct {
	m     *matching.Incremental
	edges []relEdge
	pairs []int
}

// pairsInto reconstructs, into a reused buffer, the left-to-right matching
// pairs underlying a measured decomposition: consecutive chain elements x, y
// mean x's resource instance is reused by y, i.e. left vertex x is matched
// to right vertex y.
func pairsInto(dst []int, prev *Result) []int {
	n := len(prev.ChainOf)
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = -1
	}
	for _, c := range prev.Chains {
		for k := 0; k+1 < len(c); k++ {
			dst[c[k]] = c[k+1]
		}
	}
	return dst
}

// ChainsDeltaWidth returns the width of the minimum chain decomposition of
// an updated reuse order — exactly the width Chains computes from scratch —
// without building the decomposition and without allocating in steady
// state: the matcher, edge list, and seed pairs all live in the scratch.
// This is the candidate evaluator's scoring primitive.
//
// When prev measures the same item set under a subset of r's pairs — the
// situation after sequencing edges are added to the graph, since reuse
// orders only gain pairs (see reuse.Reuse.UpdateClosureInto) — the matcher
// is warm-started: prev's maximum matching remains a valid matching over
// the enlarged edge set, so it is reseeded verbatim and augmentation runs
// only for the added edges, fed in the same prioritized batches as a cold
// run. The width is exactly the from-scratch width, because
// augmenting-path maximality does not depend on the starting matching. When
// prev is nil or describes a different item set, the matching runs cold.
func ChainsDeltaWidth(prev *Result, r *reuse.Reuse, levels []int, s *DeltaScratch) int {
	n := r.NumItems()
	s.edges = sortedEdgesInto(s.edges, r, levels)
	edges := s.edges
	if s.m == nil {
		s.m = matching.NewIncremental(n, n)
	} else {
		s.m.Reset(n, n)
	}
	m := s.m

	if prev != nil && prev.R != nil && prev.R.NumItems() == n {
		// Partition in place into surviving and fresh edges. The surviving
		// edges go straight into the matcher (the seeded matching already
		// covers them maximally); the fresh ones are compacted to the front
		// of the buffer, preserving their priority order.
		old := prev.R.Rel
		nf := 0
		for _, e := range edges {
			if old.Has(e.a, e.b) {
				m.AddEdge(e.a, e.b)
			} else {
				edges[nf] = e
				nf++
			}
		}
		edges = edges[:nf]
		s.pairs = pairsInto(s.pairs, prev)
		m.Seed(s.pairs)
	}
	augmentBatches(m, edges)
	return n - m.Size()
}
