package measure

import (
	"ursa/internal/matching"
	"ursa/internal/reuse"
)

// DeltaScratch holds the reusable buffers behind Width: a pooled matcher
// and the seed pairs. One scratch belongs to one evaluator worker; the
// zero value is ready to use.
type DeltaScratch struct {
	m     *matching.Incremental
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

// Width returns the width of the reuse order r — its item count less a
// maximum matching, exactly Chains(r, levels).Width for any levels —
// without building the decomposition and without allocating in steady
// state. It is the candidate evaluator's only scoring primitive: hammock
// priorities choose which maximum matching Chains finds, never its size,
// so scoring needs neither hammocks nor nesting levels.
//
// prev may warm-start the matching. The caller guarantees that when prev
// covers the same item set, every pair of prev's decomposition is a pair
// of r — true after sequencing edges leave the kill vector unchanged, since
// reuse orders then only gain pairs (see reuse.Reuse.UpdateClosureInto).
// Kuhn's augmentation reaches a maximum matching from any valid start, in
// any edge order, so the width is the from-scratch width either way. With
// prev nil or over a different item set, the matching runs cold.
func Width(prev *Result, r *reuse.Reuse, s *DeltaScratch) int {
	n := r.NumItems()
	if s.m == nil {
		s.m = matching.NewIncremental(n, n)
	} else {
		s.m.Reset(n, n)
	}
	m := s.m
	if prev != nil && prev.R != nil && prev.R.NumItems() == n {
		s.pairs = pairsInto(s.pairs, prev)
		m.Seed(s.pairs)
	}
	for a := 0; a < n; a++ {
		r.Rel.Row(a).ForEach(func(b int) { m.AddEdge(a, b) })
	}
	return n - m.Augment()
}
