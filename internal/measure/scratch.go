package measure

import (
	"ursa/internal/matching"
	"ursa/internal/reuse"
)

// DeltaScratch holds the matcher behind Width, reused across calls. One
// scratch belongs to one evaluator worker; the zero value is ready to use.
type DeltaScratch struct {
	matcher matching.Matcher
}

// Width returns the width of the reuse order r — its item count less a
// maximum matching, exactly Chains(r, levels).Width for any levels —
// without building the decomposition and without allocating in steady
// state. It is the candidate evaluator's only scoring primitive: hammock
// priorities choose which maximum matching Chains finds, never its size,
// so scoring needs neither hammocks nor nesting levels.
//
// prev, when non-nil, warm-starts the matching. The caller guarantees that
// prev measures r's items and that every pair of prev's decomposition is a
// pair of r — true when reuse.Builder.Build reports r's items and kills
// equal to prev's after any candidate, since reachability among existing
// nodes only grows and the order then only gains pairs. Kuhn's
// augmentation reaches a maximum matching from any valid start, in any
// edge order, so the width is the from-scratch width either way. With
// prev nil the matching runs cold.
func Width(prev *Result, r *reuse.Reuse, s *DeltaScratch) int {
	m := &s.matcher
	m.Reset(r.Rel)
	if prev != nil {
		m.Seed(prev.Chains)
	}
	return r.NumItems() - m.Augment()
}
