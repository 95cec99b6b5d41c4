package order

import "fmt"

// A Chain is a sequence of elements that are pairwise comparable under a
// partial order (Definition 1 of the paper). Chains need not be contiguous
// paths in the underlying DAG.
type Chain []int

// A Decomposition is a partition of the ground set into chains
// (Definition 2). A decomposition is minimal when no decomposition with
// fewer chains exists; by Dilworth's theorem (Theorem 1) the minimal size
// equals the width — the maximum number of pairwise-independent elements.
type Decomposition []Chain

// ValidateChain checks that c is a chain of the strict partial order rel
// (rel must be transitively closed): consecutive elements must be related in
// order. For a transitive relation this implies all pairs are comparable.
func ValidateChain(rel *Relation, c Chain) error {
	for i := 0; i+1 < len(c); i++ {
		if !rel.Has(c[i], c[i+1]) {
			return fmt.Errorf("order: chain elements %d,%d not related", c[i], c[i+1])
		}
	}
	return nil
}

// ValidateDecomposition checks that d is a partition of {0..n-1} into valid
// chains of rel (rel transitively closed).
func ValidateDecomposition(rel *Relation, d Decomposition) error {
	seen := NewBitSet(rel.Size())
	for _, c := range d {
		if len(c) == 0 {
			return fmt.Errorf("order: empty chain in decomposition")
		}
		if err := ValidateChain(rel, c); err != nil {
			return err
		}
		for _, x := range c {
			if seen.Has(x) {
				return fmt.Errorf("order: element %d in two chains", x)
			}
			seen.Set(x)
		}
	}
	if got := seen.Count(); got != rel.Size() {
		return fmt.Errorf("order: decomposition covers %d of %d elements", got, rel.Size())
	}
	return nil
}

// IsAntichain reports whether all elements of set are pairwise incomparable
// under rel (rel transitively closed).
func IsAntichain(rel *Relation, set []int) bool {
	for i, a := range set {
		for _, b := range set[i+1:] {
			if rel.Comparable(a, b) {
				return false
			}
		}
	}
	return true
}

// MaxAntichainBrute computes the width of the partial order rel by
// exhaustive branch-and-bound search. Exponential: intended for
// cross-checking the matching-based width on small instances in tests.
// rel must be transitively closed. The subset parameter restricts the
// search to the given elements (nil means all).
func MaxAntichainBrute(rel *Relation, subset []int) []int {
	var elems []int
	if subset == nil {
		elems = make([]int, rel.Size())
		for i := range elems {
			elems[i] = i
		}
	} else {
		elems = subset
	}
	var best []int
	var cur []int
	var rec func(i int)
	rec = func(i int) {
		if len(cur)+(len(elems)-i) <= len(best) {
			return // cannot beat best
		}
		if i == len(elems) {
			if len(cur) > len(best) {
				best = append([]int(nil), cur...)
			}
			return
		}
		x := elems[i]
		ok := true
		for _, y := range cur {
			if rel.Comparable(x, y) {
				ok = false
				break
			}
		}
		if ok {
			cur = append(cur, x)
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
		rec(i + 1)
	}
	rec(0)
	return best
}
