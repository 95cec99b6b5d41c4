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
	"math/bits"
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
	var s ExcessScratch
	var sets []*ExcessSet
	for _, h := range hammocks {
		if set := excessInHammock(res, h, limit, &s); set != nil {
			sets = append(sets, set)
		}
	}
	return sets
}

// InnerOuter returns the first and the last of FindExcess's sets — the
// innermost and the outermost excessive chain set — without building the
// ones between: it scans the hammocks forward to the first set, then
// backward to the first set beyond it. outer is nil when there is only
// one set, and both are nil when there is none.
func InnerOuter(res *Result, hammocks []*dag.Hammock, limit int, s *ExcessScratch) (inner, outer *ExcessSet) {
	for i, h := range hammocks {
		if inner = excessInHammock(res, h, limit, s); inner == nil {
			continue
		}
		for j := len(hammocks) - 1; j > i; j-- {
			if outer = excessInHammock(res, hammocks[j], limit, s); outer != nil {
				break
			}
		}
		return inner, outer
	}
	return nil, nil
}

// ExcessScratch holds the comparability bitsets behind the head/tail trim,
// reused across calls. The zero value is ready to use.
type ExcessScratch struct {
	words []uint64
}

func excessInHammock(res *Result, h *dag.Hammock, limit int, s *ExcessScratch) *ExcessSet {
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
	if n := trim(proj, r.Rel, s); n > limit {
		return &ExcessSet{Hammock: h, Chains: proj[:n], Limit: limit}
	}
	return nil
}

// trim trims heads that other heads depend on, and tails that depend on
// other tails, until all heads and all tails are mutually independent
// (paper §3.1's example procedure), and compacts the surviving chains, in
// order, to the front of proj; it returns their number. Independence is
// judged in the resource's own partial order rel (Def. 6): two items are
// independent iff neither can reuse the other's resource instance, i.e.
// they can hold instances simultaneously. The reuse-order ancestor head is
// removed; the reuse-order descendant tail is removed.
//
// Each step trims the first comparable pair of heads (i < j, in chain
// order), or, when the heads are independent, the first comparable pair of
// tails, and an emptied chain drops out. The pairs are read off per-chain
// comparability bitsets, one row per chain for the heads and one for the
// tails, and a trim refreshes only the trimmed chain's row and column, so
// a step costs O(n) comparisons for n chains instead of a rescan of all
// pairs.
func trim(proj []order.Chain, rel *order.Relation, s *ExcessScratch) int {
	n := len(proj)
	w := (n + 63) / 64
	if cap(s.words) < 2*n*w {
		s.words = make([]uint64, 2*n*w)
	}
	heads, tails := comparability{s.words[:n*w], w}, comparability{s.words[n*w : 2*n*w], w}
	clear(s.words[:2*n*w])
	head := func(c order.Chain) int { return c[0] }
	tail := func(c order.Chain) int { return c[len(c)-1] }
	for i := range proj {
		for j := i + 1; j < n; j++ {
			if rel.Comparable(head(proj[i]), head(proj[j])) {
				heads.set(i, j)
			}
			if rel.Comparable(tail(proj[i]), tail(proj[j])) {
				tails.set(i, j)
			}
		}
	}
	// refresh recomputes chain v's row and column of m, or, once v is
	// empty, clears them in both matrices.
	refresh := func(m comparability, v int, end func(order.Chain) int) {
		if len(proj[v]) == 0 {
			heads.drop(v, n)
			tails.drop(v, n)
			return
		}
		for x := range proj {
			if x != v && len(proj[x]) > 0 && rel.Comparable(end(proj[v]), end(proj[x])) {
				m.set(v, x)
			} else {
				m.unset(v, x)
			}
		}
	}
	for {
		if i, j, ok := heads.first(n); ok {
			vic := i // remove the earlier (ancestor) head
			if rel.Has(head(proj[j]), head(proj[i])) {
				vic = j
			}
			proj[vic] = proj[vic][1:]
			refresh(heads, vic, head)
			continue
		}
		if i, j, ok := tails.first(n); ok {
			vic := j // remove the later (descendant) tail
			if rel.Has(tail(proj[j]), tail(proj[i])) {
				vic = i
			}
			proj[vic] = proj[vic][:len(proj[vic])-1]
			refresh(tails, vic, tail)
			continue
		}
		break
	}
	k := 0
	for _, c := range proj {
		if len(c) > 0 {
			proj[k] = c
			k++
		}
	}
	return k
}

// A comparability matrix holds one bitset row of w words per chain: bit j
// of row i is set iff chain i's end is comparable with chain j's. It is
// symmetric.
type comparability struct {
	bits []uint64
	w    int
}

func (m comparability) set(i, j int) {
	m.bits[i*m.w+j>>6] |= 1 << (j & 63)
	m.bits[j*m.w+i>>6] |= 1 << (i & 63)
}

func (m comparability) unset(i, j int) {
	m.bits[i*m.w+j>>6] &^= 1 << (j & 63)
	m.bits[j*m.w+i>>6] &^= 1 << (i & 63)
}

// drop clears chain v's row and column.
func (m comparability) drop(v, n int) {
	clear(m.bits[v*m.w : (v+1)*m.w])
	for x := 0; x < n; x++ {
		m.bits[x*m.w+v>>6] &^= 1 << (v & 63)
	}
}

// first returns the first comparable pair (i, j) in row-major order: i is
// the first chain with a comparable partner and j its first partner, so
// i < j by symmetry.
func (m comparability) first(n int) (i, j int, ok bool) {
	for i = 0; i < n; i++ {
		for k, x := range m.bits[i*m.w : (i+1)*m.w] {
			if x != 0 {
				return i, k<<6 | bits.TrailingZeros64(x), true
			}
		}
	}
	return 0, 0, false
}
