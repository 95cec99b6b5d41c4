// Package matching implements maximum bipartite matching: the engine behind
// URSA's minimum chain decompositions. Ford and Fulkerson showed that a
// minimum chain decomposition of a partial order on n elements corresponds
// to a maximum matching in the bipartite graph whose left and right sides
// are both copies of the element set and whose edges are the order's pairs;
// the minimum number of chains is n − |matching| (paper §3.1, [FoF65]).
//
// Matcher runs Kuhn's augmenting-path algorithm on the order's bit rows,
// with no adjacency lists, including the paper's modified algorithm: edges
// join in priority batches (non-hammock-crossing edges first, then by
// nesting-level difference) with augmentation after each batch, which
// biases the final maximum matching toward high-priority edges and keeps
// the decomposition minimal for every nested hammock. HopcroftKarp and
// BruteMax, on adjacency lists, are the independent oracles it is tested
// against.
package matching

import (
	"math/bits"

	"ursa/internal/order"
)

// Matcher is a maximum bipartite matcher over the relation bound by Reset:
// left vertex a is adjacent to right vertex b iff (a, b) is a pair. A left
// vertex's next neighbour is the lowest set bit of its row less the right
// vertices the search has visited, found a 64-bit word at a time. The zero
// value is ready to use, and Reset keeps every buffer, so a reused matcher
// allocates nothing in steady state.
type Matcher struct {
	rel     *order.Relation
	matchL  []int32  // left -> right, -1 if unmatched
	matchR  []int32  // right -> left, -1 if unmatched
	visited []uint64 // right vertices the current search has tried

	// AugmentLevels' batches: level[a] is vertex a's nesting level, masks
	// one word row of vertices per level plus an all-zero row for levels
	// out of range. A left vertex at level L may take right vertices at
	// levels L±p for p <= prio; prio < 0 lifts the restriction.
	level []int32
	masks []uint64
	nlev  int
	prio  int
}

// Reset binds the matcher to rel with an empty matching.
func (m *Matcher) Reset(rel *order.Relation) {
	n := rel.Size()
	m.rel = rel
	m.matchL = fill(m.matchL, n, -1)
	m.matchR = fill(m.matchR, n, -1)
	m.visited = fill(m.visited, (n+63)/64, 0)
	m.prio = -1
}

// fill returns a length-n slice of v, reusing s's storage when it can.
func fill[T int32 | uint64](s []T, n int, v T) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// Seed installs a known-valid matching before augmentation: the pairs of a
// chain decomposition, consecutive elements x, y of a chain meaning left x
// is matched to right y (x's resource instance is reused by y). This is
// the warm start behind the measurement delta path: a maximum matching
// over an edge set stays a valid matching after edges are added, so
// reseeding it and augmenting from the remaining unmatched left vertices
// restores maximality without rederiving the prior pairs. The chains must
// be disjoint (panics if a vertex is matched twice) and their links pairs
// of the bound relation, which the caller guarantees.
func (m *Matcher) Seed(chains order.Decomposition) {
	for _, c := range chains {
		for k := 0; k+1 < len(c); k++ {
			l, r := c[k], c[k+1]
			if m.matchL[l] != -1 || m.matchR[r] != -1 {
				panic("matching: Seed chains match a vertex twice")
			}
			m.matchL[l], m.matchR[r] = int32(r), int32(l)
		}
	}
}

// Augment runs an augmenting-path search from every unmatched left vertex,
// in ascending order, and returns the matching size: maximum over the
// edges the search may use.
//
// The visited marks are cleared once per call and after each successful
// search, not before every search. A failed search changes nothing, and
// every right vertex it visited leads only to visited vertices with no
// augmenting path, so a later search that reaches one would fail there
// again; skipping it finds the same path. Under AugmentLevels a left
// vertex's admissible neighbours depend on that vertex's level, never on
// the search root, so the argument holds batch by batch.
func (m *Matcher) Augment() int {
	clear(m.visited)
	for l, r := range m.matchL {
		if r == -1 && m.try(int32(l)) {
			clear(m.visited)
		}
	}
	return m.Size()
}

// AugmentLevels runs the paper's prioritized matching and returns the
// maximum matching size. level(a) is vertex a's nesting level, and edge
// (a, b) has priority |level(a) − level(b)|. Batch k adds the edges of
// priority k and augments, so a left vertex at level L tries its
// neighbours at levels L-p and L+p for p = 0..k in turn, each group in
// ascending order: the order adjacency lists fed (priority, left,
// right)-sorted edges would hold, and hence the matching such a batched
// matcher finds. A batch with no edges leaves the matching as it was.
func (m *Matcher) AugmentLevels(level func(a int) int) int {
	if len(m.matchL) == 0 {
		return 0
	}
	m.setLevels(level)
	for m.prio = 0; m.prio < m.nlev; m.prio++ {
		m.Augment()
	}
	m.prio = -1
	return m.Size()
}

// setLevels records every vertex's level, shifted to start at 0, and each
// level's vertex row for AugmentLevels' batches.
func (m *Matcher) setLevels(level func(a int) int) {
	n, words := len(m.matchL), len(m.visited)
	m.level = fill(m.level, n, 0)
	lo, hi := level(0), level(0)
	for a := range m.level {
		l := level(a)
		m.level[a] = int32(l)
		lo, hi = min(lo, l), max(hi, l)
	}
	m.nlev = hi - lo + 1
	m.masks = fill(m.masks, (m.nlev+1)*words, 0)
	for a := range m.level {
		m.level[a] -= int32(lo)
		m.masks[int(m.level[a])*words+a>>6] |= 1 << (a & 63)
	}
}

// mask returns level L's vertex row, all zero when L is out of range.
func (m *Matcher) mask(L int) []uint64 {
	if L < 0 || L >= m.nlev {
		L = m.nlev
	}
	w := len(m.visited)
	return m.masks[L*w : (L+1)*w]
}

// try searches for an augmenting path from left vertex l.
func (m *Matcher) try(l int32) bool {
	row := m.rel.Row(int(l)).Words()
	if m.prio < 0 {
		return m.scan(l, row, nil, nil)
	}
	L := int(m.level[l])
	for p := 0; p <= m.prio && (L-p >= 0 || L+p < m.nlev); p++ {
		if m.scan(l, row, m.mask(L-p), m.mask(L+p)) {
			return true
		}
	}
	return false
}

// scan tries l's unvisited neighbours in ascending order, within lo|hi
// when lo is non-nil. Recursion only marks more right vertices visited,
// so the lowest set bit of row &^ visited is always the next untried one.
func (m *Matcher) scan(l int32, row, lo, hi []uint64) bool {
	visited := m.visited[:len(row)]
	for w := 0; w < len(row); {
		x := row[w] &^ visited[w]
		if lo != nil {
			x &= lo[w] | hi[w]
		}
		if x == 0 {
			w++
			continue
		}
		b := bits.TrailingZeros64(x)
		visited[w] |= 1 << b
		r := int32(w<<6 | b)
		if m.matchR[r] == -1 || m.try(m.matchR[r]) {
			m.matchL[l], m.matchR[r] = r, l
			return true
		}
	}
	return false
}

// Size returns the number of matched pairs.
func (m *Matcher) Size() int {
	n := 0
	for _, r := range m.matchL {
		if r != -1 {
			n++
		}
	}
	return n
}

// PairL returns the right vertex matched to l, or -1.
func (m *Matcher) PairL(l int) int { return int(m.matchL[l]) }

// PairR returns the left vertex matched to r, or -1.
func (m *Matcher) PairR(r int) int { return int(m.matchR[r]) }
