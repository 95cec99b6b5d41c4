// Package order provides the partial-order machinery underlying URSA's
// resource-requirement measurements: dense bitsets, binary relations over
// node sets, transitive closure/reduction, and chain/antichain utilities
// realizing Dilworth's theorem (Theorem 1 of the paper).
package order

import (
	"fmt"
	"math/bits"
	"strings"
)

// BitSet is a fixed-capacity dense bitset over {0..n-1}.
type BitSet struct {
	words []uint64
	n     int
}

// NewBitSet returns an empty bitset with capacity n.
func NewBitSet(n int) *BitSet {
	return &BitSet{words: make([]uint64, (n+63)/64), n: n}
}

// bitWords returns the number of 64-bit words backing a set of capacity n.
func bitWords(n int) int { return (n + 63) / 64 }

// Len returns the capacity of the set.
func (s *BitSet) Len() int { return s.n }

// Set adds i to the set.
func (s *BitSet) Set(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes i from the set.
func (s *BitSet) Clear(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether i is in the set.
func (s *BitSet) Has(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Words returns the set's backing words, bit i of the set being bit i&63 of
// word i>>6. The slice aliases internal storage and must not be mutated;
// it is how word-level scans (matching, reuse-pair derivation) read a set
// 64 members at a time.
func (s *BitSet) Words() []uint64 { return s.words }

// Count returns the cardinality of the set.
func (s *BitSet) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Or sets s = s ∪ t and reports whether s changed.
func (s *BitSet) Or(t *BitSet) bool {
	changed := false
	for i, w := range t.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// And sets s = s ∩ t.
func (s *BitSet) And(t *BitSet) {
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// AndNot sets s = s \ t.
func (s *BitSet) AndNot(t *BitSet) {
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// Intersects reports whether s ∩ t is nonempty.
func (s *BitSet) Intersects(t *BitSet) bool {
	for i := range s.words {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every member of s is also in t, without
// allocating. This is the containment test the hammock nesting-level
// assignment runs O(H²) times per Hammocks call; the previous
// clone-and-subtract formulation allocated a bitset per pair.
func (s *BitSet) SubsetOf(t *BitSet) bool {
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Clone returns a copy of the set.
func (s *BitSet) Clone() *BitSet {
	c := NewBitSet(s.n)
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with t (same capacity required).
func (s *BitSet) CopyFrom(t *BitSet) {
	copy(s.words, t.words)
}

// Reset empties the set.
func (s *BitSet) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// ForEach calls fn for every member in increasing order.
func (s *BitSet) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi<<6 + b)
			w &= w - 1
		}
	}
}

// Members returns the elements in increasing order.
func (s *BitSet) Members() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// String renders the set as {a, b, ...}.
func (s *BitSet) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
	})
	sb.WriteByte('}')
	return sb.String()
}
