package order

import (
	"fmt"
	"math/bits"
	"slices"
)

// Relation is a binary relation over {0..n-1}, stored as one bitset of
// successors per element. For URSA it represents the strict partial orders
// CanReuse_R and DAG reachability.
//
// All rows share one flat []uint64 slab, so constructing a relation costs
// three allocations regardless of n, resetting it is one memclr, and
// copying one relation into another of equal size is a single word copy —
// the operations the candidate evaluator performs per tentative
// transformation. Reset, Grow and CopyFrom change the ground set's size in
// place, reusing the slab while its capacity allows, so a relation that
// alternates between sizes allocates only when it first outgrows its
// storage. The zero value is an empty relation over no elements.
type Relation struct {
	rows []BitSet
	slab []uint64
	n    int
}

// NewRelation returns an empty relation over n elements.
func NewRelation(n int) *Relation {
	r := new(Relation)
	r.setSize(n)
	return r
}

// setSize lays r out over n elements, reusing the slab and the row headers
// while their capacity allows. The contents are unspecified afterwards.
func (r *Relation) setSize(n int) {
	w := bitWords(n)
	r.slab = slices.Grow(r.slab[:0], n*w)[:n*w]
	r.rows = slices.Grow(r.rows[:0], n)[:n]
	for i := range r.rows {
		r.rows[i] = BitSet{words: r.slab[i*w : (i+1)*w : (i+1)*w], n: n}
	}
	r.n = n
}

// Reset empties r and sets its ground set to {0..n-1}, keeping the
// storage.
func (r *Relation) Reset(n int) {
	if n != r.n {
		r.setSize(n)
	}
	clear(r.slab)
}

// Grow extends the ground set to {0..n-1}, n >= Size(), keeping every
// pair; the new elements relate to nothing. Rows widen in place when a row
// crosses a 64-element word boundary.
func (r *Relation) Grow(n int) {
	on, ow := r.n, bitWords(r.n)
	old := r.slab // still holds the rows if setSize moves the slab
	r.setSize(n)
	w := bitWords(n)
	// A row never moves down (w >= ow), so moving the last row first never
	// overwrites a row that has yet to move.
	for i := on - 1; i >= 0; i-- {
		copy(r.slab[i*w:i*w+ow], old[i*ow:(i+1)*ow])
		clear(r.slab[i*w+ow : (i+1)*w])
	}
	clear(r.slab[on*w:])
}

// Size returns the number of elements of the ground set.
func (r *Relation) Size() int { return r.n }

// Add inserts the pair (a, b).
func (r *Relation) Add(a, b int) { r.rows[a].Set(b) }

// Remove deletes the pair (a, b).
func (r *Relation) Remove(a, b int) { r.rows[a].Clear(b) }

// Has reports whether (a, b) is in the relation.
func (r *Relation) Has(a, b int) bool { return r.rows[a].Has(b) }

// Row returns the successor set of a. The result aliases internal storage
// and must not be mutated by callers; it is valid until r's size changes.
func (r *Relation) Row(a int) *BitSet { return &r.rows[a] }

// Pairs returns the number of pairs in the relation.
func (r *Relation) Pairs() int {
	c := 0
	for _, w := range r.slab {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	c := NewRelation(r.n)
	copy(c.slab, r.slab)
	return c
}

// CopyFrom overwrites r with the contents of o, taking o's size. Reusing
// one relation as a copy target is how the candidate evaluator resets its
// scratch closure between tentative applications — including after a
// spill grew it — without reallocating; with both sides slab-backed the
// copy is a single memmove.
func (r *Relation) CopyFrom(o *Relation) {
	if r.n != o.n {
		r.setSize(o.n)
	}
	copy(r.slab, o.slab)
}

// TransitiveClosure returns the transitive closure of r, computed row-wise
// in reverse topological order when r is acyclic, falling back to iteration
// to a fixed point otherwise. O(n²·n/64) for the acyclic case.
func (r *Relation) TransitiveClosure() *Relation {
	c := r.Clone()
	if topo, ok := c.TopoOrder(); ok {
		// Process in reverse topological order so each successor row is
		// already complete when it is folded in. Iterating r's row (never
		// mutated here) lets ForEach replace the allocating Members call.
		for i := len(topo) - 1; i >= 0; i-- {
			a := topo[i]
			row := &c.rows[a]
			r.rows[a].ForEach(func(b int) {
				row.Or(&c.rows[b])
			})
		}
		return c
	}
	for changed := true; changed; {
		changed = false
		for a := 0; a < c.n; a++ {
			row := &c.rows[a]
			for _, b := range row.Members() {
				if row.Or(&c.rows[b]) {
					changed = true
				}
			}
		}
	}
	return c
}

// AddClosureEdge updates r — which must already be transitively closed — in
// place to the closure of the underlying relation plus the edge (u, v),
// assuming the addition keeps the relation acyclic (v must not reach u).
// Everything that reaches u, and u itself, now also reaches v and everything
// v reaches: for every such row, OR in v's row and set v. O(n·n/64), versus
// O(n²·n/64) for recomputing the closure — this is what makes tentative
// candidates, whose closures only grow, cheap to remeasure.
func (r *Relation) AddClosureEdge(u, v int) {
	if u == v || r.Has(u, v) {
		return
	}
	rv := &r.rows[v]
	r.rows[u].Or(rv)
	r.rows[u].Set(v)
	for a := 0; a < r.n; a++ {
		if a != u && r.rows[a].Has(u) {
			r.rows[a].Or(rv)
			r.rows[a].Set(v)
		}
	}
}

// TransitiveReduction returns the minimal relation with the same transitive
// closure, assuming r is acyclic (a DAG). Edge (a,b) is redundant iff some
// other successor c of a reaches b.
func (r *Relation) TransitiveReduction() *Relation {
	closure := r.TransitiveClosure()
	red := r.Clone()
	sp := getInts(r.n)
	defer putInts(sp)
	for a := 0; a < r.n; a++ {
		succs := (*sp)[:0]
		r.rows[a].ForEach(func(b int) { succs = append(succs, b) })
		for _, b := range succs {
			for _, c := range succs {
				if c != b && closure.Has(c, b) {
					red.Remove(a, b)
					break
				}
			}
		}
	}
	return red
}

// TopoOrder returns a topological order of the relation viewed as a digraph,
// and whether one exists (false means the relation has a cycle).
func (r *Relation) TopoOrder() ([]int, bool) {
	bp := getInts(2 * r.n)
	defer putInts(bp)
	buf := (*bp)[:2*r.n]
	indeg := buf[:r.n]
	clear(indeg)
	for a := 0; a < r.n; a++ {
		r.rows[a].ForEach(func(b int) { indeg[b]++ })
	}
	queue := buf[r.n:][:0]
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, r.n)
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		order = append(order, a)
		r.rows[a].ForEach(func(b int) {
			indeg[b]--
			if indeg[b] == 0 {
				queue = append(queue, b)
			}
		})
	}
	return order, len(order) == r.n
}

// IsAcyclic reports whether the relation, viewed as a digraph, has no cycle.
func (r *Relation) IsAcyclic() bool {
	_, ok := r.TopoOrder()
	return ok
}

// IsStrictPartialOrder reports whether the relation is irreflexive and
// transitive (and hence antisymmetric).
func (r *Relation) IsStrictPartialOrder() error {
	for a := 0; a < r.n; a++ {
		if r.Has(a, a) {
			return fmt.Errorf("order: relation is reflexive at %d", a)
		}
	}
	for a := 0; a < r.n; a++ {
		for _, b := range r.rows[a].Members() {
			for _, c := range r.rows[b].Members() {
				if !r.Has(a, c) {
					return fmt.Errorf("order: relation not transitive: (%d,%d),(%d,%d) but not (%d,%d)", a, b, b, c, a, c)
				}
			}
		}
	}
	return nil
}

// Comparable reports whether a and b are related in either direction.
func (r *Relation) Comparable(a, b int) bool {
	return r.Has(a, b) || r.Has(b, a)
}
