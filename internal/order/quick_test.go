package order

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// relGen adapts random edge masks into DAG relations over n=10 elements:
// bit (i*10+j) of the mask adds edge i->j for i<j, which is acyclic by
// construction.
type relGen struct {
	rel *Relation
}

// Generate implements quick.Generator.
func (relGen) Generate(rand *rand.Rand, size int) reflect.Value {
	const n = 10
	r := NewRelation(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rand.Intn(3) == 0 {
				r.Add(i, j)
			}
		}
	}
	return reflect.ValueOf(relGen{r})
}

func TestQuickClosureIdempotent(t *testing.T) {
	f := func(g relGen) bool {
		c1 := g.rel.TransitiveClosure()
		c2 := c1.TransitiveClosure()
		for a := 0; a < c1.Size(); a++ {
			for b := 0; b < c1.Size(); b++ {
				if c1.Has(a, b) != c2.Has(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickReductionMinimal(t *testing.T) {
	// Removing any edge from the transitive reduction changes the closure.
	f := func(g relGen) bool {
		red := g.rel.TransitiveReduction()
		want := g.rel.TransitiveClosure()
		for a := 0; a < red.Size(); a++ {
			for _, b := range red.Row(a).Members() {
				probe := red.Clone()
				probe.Remove(a, b)
				c := probe.TransitiveClosure()
				same := true
				for x := 0; x < c.Size() && same; x++ {
					for y := 0; y < c.Size(); y++ {
						if c.Has(x, y) != want.Has(x, y) {
							same = false
							break
						}
					}
				}
				if same {
					return false // edge was removable: not a reduction
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickAddClosureEdge(t *testing.T) {
	// Maintaining the closure one edge at a time with AddClosureEdge matches
	// recomputing it from scratch after every addition. Edges i->j with i<j
	// keep the relation acyclic by construction; repeats and self-loops are
	// no-ops.
	f := func(g relGen, edges []uint8) bool {
		base := g.rel.Clone()
		inc := base.TransitiveClosure()
		n := base.Size()
		for _, e := range edges {
			u, v := int(e)/n%n, int(e)%n
			if u == v {
				inc.AddClosureEdge(u, v) // self-loop: must be a no-op
			}
			if u >= v {
				continue // skip potential cycles; only acyclic additions apply
			}
			base.Add(u, v)
			inc.AddClosureEdge(u, v)
			want := base.TransitiveClosure()
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if inc.Has(a, b) != want.Has(a, b) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestQuickBitSetLaws(t *testing.T) {
	type sets struct {
		A, B []uint8
	}
	build := func(xs []uint8) *BitSet {
		s := NewBitSet(256)
		for _, x := range xs {
			s.Set(int(x))
		}
		return s
	}
	// |A ∪ B| + |A ∩ B| == |A| + |B| (inclusion-exclusion), and
	// (A \ B) ∩ B == ∅.
	f := func(in sets) bool {
		a, b := build(in.A), build(in.B)
		union := a.Clone()
		union.Or(b)
		inter := a.Clone()
		inter.And(b)
		if union.Count()+inter.Count() != a.Count()+b.Count() {
			return false
		}
		diff := a.Clone()
		diff.AndNot(b)
		return !diff.Intersects(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
