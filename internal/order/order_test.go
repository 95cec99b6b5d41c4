package order

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitSetBasics(t *testing.T) {
	s := NewBitSet(130)
	for _, i := range []int{0, 63, 64, 127, 129} {
		s.Set(i)
	}
	if s.Count() != 5 {
		t.Errorf("Count = %d, want 5", s.Count())
	}
	if !s.Has(64) || s.Has(65) {
		t.Error("Has gave wrong membership")
	}
	s.Clear(64)
	if s.Has(64) {
		t.Error("Clear failed")
	}
	got := s.Members()
	want := []int{0, 63, 127, 129}
	if len(got) != len(want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
	if s.String() != "{0, 63, 127, 129}" {
		t.Errorf("String = %s", s.String())
	}
}

func TestBitSetOps(t *testing.T) {
	a := NewBitSet(100)
	b := NewBitSet(100)
	a.Set(1)
	a.Set(70)
	b.Set(70)
	b.Set(99)
	if !a.Intersects(b) {
		t.Error("Intersects = false, want true")
	}
	c := a.Clone()
	if changed := c.Or(b); !changed {
		t.Error("Or reported no change")
	}
	if c.Count() != 3 {
		t.Errorf("union Count = %d, want 3", c.Count())
	}
	if changed := c.Or(b); changed {
		t.Error("idempotent Or reported change")
	}
	c.AndNot(b)
	if c.Count() != 1 || !c.Has(1) {
		t.Errorf("AndNot left %v", c.Members())
	}
	a.And(b)
	if a.Count() != 1 || !a.Has(70) {
		t.Errorf("And left %v", a.Members())
	}
	a.Reset()
	if a.Count() != 0 {
		t.Error("Reset failed")
	}
}

// diamond: 0 -> {1,2} -> 3
func diamond() *Relation {
	r := NewRelation(4)
	r.Add(0, 1)
	r.Add(0, 2)
	r.Add(1, 3)
	r.Add(2, 3)
	return r
}

func TestTransitiveClosure(t *testing.T) {
	c := diamond().TransitiveClosure()
	if !c.Has(0, 3) {
		t.Error("closure missing (0,3)")
	}
	if c.Has(1, 2) || c.Has(2, 1) {
		t.Error("closure invented relation between 1 and 2")
	}
	if err := c.IsStrictPartialOrder(); err != nil {
		t.Errorf("closure not a strict partial order: %v", err)
	}
}

func TestTransitiveReduction(t *testing.T) {
	r := diamond()
	r.Add(0, 3) // redundant
	red := r.TransitiveReduction()
	if red.Has(0, 3) {
		t.Error("reduction kept redundant edge (0,3)")
	}
	if red.Pairs() != 4 {
		t.Errorf("reduction has %d pairs, want 4", red.Pairs())
	}
	// Same closure.
	c1 := r.TransitiveClosure()
	c2 := red.TransitiveClosure()
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if c1.Has(a, b) != c2.Has(a, b) {
				t.Fatalf("closures differ at (%d,%d)", a, b)
			}
		}
	}
}

func TestTopoOrderCycle(t *testing.T) {
	r := NewRelation(3)
	r.Add(0, 1)
	r.Add(1, 2)
	r.Add(2, 0)
	if r.IsAcyclic() {
		t.Error("cycle not detected")
	}
	if _, ok := r.TopoOrder(); ok {
		t.Error("TopoOrder succeeded on a cycle")
	}
	// Closure must still terminate on cyclic input.
	c := r.TransitiveClosure()
	if !c.Has(0, 0) {
		t.Error("cyclic closure should relate 0 to itself")
	}
}

func TestValidateDecomposition(t *testing.T) {
	c := diamond().TransitiveClosure()
	good := Decomposition{{0, 1, 3}, {2}}
	if err := ValidateDecomposition(c, good); err != nil {
		t.Errorf("good decomposition rejected: %v", err)
	}
	bad := Decomposition{{0, 1}, {2, 1, 3}} // 1 twice, 3 missing from first
	if err := ValidateDecomposition(c, bad); err == nil {
		t.Error("overlapping decomposition accepted")
	}
	notChain := Decomposition{{1, 2}, {0}, {3}}
	if err := ValidateDecomposition(c, notChain); err == nil {
		t.Error("non-chain accepted")
	}
	short := Decomposition{{0, 1, 3}}
	if err := ValidateDecomposition(c, short); err == nil {
		t.Error("incomplete decomposition accepted")
	}
}

func TestMaxAntichainBruteDiamond(t *testing.T) {
	c := diamond().TransitiveClosure()
	a := MaxAntichainBrute(c, nil)
	if len(a) != 2 {
		t.Errorf("width = %d, want 2 (antichain %v)", len(a), a)
	}
	if !IsAntichain(c, a) {
		t.Errorf("%v is not an antichain", a)
	}
}

func TestMaxAntichainBruteSubset(t *testing.T) {
	c := diamond().TransitiveClosure()
	a := MaxAntichainBrute(c, []int{0, 1, 3})
	if len(a) != 1 {
		t.Errorf("width of chain subset = %d, want 1", len(a))
	}
}

// randomDAG builds a random DAG relation where i -> j only if i < j.
func randomDAG(rng *rand.Rand, n int, p float64) *Relation {
	r := NewRelation(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				r.Add(i, j)
			}
		}
	}
	return r
}

func TestClosureIsPartialOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		r := randomDAG(rng, 12, 0.3)
		c := r.TransitiveClosure()
		if err := c.IsStrictPartialOrder(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		red := r.TransitiveReduction()
		if red.Pairs() > r.Pairs() {
			t.Fatalf("trial %d: reduction grew", trial)
		}
		c2 := red.TransitiveClosure()
		for a := 0; a < 12; a++ {
			for b := 0; b < 12; b++ {
				if c.Has(a, b) != c2.Has(a, b) {
					t.Fatalf("trial %d: reduction changed closure", trial)
				}
			}
		}
	}
}

func TestBitSetQuickOrIdempotent(t *testing.T) {
	f := func(xs []uint8) bool {
		s := NewBitSet(256)
		for _, x := range xs {
			s.Set(int(x))
		}
		c := s.Clone()
		c.Or(s)
		return c.Count() == s.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRelationResizeKeepsPairs grows random relations across sizes — within
// one word, onto a word boundary and across one — and copies them back and
// forth between sizes on one reused target: Grow keeps every pair and adds
// none, CopyFrom takes the source's size and pairs whatever the target held
// before, and a target that has reached its largest size reuses its
// storage.
func TestRelationResizeKeepsPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := func(n int) *Relation {
		r := NewRelation(n)
		for k := 0; k < 3*n; k++ {
			r.Add(rng.Intn(n), rng.Intn(n))
		}
		return r
	}
	same := func(a, b *Relation) bool {
		if a.Size() != b.Size() || a.Pairs() != b.Pairs() {
			return false
		}
		for i := 0; i < a.Size(); i++ {
			if !a.Row(i).SubsetOf(b.Row(i)) {
				return false
			}
		}
		return true
	}
	var dst Relation // one copy target across every size
	for _, c := range [][2]int{{1, 2}, {10, 12}, {60, 64}, {62, 66}, {64, 65}, {63, 200}, {130, 131}} {
		from, to := c[0], c[1]
		r := random(from)
		want := r.Clone()
		dst.CopyFrom(r)
		if !same(&dst, want) {
			t.Fatalf("%d->%d: CopyFrom onto a %d-element target differs", from, to, dst.Size())
		}
		r.Grow(to)
		if r.Size() != to || r.Pairs() != want.Pairs() {
			t.Fatalf("%d->%d: Grow left %d elements and %d pairs, want %d and %d",
				from, to, r.Size(), r.Pairs(), to, want.Pairs())
		}
		for a := 0; a < from; a++ {
			for b := 0; b < from; b++ {
				if r.Has(a, b) != want.Has(a, b) {
					t.Fatalf("%d->%d: pair (%d,%d) is %v after Grow, want %v", from, to, a, b, r.Has(a, b), want.Has(a, b))
				}
			}
		}
		r.Add(to-1, 0)
		r.Add(0, to-1)
		dst.CopyFrom(r)
		if !same(&dst, r) {
			t.Fatalf("%d->%d: CopyFrom of the grown relation differs", from, to)
		}
		dst.CopyFrom(want)
		if !same(&dst, want) {
			t.Fatalf("%d->%d: CopyFrom back to %d elements differs", from, to, from)
		}
		dst.Reset(to)
		if dst.Size() != to || dst.Pairs() != 0 {
			t.Fatalf("%d->%d: Reset(%d) left %d elements and %d pairs", from, to, to, dst.Size(), dst.Pairs())
		}
	}
	small, big := random(60), random(200)
	if a := testing.AllocsPerRun(10, func() {
		dst.CopyFrom(small)
		dst.Grow(190)
		dst.CopyFrom(big)
		dst.Reset(70)
	}); a != 0 {
		t.Errorf("resizing within capacity allocates %v per run, want 0", a)
	}
}
