package measure

import (
	"math/rand"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/order"
	"ursa/internal/reuse"
)

// TestWidthMatchesChains drives one reused scratch through many random
// graphs — both the cold path (no previous result) and the warm-start path
// seeded from a measurement of a random pair subset — and requires the
// pooled width to equal the from-scratch Chains width exactly, with and
// without hammock priorities.
func TestWidthMatchesChains(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s DeltaScratch
	for trial := 0; trial < 60; trial++ {
		f := randomBlock(rng, 4+rng.Intn(12))
		g, err := dag.Build(f.Blocks[0])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		hs := g.Hammocks()
		levels := g.NestLevels(hs)
		for _, r := range []*reuse.Reuse{reuse.FU(g, reuse.AllFUs), reuse.Reg(g, ir.ClassInt)} {
			full := Chains(r, levels)
			cold, plain := Width(nil, r, &s), Chains(r, nil).Width
			if cold != plain || plain != full.Width {
				t.Fatalf("trial %d: cold width %d, unprioritized Chains %d, prioritized Chains %d",
					trial, cold, plain, full.Width)
			}

			// Warm start from a random subset of the pairs.
			n := r.NumItems()
			sub := order.NewRelation(n)
			for a := 0; a < n; a++ {
				r.Rel.Row(a).ForEach(func(b int) {
					if rng.Intn(2) == 0 {
						sub.Add(a, b)
					}
				})
			}
			rsub := *r
			rsub.Rel = sub
			prev := Chains(&rsub, levels)
			if w := Width(prev, r, &s); w != full.Width {
				t.Fatalf("trial %d: warm width %d != %d", trial, w, full.Width)
			}
		}
	}
}

// TestWidthAllocatesNothing: on a reused scratch, cold and warm-started
// widths allocate nothing — the candidate scorer's steady state.
func TestWidthAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g, err := dag.Build(randomBlock(rng, 140).Blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	var s DeltaScratch
	for _, r := range []*reuse.Reuse{reuse.FU(g, reuse.AllFUs), reuse.Reg(g, ir.ClassInt)} {
		prev := Measure(r)
		Width(prev, r, &s)
		if a := testing.AllocsPerRun(20, func() { Width(nil, r, &s) }); a != 0 {
			t.Errorf("%s: cold Width allocs per run = %v, want 0", r, a)
		}
		if a := testing.AllocsPerRun(20, func() { Width(prev, r, &s) }); a != 0 {
			t.Errorf("%s: warm Width allocs per run = %v, want 0", r, a)
		}
	}
}
