package transform

import (
	"strings"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/measure"
	"ursa/internal/reuse"
)

// interleavedGraph builds two chains woven together so that each chain's
// head reaches the other chain's tail: no tail->head merge edge is
// feasible, forcing the fallback candidate generators.
//
//	a1 -> a2 -> a3      b1 -> b2 -> b3
//	a1 -> b2, b1 -> a2, a2 -> b3, b2 -> a3
func interleavedGraph(t *testing.T) *dag.Graph {
	t.Helper()
	f := ir.MustParse(`
entry:
	a1 = load A[0]
	b1 = load A[1]
	a2 = addi a1, 1
	b2 = addi b1, 1
	xa = add b1, a2
	xb = add a1, b2
	a3 = add a2, xb
	b3 = add b2, xa
	store O[0], a3
	store O[1], b3
`)
	g, err := dag.Build(f.Blocks[0])
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestFUFallbackWhenMergesInfeasible(t *testing.T) {
	g := interleavedGraph(t)
	res := measure.Measure(reuse.FU(g, reuse.AllFUs))
	if res.Width < 2 {
		t.Skipf("width %d too small for the scenario", res.Width)
	}
	sets := measure.FindExcess(res, g.Hammocks(), 1)
	if len(sets) == 0 {
		t.Fatal("no excess at limit 1")
	}
	cands := FUCandidates(g, g.Reach(), g.Depths(), res, sets[len(sets)-1])
	if len(cands) == 0 {
		t.Fatal("no candidates at all")
	}
	applied := 0
	for _, c := range cands {
		cl := g.Clone()
		if err := apply(cl, c); err == nil {
			applied++
			if err := cl.Check(); err != nil {
				t.Errorf("candidate %s corrupted graph: %v", c, err)
			}
		}
	}
	if applied == 0 {
		t.Error("no candidate applied cleanly")
	}
}

func TestFUFallbackAntichainSerialization(t *testing.T) {
	// Drive a graph into the no-merge state by hand and check the
	// "serialize antichain heads" candidate exists among FU candidates.
	g := interleavedGraph(t)
	res := measure.Measure(reuse.FU(g, reuse.AllFUs))
	sets := measure.FindExcess(res, g.Hammocks(), 1)
	if len(sets) == 0 {
		t.Skip("no excess")
	}
	found := false
	for _, set := range sets {
		for _, c := range FUCandidates(g, g.Reach(), g.Depths(), res, set) {
			if strings.Contains(c.Note, "serialize") || strings.Contains(c.Note, "mid ") ||
				strings.Contains(c.Note, "->") {
				found = true
			}
		}
	}
	if !found {
		t.Error("no fallback-style candidate generated")
	}
}

func TestRegFallbackSerializesLifetimes(t *testing.T) {
	g := interleavedGraph(t)
	res := measure.Measure(reuse.Reg(g, ir.ClassInt))
	if res.Width < 3 {
		t.Skipf("width %d leaves no reducible excess (binary operands pin 2)", res.Width)
	}
	// One below the current width: reducible without hitting the floor of
	// two simultaneously-live operands that any binary instruction needs.
	sets := measure.FindExcess(res, g.Hammocks(), res.Width-1)
	if len(sets) == 0 {
		t.Skip("no register excess")
	}
	// On this graph every value has a distant second use, so its true
	// minimum register need equals the measured width: no candidate can
	// reduce it. The fallback generators must still produce applicable,
	// width-safe candidates (the driver discards non-improving ones).
	applied := 0
	before := res.Width
	for _, set := range sets {
		cands := RegSeqCandidates(g, g.Reach(), g.Depths(), res, set)
		cands = append(cands, SpillCandidates(g, g.Depths(), res, set)...)
		if len(cands) == 0 {
			t.Error("no register candidates generated")
		}
		for _, c := range cands {
			cl := g.Clone()
			if err := apply(cl, c); err != nil {
				continue
			}
			applied++
			if err := cl.Check(); err != nil {
				t.Fatalf("candidate %s corrupted graph: %v", c, err)
			}
			after := measure.Measure(reuse.Reg(cl, ir.ClassInt)).Width
			if after > before {
				t.Errorf("candidate %s increased register width %d -> %d", c, before, after)
			}
		}
	}
	if applied == 0 {
		t.Error("no register candidate applied cleanly")
	}
}
