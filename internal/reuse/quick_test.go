package reuse_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/measure"
	"ursa/internal/order"
	"ursa/internal/reuse"
)

// blockGen produces random closed straight-line blocks for quick checks.
type blockGen struct {
	g *dag.Graph
}

// Generate implements quick.Generator.
func (blockGen) Generate(rand *rand.Rand, size int) reflect.Value {
	f := ir.NewFunc("q")
	b := f.NewBlock("entry")
	var vals []ir.VReg
	n := 3 + rand.Intn(10)
	for i := 0; i < n; i++ {
		dst := f.NewReg("", ir.ClassInt)
		switch {
		case len(vals) == 0 || rand.Intn(4) == 0:
			b.Append(&ir.Instr{Op: ir.Load, Dst: dst, Sym: "A", Off: int64(i)})
		case rand.Intn(3) == 0:
			a := vals[rand.Intn(len(vals))]
			b.Append(&ir.Instr{Op: ir.AddI, Dst: dst, Args: []ir.VReg{a}, Imm: 1})
		default:
			a := vals[rand.Intn(len(vals))]
			c := vals[rand.Intn(len(vals))]
			b.Append(&ir.Instr{Op: ir.Add, Dst: dst, Args: []ir.VReg{a, c}})
		}
		vals = append(vals, dst)
	}
	g, err := dag.Build(b)
	if err != nil {
		panic(err)
	}
	return reflect.ValueOf(blockGen{g})
}

// TestQuickWidthEqualsDilworth: the matching width equals the brute-force
// maximum antichain for both resources on arbitrary random blocks.
func TestQuickWidthEqualsDilworth(t *testing.T) {
	f := func(bg blockGen) bool {
		for _, r := range []*reuse.Reuse{reuse.FU(bg.g, reuse.AllFUs), reuse.Reg(bg.g, ir.ClassInt)} {
			res := measure.Measure(r)
			if res.Width != len(order.MaxAntichainBrute(r.Rel, nil)) {
				return false
			}
			if order.ValidateDecomposition(r.Rel, res.Chains) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickRegWidthBounds: register width is at least 1 and at most the
// item count, and the FU width is bounded by the instruction count.
func TestQuickRegWidthBounds(t *testing.T) {
	f := func(bg blockGen) bool {
		r := reuse.Reg(bg.g, ir.ClassInt)
		w := measure.Measure(r).Width
		if w < 1 || w > r.NumItems() {
			return false
		}
		fu := reuse.FU(bg.g, reuse.AllFUs)
		wf := measure.Measure(fu).Width
		return wf >= 1 && wf <= len(bg.g.InstrNodes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickSequencingMonotone: adding a random sequence edge never
// increases the FU width (§5) — the edge only adds reachability pairs to
// CanReuse_FU, so antichains can only shrink. The register width carries
// no such theorem: it is measured over the heuristic Kill() selection
// (greedy minimum cover of an NP-complete problem, Thm. 2), and a new
// edge can shift the selected kills to a wider relation. For registers we
// check the sound bounds only.
func TestQuickSequencingMonotone(t *testing.T) {
	f := func(bg blockGen, a, b uint8) bool {
		g := bg.g
		nodes := g.InstrNodes()
		x := nodes[int(a)%len(nodes)]
		y := nodes[int(b)%len(nodes)]
		if x == y || g.HasEdge(x, y) || g.Reach().Has(y, x) {
			return true // not a legal new edge; trivially fine
		}
		fu0 := measure.Measure(reuse.FU(g, reuse.AllFUs)).Width
		cl := g.Clone()
		cl.AddEdge(x, y, dag.EdgeSeq)
		fu1 := measure.Measure(reuse.FU(cl, reuse.AllFUs)).Width
		if fu1 > fu0 {
			return false
		}
		r := reuse.Reg(cl, ir.ClassInt)
		rg1 := measure.Measure(r).Width
		return rg1 >= 1 && rg1 <= r.NumItems()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
