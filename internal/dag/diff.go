package dag

import (
	"fmt"
	"math"
	"slices"

	"ursa/internal/ir"
)

// Diff reports the first structural difference between g and o, or nil
// when they are equal: the same nodes (pseudo or instruction, with equal
// opcodes, operands and their register classes, immediates, memory
// operands and clusters), the same edge set with the same kinds, and the
// same live-out registers. Adjacency order is ignored — every analysis
// reads the edge set, and a Revert re-adds removed edges at the tail.
// Each graph's registers are read through its own Func.
func (g *Graph) Diff(o *Graph) error {
	if len(g.Nodes) != len(o.Nodes) || g.Root != o.Root || g.Leaf != o.Leaf {
		return fmt.Errorf("%d nodes (root %d, leaf %d) vs %d (root %d, leaf %d)",
			len(g.Nodes), g.Root, g.Leaf, len(o.Nodes), o.Root, o.Leaf)
	}
	for n := range g.Nodes {
		if !sameInstr(g.Func, g.Nodes[n].Instr, o.Func, o.Nodes[n].Instr) {
			return fmt.Errorf("node %d: instruction %s vs %s", n, instrText(g.Func, g.Nodes[n].Instr), instrText(o.Func, o.Nodes[n].Instr))
		}
		if len(g.succ[n]) != len(o.succ[n]) {
			return fmt.Errorf("node %d: successors %v vs %v", n, g.succ[n], o.succ[n])
		}
		for i, b := range g.succ[n] {
			k, ok := o.EdgeKindOf(n, b)
			if !ok {
				return fmt.Errorf("edge %d->%d is missing from the second graph", n, b)
			}
			if k != g.kind[n][i] {
				return fmt.Errorf("edge %d->%d: %s vs %s", n, b, g.kind[n][i], k)
			}
		}
	}
	live := func(h *Graph) []ir.VReg {
		var vs []ir.VReg
		for v, ok := range h.LiveOut {
			if ok {
				vs = append(vs, v)
			}
		}
		slices.Sort(vs)
		return vs
	}
	gl, ol := live(g), live(o)
	if !slices.Equal(gl, ol) {
		return fmt.Errorf("live-out %v vs %v", gl, ol)
	}
	for _, v := range gl {
		if g.Func.ClassOf(v) != o.Func.ClassOf(v) {
			return fmt.Errorf("live-out %d: class %v vs %v", v, g.Func.ClassOf(v), o.Func.ClassOf(v))
		}
	}
	return nil
}

// sameInstr reports whether a (over fa) and b (over fb) are the same
// instruction, registers compared by number and class.
func sameInstr(fa *ir.Func, a *ir.Instr, fb *ir.Func, b *ir.Instr) bool {
	if a == nil || b == nil {
		return a == b
	}
	reg := func(x, y ir.VReg) bool { return x == y && fa.ClassOf(x) == fb.ClassOf(y) }
	if a.Op != b.Op || !reg(a.Dst, b.Dst) || !reg(a.Index, b.Index) || len(a.Args) != len(b.Args) ||
		a.Imm != b.Imm || math.Float64bits(a.FImm) != math.Float64bits(b.FImm) ||
		a.Sym != b.Sym || a.Off != b.Off || a.Cluster != b.Cluster {
		return false
	}
	for i := range a.Args {
		if !reg(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

func instrText(f *ir.Func, in *ir.Instr) string {
	if in == nil {
		return "(pseudo)"
	}
	return f.InstrString(in)
}
