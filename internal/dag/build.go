package dag

import (
	"fmt"

	"ursa/internal/ir"
)

// Build constructs the dependence DAG for a straight-line block in
// single-assignment form. Edges added:
//
//   - data dependences def -> use for every register operand;
//   - memory-ordering dependences between conflicting memory operations
//     (store/store, store/load, load/store on possibly-aliasing addresses);
//   - sequence edges keeping a terminating branch last;
//   - root/leaf edges making the region a hammock.
//
// Registers defined but never used in the block are recorded as live-out:
// their lifetimes extend to the leaf, which the register Reuse DAG relies
// on. Extra live-outs (values a later trace block needs) can be passed in.
func Build(b *ir.Block, extraLiveOut ...ir.VReg) (*Graph, error) {
	if err := ir.VerifySSA(b); err != nil {
		return nil, fmt.Errorf("dag: %w", err)
	}
	f := b.Func
	g := New(f)

	defNode := make(map[ir.VReg]int)
	var memNodes []int // prior memory ops, in order
	var branch int = -1

	for _, in := range b.Instrs {
		// The graph owns a private copy: transformations rewrite operands
		// and must not corrupt the source block.
		id := g.AddInstr(in.Clone())

		// Data dependences.
		for _, u := range in.Uses() {
			if dn, ok := defNode[u]; ok {
				g.AddEdge(dn, id, EdgeData)
			}
		}
		if in.Dst != ir.NoReg {
			defNode[in.Dst] = id
		}

		// Memory ordering.
		if in.IsMem() {
			for _, prev := range memNodes {
				pin := g.Nodes[prev].Instr
				if (pin.IsStore() || in.IsStore()) && MayAlias(pin, in) {
					g.AddEdge(prev, id, EdgeMem)
				}
			}
			memNodes = append(memNodes, id)
		}

		if in.IsBranch() {
			branch = id
		}
	}

	// The branch, if any, must schedule after every other instruction.
	if branch >= 0 {
		for _, n := range g.InstrNodes() {
			if n != branch && !g.HasPath(n, branch) {
				g.AddEdge(n, branch, EdgeSeq)
			}
		}
	}

	// Root/leaf hammock edges.
	for _, n := range g.InstrNodes() {
		hasInstrPred, hasInstrSucc := false, false
		for _, p := range g.Preds(n) {
			if p != g.Root {
				hasInstrPred = true
			}
		}
		for _, s := range g.Succs(n) {
			if s != g.Leaf {
				hasInstrSucc = true
			}
		}
		if !hasInstrPred {
			g.AddEdge(g.Root, n, EdgeSeq)
		}
		if !hasInstrSucc {
			g.AddEdge(n, g.Leaf, EdgeSeq)
		}
	}
	if len(g.InstrNodes()) == 0 {
		g.AddEdge(g.Root, g.Leaf, EdgeSeq)
	}

	// Live-out registers: defined but unused here, plus caller extras.
	used := make(map[ir.VReg]bool)
	for _, in := range b.Instrs {
		for _, u := range in.Uses() {
			used[u] = true
		}
	}
	for v := range defNode {
		if !used[v] {
			g.LiveOut[v] = true
		}
	}
	for _, v := range extraLiveOut {
		if _, ok := defNode[v]; ok {
			g.LiveOut[v] = true
		}
	}

	if err := g.Check(); err != nil {
		return nil, err
	}
	return g, nil
}

// HasPath reports whether b is reachable from a (a == b counts as
// reachable) by DFS over the current edges. Transformations use this to
// avoid creating cycles; unlike Reach it reflects mutations immediately.
func (g *Graph) HasPath(a, b int) bool {
	if a == b {
		return true
	}
	seen := make([]bool, len(g.Nodes))
	stack := []int{a}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == b {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, g.succ[n]...)
	}
	return false
}

// MayAlias reports whether two memory instructions can touch the same cell.
// Distinct symbolic bases never alias; equal bases with constant addresses
// alias iff the offsets are equal; an indexed access aliases everything in
// its base (except two accesses through the same index register with
// different constant offsets).
func MayAlias(a, b *ir.Instr) bool {
	if a.Sym != b.Sym {
		return false
	}
	if a.Index == ir.NoReg && b.Index == ir.NoReg {
		return a.Off == b.Off
	}
	if a.Index != ir.NoReg && b.Index != ir.NoReg && a.Index == b.Index {
		return a.Off == b.Off
	}
	return true
}
