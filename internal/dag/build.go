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
		memNodes = g.orderMem(memNodes, id)
	}

	// Live-out registers: defined but unused here, plus caller extras.
	g.LiveOut = ir.LiveOuts(b)
	for _, v := range extraLiveOut {
		if _, ok := defNode[v]; ok {
			g.LiveOut[v] = true
		}
	}
	return g.seal()
}

// orderMem adds the memory-ordering edges into node id from every earlier
// memory operation in mem it conflicts with (store/store, store/load,
// load/store on possibly-aliasing addresses), and returns mem extended by
// id when id is a memory operation.
func (g *Graph) orderMem(mem []int, id int) []int {
	in := g.Nodes[id].Instr
	if !in.IsMem() {
		return mem
	}
	for _, prev := range mem {
		pin := g.Nodes[prev].Instr
		if (pin.IsStore() || in.IsStore()) && MayAlias(pin, in) {
			g.AddEdge(prev, id, EdgeMem)
		}
	}
	return append(mem, id)
}

// seal finishes a region graph whose instruction and dependence edges are
// in place: it sequences the last branch, if any, after every other
// instruction, adds the root/leaf edges that make the region a hammock,
// and validates the result.
func (g *Graph) seal() (*Graph, error) {
	instrs := g.InstrNodes()
	branch := -1
	for _, n := range instrs {
		if g.Nodes[n].Instr.IsBranch() {
			branch = n
		}
	}
	if branch >= 0 {
		reach := g.Reach()
		for _, n := range instrs {
			if n != branch && !reach.Has(n, branch) {
				g.AddEdge(n, branch, EdgeSeq)
				reach.AddClosureEdge(n, branch)
			}
		}
	}

	for _, n := range instrs {
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
	if len(instrs) == 0 {
		g.AddEdge(g.Root, g.Leaf, EdgeSeq)
	}

	if err := g.Check(); err != nil {
		return nil, err
	}
	return g, nil
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
