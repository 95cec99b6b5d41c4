package dag

import "ursa/internal/ir"

// BuildScheduling constructs a dependence DAG for a block that may reuse
// registers (post-register-allocation code). In addition to true (RAW) data
// dependences and memory ordering, it adds the anti (WAR) and output (WAW)
// dependences that register reuse forces — precisely the §1 effect of
// running register allocation before scheduling: the extra edges remove
// parallelism the SSA dependence DAG would have exposed.
//
// LiveOut is taken as every register whose last write is not followed by a
// later write (conservative: final values remain observable).
func BuildScheduling(b *ir.Block) (*Graph, error) {
	f := b.Func
	g := New(f)

	lastDef := make(map[ir.VReg]int)    // register -> most recent writer node
	lastUses := make(map[ir.VReg][]int) // register -> readers since last write
	var memNodes []int
	for _, in := range b.Instrs {
		id := g.AddInstr(in.Clone())

		// RAW.
		for _, u := range in.Uses() {
			if dn, ok := lastDef[u]; ok {
				g.AddEdge(dn, id, EdgeData)
			}
			lastUses[u] = append(lastUses[u], id)
		}
		if in.Dst != ir.NoReg {
			// WAR: write after all reads of the previous value.
			for _, r := range lastUses[in.Dst] {
				if r != id {
					g.AddEdge(r, id, EdgeSeq)
				}
			}
			// WAW: write after the previous write.
			if dn, ok := lastDef[in.Dst]; ok && dn != id {
				g.AddEdge(dn, id, EdgeSeq)
			}
			lastDef[in.Dst] = id
			lastUses[in.Dst] = nil
		}
		memNodes = g.orderMem(memNodes, id)
	}

	// Registers holding a final value are live-out.
	for v := range lastDef {
		g.LiveOut[v] = true
	}
	return g.seal()
}
