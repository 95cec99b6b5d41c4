package dag_test

import (
	"slices"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/transform"
)

func diffGraph(t *testing.T) (*ir.Func, *dag.Graph) {
	t.Helper()
	f := ir.MustParse(`
func fp {
entry:
	a = load A[0]
	b = muli a, 2
	c = addi a, 3
	d = add b, c
	store OUT[0], d
}
`)
	g, err := dag.Build(f.Blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	return f, g
}

// TestDiffSensitivity: a clone has no difference, while an added edge, an
// edge of another kind, a live-out change, an instruction change and a
// register class change each have one.
func TestDiffSensitivity(t *testing.T) {
	f, g := diffGraph(t)
	if err := g.Diff(g.Clone()); err != nil {
		t.Fatalf("clone differs: %v", err)
	}

	withEdge := g.Clone()
	// b and c are independent siblings; sequencing them is a real change.
	nb, nc := withEdge.DefNode(f.Reg("b")), withEdge.DefNode(f.Reg("c"))
	withEdge.AddEdge(nb, nc, dag.EdgeSeq)
	if g.Diff(withEdge) == nil || withEdge.Diff(g) == nil {
		t.Error("an added edge is no difference")
	}

	// The same edge set with one edge of another kind, as a Revert that
	// restored the wrong kind would leave it.
	withKind := g.Clone()
	a, b := withKind.DefNode(f.Reg("a")), withKind.DefNode(f.Reg("b"))
	withKind.RemoveEdge(a, b)
	withKind.AddEdge(a, b, dag.EdgeSeq)
	if g.Diff(withKind) == nil {
		t.Error("an edge of another kind is no difference")
	}

	withLive := g.Clone()
	withLive.LiveOut[f.Reg("d")] = true
	if g.Diff(withLive) == nil {
		t.Error("a live-out change is no difference")
	}

	withImm := g.Clone()
	for _, n := range withImm.Nodes {
		if n.Instr != nil && n.Instr.Op == ir.MulI {
			n.Instr.Imm = 5
		}
	}
	if g.Diff(withImm) == nil {
		t.Error("an immediate change is no difference")
	}

	withClass := g.Clone()
	withClass.Func = ir.NewFunc("fp")
	for v := ir.VReg(1); int(v) < f.NumRegs(); v++ {
		class := f.ClassOf(v)
		if f.NameOf(v) == "b" {
			class = ir.ClassFP
		}
		withClass.Func.NewReg(f.NameOf(v), class)
	}
	if g.Diff(withClass) == nil {
		t.Error("a register class change is no difference")
	}
}

// TestDiffIgnoresEdgeOrder: the comparison reads the edge set, not the
// order edges entered the adjacency lists — neither for a graph built with
// its edges inserted in reverse, nor for a clone whose lists an Apply and
// Revert reordered.
func TestDiffIgnoresEdgeOrder(t *testing.T) {
	f, g := diffGraph(t)

	rev := dag.New(f)
	for _, n := range g.InstrNodes() {
		rev.AddInstr(g.Nodes[n].Instr.Clone())
	}
	for a := g.NumNodes() - 1; a >= 0; a-- {
		ss := g.Succs(a)
		for i := len(ss) - 1; i >= 0; i-- {
			k, _ := g.EdgeKindOf(a, ss[i])
			rev.AddEdge(a, ss[i], k)
		}
	}
	for v, ok := range g.LiveOut {
		rev.LiveOut[v] = ok
	}
	reordered := false
	for n := range g.Nodes {
		reordered = reordered || !slices.Equal(rev.Succs(n), g.Succs(n))
	}
	if !reordered {
		t.Fatal("reverse insertion left every successor list in order")
	}
	if err := g.Diff(rev); err != nil {
		t.Errorf("reverse edge insertion: %v", err)
	}

	// Spilling a to a reload after c rewires b; Revert re-adds (a, b)
	// after (a, c), reordering a's successors.
	c := g.Clone()
	c.Func = f.Clone()
	a := c.DefNode(f.Reg("a"))
	before := slices.Clone(c.Succs(a))
	cand := &transform.Candidate{Kind: transform.Spill, Spill: &transform.SpillSpec{
		Reg:     f.Reg("a"),
		Def:     a,
		Barrier: []int{c.DefNode(f.Reg("c"))},
	}}
	var log transform.UndoLog
	if err := cand.Apply(c, c.Reach(), &log); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	log.Revert()
	if slices.Equal(c.Succs(a), before) {
		t.Fatalf("apply and revert left a's successors in order %v", before)
	}
	if err := g.Diff(c); err != nil {
		t.Errorf("apply and revert: %v", err)
	}
}
