package dag_test

import (
	"encoding/hex"
	"slices"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/transform"
)

func fpGraph(t *testing.T) (*ir.Func, *dag.Graph) {
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

// TestFingerprintStability: repeated calls and clones agree; the hash does
// not depend on map iteration order.
func TestFingerprintStability(t *testing.T) {
	_, g := fpGraph(t)
	first := g.Fingerprint()
	for i := 0; i < 10; i++ {
		if g.Fingerprint() != first {
			t.Fatal("fingerprint changed between calls on an unchanged graph")
		}
	}
	if g.Clone().Fingerprint() != first {
		t.Fatal("clone fingerprint differs")
	}
}

// TestFingerprintSensitivity: edges, live-out changes, and instruction
// changes all change the hash.
func TestFingerprintSensitivity(t *testing.T) {
	_, g := fpGraph(t)
	base := g.Fingerprint()

	withEdge := g.Clone()
	// b and c are independent siblings; sequencing them is a real change.
	nb, nc := g.Func.Reg("b"), g.Func.Reg("c")
	withEdge.AddEdge(withEdge.DefNode(nb), withEdge.DefNode(nc), dag.EdgeSeq)
	if withEdge.Fingerprint() == base {
		t.Fatal("added edge did not change the fingerprint")
	}

	withLive := g.Clone()
	withLive.LiveOut[g.Func.Reg("d")] = true
	if withLive.Fingerprint() == base {
		t.Fatal("live-out change did not change the fingerprint")
	}

	withImm := g.Clone()
	for _, n := range withImm.Nodes {
		if n.Instr != nil && n.Instr.Op == ir.MulI {
			n.Instr.Imm = 5
		}
	}
	if withImm.Fingerprint() == base {
		t.Fatal("immediate change did not change the fingerprint")
	}
}

// TestFingerprintPinned: the hash of fpGraph, so a change to the bytes
// hashed shows up here.
func TestFingerprintPinned(t *testing.T) {
	_, g := fpGraph(t)
	fp := g.Fingerprint()
	const want = "37a5e8654dadb286015eda828ae0747d69c4c906ca63d5145f7d3d29ecf06d51"
	if got := hex.EncodeToString(fp[:]); got != want {
		t.Fatalf("fingerprint %s, want %s", got, want)
	}
}

// TestFingerprintIgnoresEdgeOrder: the hash depends on the edge set, not on
// the order edges entered the adjacency lists — neither for a graph built
// with its edges inserted in reverse, nor for a clone whose lists an
// Apply and Revert reordered.
func TestFingerprintIgnoresEdgeOrder(t *testing.T) {
	f, g := fpGraph(t)
	base := g.Fingerprint()

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
	if rev.Fingerprint() != base {
		t.Error("reverse edge insertion changed the fingerprint")
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
	if c.Fingerprint() != base {
		t.Error("apply and revert changed the fingerprint")
	}
}
