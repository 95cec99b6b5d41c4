package dag

import (
	"fmt"
	"strings"
	"testing"

	"ursa/internal/ir"
)

// paperBlock builds the block of Figure 2: nodes A..K.
const paperSrc = `
func paper {
entry:
	v = load V[0]       ; A
	w = mul v, two      ; B
	x = mul v, three    ; C
	y = add v, five     ; D
	t1 = add w, x       ; E
	t2 = mul w, x       ; F
	t3 = mul y, two     ; G
	t4 = div y, three   ; H
	t5 = div t1, t2     ; I
	t6 = add t3, t4     ; J
	z = add t5, t6      ; K
}
`

func paperGraph(t *testing.T) *Graph {
	t.Helper()
	f := ir.MustParse(paperSrc)
	g, err := Build(f.Blocks[0])
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// node returns the id of the node defining the named register.
func node(t *testing.T, g *Graph, name string) int {
	t.Helper()
	id := g.DefNode(g.Func.Reg(name))
	if id < 0 {
		t.Fatalf("no node defines %s", name)
	}
	return id
}

func TestBuildPaperExampleStructure(t *testing.T) {
	g := paperGraph(t)
	if got := len(g.InstrNodes()); got != 11 {
		t.Fatalf("instr nodes = %d, want 11", got)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	a := node(t, g, "v")
	b := node(t, g, "w")
	e := node(t, g, "t1")
	i := node(t, g, "t5")
	k := node(t, g, "z")
	for _, want := range [][2]int{{a, b}, {b, e}, {e, i}, {i, k}} {
		if !g.HasEdge(want[0], want[1]) {
			t.Errorf("missing edge %v", want)
		}
	}
	if g.HasEdge(a, e) {
		t.Error("unexpected transitive data edge A->E")
	}
	// z is live-out (defined, never used).
	if !g.LiveOut[g.Func.Reg("z")] {
		t.Error("z not detected live-out")
	}
	if g.LiveOut[g.Func.Reg("t1")] {
		t.Error("t1 wrongly live-out")
	}
}

func TestCriticalPathPaper(t *testing.T) {
	g := paperGraph(t)
	if length := g.CriticalPath(UnitLatency); length != 5 {
		t.Errorf("critical path = %d, want 5 (A B E I K)", length)
	}
}

func TestTopoOrderValid(t *testing.T) {
	g := paperGraph(t)
	topo := g.TopoOrder()
	if len(topo) != g.NumNodes() {
		t.Fatalf("topo covers %d of %d nodes", len(topo), g.NumNodes())
	}
	pos := make(map[int]int)
	for i, n := range topo {
		pos[n] = i
	}
	for a := range g.Nodes {
		for _, b := range g.Succs(a) {
			if pos[a] >= pos[b] {
				t.Errorf("edge (%d,%d) violates topo order", a, b)
			}
		}
	}
}

func TestDepths(t *testing.T) {
	g := paperGraph(t)
	d := g.Depths()
	a := node(t, g, "v")
	k := node(t, g, "z")
	if d[a] != 1 || d[k] != 5 {
		t.Errorf("depths: A=%d (want 1), K=%d (want 5)", d[a], d[k])
	}
}

func TestReachClosure(t *testing.T) {
	g := paperGraph(t)
	reach := g.Reach()
	a := node(t, g, "v")
	k := node(t, g, "z")
	gg := node(t, g, "t3")
	hh := node(t, g, "t4")
	if !reach.Has(a, k) {
		t.Error("A should reach K")
	}
	if reach.Has(gg, hh) || reach.Has(hh, gg) {
		t.Error("G and H must be independent")
	}
}

func TestMemoryDependences(t *testing.T) {
	f := ir.MustParse(`
entry:
	a = load A[0]
	store A[0], a    ; conflicts with the load (same cell)
	b = load A[1]    ; distinct constant cell: no conflict with store? same base, diff off -> no
	store B[0], a    ; different base: independent of A traffic
	c = load A[i]    ; indexed: conflicts with any A store
`)
	g, err := Build(f.Blocks[0])
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ld0, st0, ld1, stB, ldI := 2, 3, 4, 5, 6 // ids: 0=root,1=leaf, then in order
	if !g.HasEdge(ld0, st0) {
		t.Error("load A[0] -> store A[0] dependence missing")
	}
	if g.HasEdge(st0, ld1) {
		t.Error("store A[0] should not conflict with load A[1]")
	}
	if g.HasEdge(st0, stB) {
		t.Error("different bases must not conflict")
	}
	if !g.HasEdge(st0, ldI) {
		t.Error("store A[0] -> load A[i] dependence missing")
	}
	// ld0->st0 is also a data dependence (the store's operand), so its kind
	// is data; the store->indexed-load pair is pure memory ordering.
	if k, _ := g.EdgeKindOf(ld0, st0); k != EdgeData {
		t.Errorf("load->store edge kind = %v, want data (store reads a)", k)
	}
	if k, _ := g.EdgeKindOf(st0, ldI); k != EdgeMem {
		t.Errorf("store->indexed-load edge kind = %v, want mem", k)
	}
}

func TestSameIndexSameOffsetNoFalseIndependence(t *testing.T) {
	f := ir.MustParse(`
entry:
	store A[i+0], x
	b = load A[i+0]
	c = load A[i+4]
`)
	g, err := Build(f.Blocks[0])
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	st, ldSame, ldOff := 2, 3, 4
	if !g.HasEdge(st, ldSame) {
		t.Error("store A[i] -> load A[i] must conflict")
	}
	if g.HasEdge(st, ldOff) {
		t.Error("store A[i] vs load A[i+4]: same index, different offset cannot alias")
	}
}

func TestBranchStaysLast(t *testing.T) {
	f := ir.MustParse(`
func b {
entry:
	x = const 1
	y = const 2
	z = add x, y
	store O[0], z
	br out
out:
	ret
}
`)
	g, err := Build(f.Blocks[0])
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var br int = -1
	for _, n := range g.InstrNodes() {
		if g.Nodes[n].Instr.IsBranch() {
			br = n
		}
	}
	if br < 0 {
		t.Fatal("no branch node")
	}
	reach := g.Reach()
	for _, n := range g.InstrNodes() {
		if n != br && !reach.Has(n, br) {
			t.Errorf("node %s does not precede the branch", g.Nodes[n].Name)
		}
	}
}

func TestEmptyBlock(t *testing.T) {
	f := ir.NewFunc("empty")
	b := f.NewBlock("entry")
	g, err := Build(b)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !g.HasEdge(g.Root, g.Leaf) {
		t.Error("empty block must connect root to leaf")
	}
	if err := g.Check(); err != nil {
		t.Errorf("Check: %v", err)
	}
}

func TestBuildRejectsNonSSA(t *testing.T) {
	f := ir.MustParse(`
entry:
	a = const 1
	a = const 2
`)
	if _, err := Build(f.Blocks[0]); err == nil {
		t.Fatal("Build accepted non-SSA block")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := paperGraph(t)
	c := g.Clone()
	gg := node(t, g, "t3")
	hh := node(t, g, "t4")
	c.AddEdge(gg, hh, EdgeSeq)
	if g.HasEdge(gg, hh) {
		t.Error("AddEdge on clone mutated original")
	}
	c.Nodes[gg].Instr.Imm = 99
	if g.Nodes[gg].Instr.Imm == 99 {
		t.Error("clone shares instruction storage")
	}
}

func TestAddRemoveEdge(t *testing.T) {
	g := paperGraph(t)
	gg := node(t, g, "t3")
	hh := node(t, g, "t4")
	g.AddEdge(gg, hh, EdgeSeq)
	if !g.HasEdge(gg, hh) {
		t.Fatal("AddEdge failed")
	}
	succs, preds := len(g.Succs(gg)), len(g.Preds(hh))
	g.AddEdge(gg, hh, EdgeData) // duplicate: ignored
	if len(g.Succs(gg)) != succs || len(g.Preds(hh)) != preds {
		t.Error("duplicate AddEdge changed edge count")
	}
	if k, _ := g.EdgeKindOf(gg, hh); k != EdgeSeq {
		t.Error("duplicate AddEdge overwrote kind")
	}
	g.RemoveEdge(gg, hh)
	if g.HasEdge(gg, hh) {
		t.Error("RemoveEdge failed")
	}
	if err := g.Check(); err != nil {
		t.Errorf("Check after removal: %v", err)
	}
}

func TestDominators(t *testing.T) {
	g := paperGraph(t)
	dom := g.Dominators()
	pdom := g.PostDominators()
	a := node(t, g, "v")
	d := node(t, g, "y")
	j := node(t, g, "t6")
	k := node(t, g, "z")
	if dom[a] != g.Root {
		t.Errorf("idom(A) = %d, want root", dom[a])
	}
	if dom[d] != a {
		t.Errorf("idom(D) = %d, want A", dom[d])
	}
	if dom[j] != d {
		t.Errorf("idom(J) = %d, want D (both G and H come from D)", dom[j])
	}
	if pdom[d] != j {
		t.Errorf("ipdom(D) = %d, want J", pdom[d])
	}
	if pdom[k] != g.Leaf {
		t.Errorf("ipdom(K) = %d, want leaf", pdom[k])
	}
}

func TestHammocks(t *testing.T) {
	g := paperGraph(t)
	hs := g.Hammocks()
	if len(hs) == 0 {
		t.Fatal("no hammocks found")
	}
	// The whole graph must be present with level 0.
	whole := hs[len(hs)-1]
	if whole.Entry != g.Root || whole.Exit != g.Leaf || whole.Level != 0 {
		t.Errorf("largest hammock = (%d,%d) level %d, want (root,leaf) level 0",
			whole.Entry, whole.Exit, whole.Level)
	}
	// D..J is a hammock: D's subtree {D,G,H,J} exits only through J.
	d := node(t, g, "y")
	j := node(t, g, "t6")
	found := false
	for _, h := range hs {
		if h.Entry == d && h.Exit == j {
			found = true
			if h.Size() != 4 {
				t.Errorf("hammock D..J size = %d, want 4", h.Size())
			}
			if h.Level == 0 {
				t.Error("nested hammock D..J must have level > 0")
			}
		}
	}
	if !found {
		t.Error("hammock D..J not found")
	}
	// Levels must be consistent with NestLevels.
	levels := g.NestLevels(hs)
	gg := node(t, g, "t3")
	if levels[gg] == 0 {
		t.Errorf("G should sit in a nested hammock, level %d", levels[gg])
	}
}

// TestDotOutput: the rendering names the pseudo nodes, is identical from
// call to call, and lists edges in ascending source id.
func TestDotOutput(t *testing.T) {
	g := paperGraph(t)
	dot := g.Dot("paper")
	for _, want := range []string{"digraph", "root", "leaf", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot output missing %q", want)
		}
	}
	if again := g.Dot("paper"); again != dot {
		t.Errorf("Dot output differs between calls:\n%s\n---\n%s", dot, again)
	}
	last := -1
	for _, line := range strings.Split(dot, "\n") {
		var a, b int
		if _, err := fmt.Sscanf(line, "  n%d -> n%d", &a, &b); err != nil {
			continue
		}
		if a < last {
			t.Fatalf("edge line %q after an edge from n%d", line, last)
		}
		last = a
	}
	if last < 0 {
		t.Fatal("no edge lines parsed")
	}
}
