package transform

import (
	"testing"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/measure"
	"ursa/internal/reuse"
)

const paperSrc = `
func paper {
entry:
	v = load V[0]       ; A
	w = muli v, 2       ; B
	x = muli v, 3       ; C
	y = addi v, 5       ; D
	t1 = add w, x       ; E
	t2 = mul w, x       ; F
	t3 = muli y, 2      ; G
	t4 = divi y, 3      ; H
	t5 = div t1, t2     ; I
	t6 = add t3, t4     ; J
	z = add t5, t6      ; K
}
`

func paperGraph(t testing.TB) *dag.Graph {
	t.Helper()
	f := ir.MustParse(paperSrc)
	g, err := dag.Build(f.Blocks[0])
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func node(t testing.TB, g *dag.Graph, name string) int {
	t.Helper()
	id := g.DefNode(g.Func.Reg(name))
	if id < 0 {
		t.Fatalf("no node defines %s", name)
	}
	return id
}

// apply applies c to g with g's own closure and a throwaway log.
func apply(g *dag.Graph, c *Candidate) error { return c.Apply(g, g.Reach(), new(UndoLog)) }

func fuWidth(g *dag.Graph) int  { return measure.Measure(reuse.FU(g, reuse.AllFUs)).Width }
func regWidth(g *dag.Graph) int { return measure.Measure(reuse.Reg(g, ir.ClassInt)).Width }

// TestFig3aFUSequencing: adding the sequence edge G -> H reduces the
// functional-unit requirement from 4 to 3; register requirement unchanged.
func TestFig3aFUSequencing(t *testing.T) {
	g := paperGraph(t)
	if fuWidth(g) != 4 || regWidth(g) != 5 {
		t.Fatalf("baseline widths FU=%d Reg=%d, want 4/5", fuWidth(g), regWidth(g))
	}
	c := &Candidate{Kind: FUSequence, Edges: [][2]int{{node(t, g, "t3"), node(t, g, "t4")}}}
	if err := apply(g, c); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if got := fuWidth(g); got != 3 {
		t.Errorf("FU width after G->H = %d, want 3 (paper Fig 3a)", got)
	}
	if got := regWidth(g); got != 5 {
		t.Errorf("register width after G->H = %d, want 5 (unchanged)", got)
	}
}

// TestFig3bRegSequencing: edges I -> G and I -> H (S={I}, T={G,H}) reduce
// the register requirement from 5 to 4. As §5 predicts, the register
// sequencing also reduces the FU requirement (here to 3).
func TestFig3bRegSequencing(t *testing.T) {
	g := paperGraph(t)
	i := node(t, g, "t5")
	c := &Candidate{Kind: RegSequence, Edges: [][2]int{
		{i, node(t, g, "t3")},
		{i, node(t, g, "t4")},
	}}
	if err := apply(g, c); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if got := regWidth(g); got != 4 {
		t.Errorf("register width = %d, want 4 (paper Fig 3b)", got)
	}
	if got := fuWidth(g); got != 3 {
		t.Errorf("FU width = %d, want 3 (register sequencing narrows the DAG)", got)
	}
}

// TestFig3cSpill: spilling D's value (y) with the reload barred behind
// SD1 = {B,C,E,F,I} reduces the register requirement from 5 to 3, the
// paper's Figure 3(c) result.
func TestFig3cSpill(t *testing.T) {
	g := paperGraph(t)
	c := &Candidate{
		Kind: Spill,
		Spill: &SpillSpec{
			Reg:      g.Func.Reg("y"),
			Def:      node(t, g, "y"),
			Barrier:  []int{node(t, g, "t1"), node(t, g, "t2"), node(t, g, "t5")},
			PreRoots: []int{node(t, g, "w"), node(t, g, "x")},
		},
	}
	if err := apply(g, c); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if got := regWidth(g); got != 3 {
		t.Errorf("register width after spilling y = %d, want 3 (paper Fig 3c)", got)
	}
	// The uses of y (G and H) must now read the reloaded copy.
	yr := g.Func.Reg("y.r")
	if yr == ir.NoReg {
		t.Fatal("reloaded register y.r not created")
	}
	if got := len(g.UseNodes(yr)); got != 2 {
		t.Errorf("y.r has %d uses, want 2 (G and H)", got)
	}
	// y's only remaining use is the spill store.
	uses := g.UseNodes(g.Func.Reg("y"))
	if len(uses) != 1 || g.Nodes[uses[0]].Instr.Op != ir.SpillStore {
		t.Errorf("y's uses after spill = %v, want just the spill store", uses)
	}
}

// TestFig3cPaperLiteralBarrier applies the paper's literal S/T choice
// (reload after E and F only). Measured worst case is 4 registers: the
// schedule ...load, G, H before I keeps t1, t2 live alongside y.r and t4.
// EXPERIMENTS.md discusses the discrepancy with the paper's claimed 3.
func TestFig3cPaperLiteralBarrier(t *testing.T) {
	g := paperGraph(t)
	c := &Candidate{
		Kind: Spill,
		Spill: &SpillSpec{
			Reg:      g.Func.Reg("y"),
			Def:      node(t, g, "y"),
			Barrier:  []int{node(t, g, "t1"), node(t, g, "t2")},
			PreRoots: []int{node(t, g, "w"), node(t, g, "x")},
		},
	}
	if err := apply(g, c); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got := regWidth(g); got != 4 {
		t.Errorf("register width = %d, want 4", got)
	}
}

func TestApplyRejectsCycle(t *testing.T) {
	g := paperGraph(t)
	c := &Candidate{Kind: FUSequence, Edges: [][2]int{
		{node(t, g, "z"), node(t, g, "v")}, // K -> A closes a cycle
	}}
	if err := apply(g, c); err == nil {
		t.Fatal("cycle-creating edge accepted")
	}
	if err := g.Check(); err != nil {
		t.Fatalf("graph corrupted by rejected candidate: %v", err)
	}
}

func TestSpillRejectsLiveOut(t *testing.T) {
	g := paperGraph(t)
	c := &Candidate{Kind: Spill, Spill: &SpillSpec{
		Reg: g.Func.Reg("z"),
		Def: node(t, g, "z"),
	}}
	if err := apply(g, c); err == nil {
		t.Fatal("spilling a live-out value accepted")
	}
}

func TestSpillPreservesSemantics(t *testing.T) {
	// Execute the transformed DAG in dependence order and compare with the
	// original block's interpretation.
	f := ir.MustParse(paperSrc)
	st0 := ir.NewState()
	st0.StoreInt("V", 0, 7)
	ref := st0.Clone()
	if _, err := ref.Run(f, 1000); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	g, err := dag.Build(f.Blocks[0])
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	c := &Candidate{
		Kind: Spill,
		Spill: &SpillSpec{
			Reg:      g.Func.Reg("y"),
			Def:      node(t, g, "y"),
			Barrier:  []int{node(t, g, "t1"), node(t, g, "t2"), node(t, g, "t5")},
			PreRoots: []int{node(t, g, "w"), node(t, g, "x")},
		},
	}
	if err := apply(g, c); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	got := st0.Clone()
	for _, n := range g.TopoOrder() {
		if g.Nodes[n].Instr != nil {
			got.Exec(g.Func, g.Nodes[n].Instr)
		}
	}
	zf := g.Func.Reg("z")
	if got.Regs[zf] != ref.Regs[zf] {
		t.Errorf("z = %d after spill, want %d", got.Regs[zf].Int(), ref.Regs[zf].Int())
	}
}

func TestFUCandidatesReducePaperExample(t *testing.T) {
	g := paperGraph(t)
	res := measure.Measure(reuse.FU(g, reuse.AllFUs))
	sets := measure.FindExcess(res, g.Hammocks(), 3)
	if len(sets) == 0 {
		t.Fatal("no excessive set")
	}
	// The whole-graph excessive set (largest hammock) drives the transform.
	set := sets[len(sets)-1]
	cands := FUCandidates(g, g.Reach(), g.Depths(), res, set)
	if len(cands) == 0 {
		t.Fatal("no FU candidates generated")
	}
	reduced := false
	for _, c := range cands {
		cl := g.Clone()
		if err := apply(cl, c); err != nil {
			continue
		}
		if fuWidth(cl) < 4 {
			reduced = true
		}
	}
	if !reduced {
		t.Error("no generated FU candidate reduces the requirement")
	}
}

func TestRegSeqCandidatesReducePaperExample(t *testing.T) {
	g := paperGraph(t)
	res := measure.Measure(reuse.Reg(g, ir.ClassInt))
	sets := measure.FindExcess(res, g.Hammocks(), 4)
	if len(sets) == 0 {
		t.Fatal("no excessive set")
	}
	set := sets[len(sets)-1]
	cands := RegSeqCandidates(g, g.Reach(), g.Depths(), res, set)
	cands = append(cands, SpillCandidates(g, g.Depths(), res, set)...)
	if len(cands) == 0 {
		t.Fatal("no register candidates generated")
	}
	best := 5
	for _, c := range cands {
		cl := g.Clone()
		if err := apply(cl, c); err != nil {
			continue
		}
		if w := regWidth(cl); w < best {
			best = w
		}
	}
	if best > 4 {
		t.Errorf("best candidate reaches width %d, want <= 4", best)
	}
}

func TestSequencingNeverIncreasesWidth(t *testing.T) {
	// §5: "Neither transformation can increase the requirements of either
	// resource." Check over all feasible single edges on the paper DAG.
	g := paperGraph(t)
	fu0, reg0 := fuWidth(g), regWidth(g)
	nodes, reach := g.InstrNodes(), g.Reach()
	for _, a := range nodes {
		for _, b := range nodes {
			if a == b || g.HasEdge(a, b) || reach.Has(b, a) {
				continue
			}
			cl := g.Clone()
			cl.AddEdge(a, b, dag.EdgeSeq)
			if w := fuWidth(cl); w > fu0 {
				t.Errorf("edge %d->%d increased FU width %d -> %d", a, b, fu0, w)
			}
			if w := regWidth(cl); w > reg0 {
				t.Errorf("edge %d->%d increased register width %d -> %d", a, b, reg0, w)
			}
		}
	}
}

// TestApplyLogRoundTrip: Apply adds exactly the missing edges to the graph
// and to the closure it was handed, and Revert restores the graph — the
// contract that lets the evaluator reuse one scratch
// graph across many candidates.
func TestApplyLogRoundTrip(t *testing.T) {
	g := paperGraph(t)
	b, c := node(t, g, "w"), node(t, g, "x")
	pre := [2]int{node(t, g, "v"), b} // already present: B depends on A's value
	if !g.HasEdge(pre[0], pre[1]) {
		t.Fatalf("expected existing edge %v", pre)
	}
	cand := &Candidate{Kind: FUSequence, Edges: [][2]int{pre, {b, c}}, Note: "test"}

	before, edges := g.Clone(), g.Relation().Pairs()
	reach := g.Reach()
	var log UndoLog
	if err := cand.Apply(g, reach, &log); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !g.HasEdge(b, c) || g.Relation().Pairs() != edges+1 {
		t.Fatalf("%d edges after Apply, want %d: just %v added", g.Relation().Pairs(), edges+1, [2]int{b, c})
	}
	if !sameRelation(reach, g.Reach()) {
		t.Fatal("the closure Apply kept differs from the graph's")
	}
	log.Revert()
	if err := g.Diff(before); err != nil {
		t.Fatalf("Revert did not restore the graph (an existing edge must be skipped, not logged): %v", err)
	}
}

// TestRefusedApplyLeavesGraphUntouched: a candidate Apply refuses leaves
// the graph as it found it — no edge of a multi-edge candidate whose later
// edge closes a cycle, and no store/load pair or register of a spill none
// of whose uses can wait for the reload.
func TestRefusedApplyLeavesGraphUntouched(t *testing.T) {
	g := paperGraph(t)
	w, x := node(t, g, "w"), node(t, g, "x")
	cands := []*Candidate{
		{Kind: FUSequence, Edges: [][2]int{{w, x}, {x, w}}, Note: "later edge closes a cycle"},
		{Kind: RegSequence, Edges: [][2]int{{w, w}}, Note: "self-edge"},
		{Kind: Spill, Note: "every use reaches the barrier", Spill: &SpillSpec{
			Reg:      g.Func.Reg("y"),
			Def:      node(t, g, "y"),
			Barrier:  []int{node(t, g, "t6")},
			PreRoots: []int{w, x},
		}},
	}
	for _, c := range cands {
		before, regs := g.Clone(), g.Func.NumRegs()
		if err := apply(g, c); err == nil {
			t.Fatalf("%s: applied, want a refusal", c)
		}
		if err := g.Diff(before); err != nil || g.Func.NumRegs() != regs {
			t.Errorf("%s: refusal changed the graph: %d regs (was %d), %v",
				c, g.Func.NumRegs(), regs, err)
		}
	}
}

// TestApplyLogSpillRoundTrip: a spill applied through a log matches one
// applied to a clone, and Revert removes its nodes, register and operand
// rewrites again.
func TestApplyLogSpillRoundTrip(t *testing.T) {
	g := paperGraph(t)
	cand := &Candidate{Kind: Spill, Spill: &SpillSpec{
		Reg:      g.Func.Reg("y"),
		Def:      node(t, g, "y"),
		Barrier:  []int{node(t, g, "t1"), node(t, g, "t2"), node(t, g, "t5")},
		PreRoots: []int{node(t, g, "w"), node(t, g, "x")},
	}}
	ref := g.Clone()
	ref.Func = g.Func.Clone()
	if err := apply(ref, cand); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	before, regs := g.Clone(), g.Func.NumRegs()
	var log UndoLog
	if err := cand.Apply(g, g.Reach(), &log); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := g.Diff(ref); err != nil {
		t.Errorf("Apply on the graph and on a clone produced different graphs: %v", err)
	}
	log.Revert()
	if err := g.Diff(before); err != nil || g.Func.NumRegs() != regs {
		t.Errorf("Revert did not restore the graph: %d regs (was %d), %v", g.Func.NumRegs(), regs, err)
	}
}

// TestCopySpillRejectsNonCopy: a copy-spill aimed at a node that is not an
// inter-cluster copy, or at no node at all, fails and leaves the graph
// untouched.
func TestCopySpillRejectsNonCopy(t *testing.T) {
	g := paperGraph(t)
	for _, n := range []int{node(t, g, "w"), g.Root, -1, g.NumNodes()} {
		cand := &Candidate{Kind: CopySpill, CopySpill: &CopySpillSpec{Copy: n}}
		before := g.Clone()
		if err := apply(g, cand); err == nil {
			t.Errorf("Apply accepted a copy-spill of node %d", n)
		}
		if err := g.Diff(before); err != nil {
			t.Fatalf("refused copy-spill of node %d changed the graph: %v", n, err)
		}
	}
}

// TestCandidateKey: AppendKey identifies a candidate by effect — edge order
// and Note are ignored; kind, edge set, and spill payload are not.
func TestCandidateKey(t *testing.T) {
	key := func(c *Candidate) string { return string(c.AppendKey(nil)) }
	a := &Candidate{Kind: FUSequence, Edges: [][2]int{{1, 2}, {3, 4}}, Note: "one"}
	b := &Candidate{Kind: FUSequence, Edges: [][2]int{{3, 4}, {1, 2}}, Note: "two"}
	if key(a) != key(b) {
		t.Errorf("edge order changed the key: %q vs %q", key(a), key(b))
	}
	c := &Candidate{Kind: RegSequence, Edges: [][2]int{{1, 2}, {3, 4}}}
	if key(a) == key(c) {
		t.Error("kind not part of the key")
	}
	d := &Candidate{Kind: FUSequence, Edges: [][2]int{{1, 2}}}
	if key(a) == key(d) {
		t.Error("edge set not part of the key")
	}
	s1 := &Candidate{Kind: Spill, Spill: &SpillSpec{Reg: 1, Def: 2, Barrier: []int{5, 3}, PreRoots: []int{7}}}
	s2 := &Candidate{Kind: Spill, Spill: &SpillSpec{Reg: 1, Def: 2, Barrier: []int{3, 5}, PreRoots: []int{7}}}
	if key(s1) != key(s2) {
		t.Errorf("barrier order changed the key: %q vs %q", key(s1), key(s2))
	}
	s3 := &Candidate{Kind: Spill, Spill: &SpillSpec{Reg: 1, Def: 3, Barrier: []int{3, 5}, PreRoots: []int{7}}}
	if key(s1) == key(s3) {
		t.Error("spill def not part of the key")
	}
}
