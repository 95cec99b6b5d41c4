package reuse

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/order"
)

// paperSrc is Figure 2 of the paper: constants are immediates, so the
// region's values are exactly the 11 nodes A..K.
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

func itemByReg(r *Reuse, name string) int {
	f := r.Graph.Func
	for i, it := range r.Items {
		if it.Reg != ir.NoReg && f.NameOf(it.Reg) == name {
			return i
		}
	}
	return -1
}

// itemByNode returns the first item produced at node, or -1.
func itemByNode(r *Reuse, node int) int {
	for i, it := range r.Items {
		if it.Node == node {
			return i
		}
	}
	return -1
}

func TestFUReuseIsReachability(t *testing.T) {
	g := paperGraph(t)
	r := FU(g, AllFUs)
	if r.NumItems() != 11 {
		t.Fatalf("items = %d, want 11", r.NumItems())
	}
	if err := r.Rel.IsStrictPartialOrder(); err != nil {
		t.Fatalf("CanReuse_FU not a strict partial order: %v", err)
	}
	// A reaches everything; G and H independent.
	a := itemByNode(r, g.DefNode(g.Func.Reg("v")))
	gg := itemByNode(r, g.DefNode(g.Func.Reg("t3")))
	hh := itemByNode(r, g.DefNode(g.Func.Reg("t4")))
	if !r.Rel.Has(a, gg) || !r.Rel.Has(a, hh) {
		t.Error("A must relate to G and H")
	}
	if r.Rel.Comparable(gg, hh) {
		t.Error("G and H must be incomparable")
	}
	// Width by brute force must be 4, the paper's FU requirement.
	if w := len(order.MaxAntichainBrute(r.Rel, nil)); w != 4 {
		t.Errorf("FU width = %d, want 4", w)
	}
}

func TestKindFUsSelectsSubset(t *testing.T) {
	g := paperGraph(t)
	r := FU(g, KindFUs(ir.KindMem))
	if r.NumItems() != 1 { // only the load
		t.Errorf("mem items = %d, want 1", r.NumItems())
	}
	r = FU(g, KindFUs(ir.KindIArith))
	if r.NumItems() != 10 {
		t.Errorf("ialu items = %d, want 10", r.NumItems())
	}
}

func TestRegReusePaperExample(t *testing.T) {
	g := paperGraph(t)
	r := Reg(g, ir.ClassInt)
	if r.NumItems() != 11 {
		t.Fatalf("items = %d, want 11", r.NumItems())
	}
	if err := r.Rel.IsStrictPartialOrder(); err != nil {
		t.Fatalf("CanReuse_Reg not a strict partial order: %v", err)
	}
	// The paper's headline number: five registers.
	if w := len(order.MaxAntichainBrute(r.Rel, nil)); w != 5 {
		t.Errorf("register width = %d, want 5", w)
	}
	// z is live-out: it must relate to nothing (never reusable).
	z := itemByReg(r, "z")
	if got := r.Rel.Row(z).Count(); got != 0 {
		t.Errorf("live-out z has %d reuse successors, want 0", got)
	}
	if r.Kill[z] != -1 {
		t.Errorf("Kill(z) = %d, want -1 (leaf)", r.Kill[z])
	}
}

func TestKillMinimumCoverHardCase(t *testing.T) {
	// Paper §3.2: in sub-DAG {B,C,E,F}, the minimum cover picks one node
	// to kill both B and C, so CanReuse relates B and C to that node only,
	// and the sub-DAG needs three allocation chains.
	g := paperGraph(t)
	r := Reg(g, ir.ClassInt)
	w := itemByReg(r, "w") // B's value
	x := itemByReg(r, "x") // C's value
	if r.Kill[w] != r.Kill[x] {
		t.Errorf("Kill(w)=%d, Kill(x)=%d: minimum cover must share the killer",
			r.Kill[w], r.Kill[x])
	}
	killer := r.Kill[w]
	e := g.DefNode(g.Func.Reg("t1"))
	f := g.DefNode(g.Func.Reg("t2"))
	if killer != e && killer != f {
		t.Errorf("shared killer = node %d, want E (%d) or F (%d)", killer, e, f)
	}
	// Width of the {w, x, t1, t2} sub-order must be 3 (paper).
	sub := []int{w, x, itemByReg(r, "t1"), itemByReg(r, "t2")}
	if got := len(order.MaxAntichainBrute(r.Rel, sub)); got != 3 {
		t.Errorf("sub-DAG width = %d, want 3", got)
	}
}

func TestKillPrefersMaximalUses(t *testing.T) {
	// d's uses are u1 and u2 with u1 -> u2: only u2 can be the kill.
	f := ir.MustParse(`
entry:
	d = const 1
	u1 = addi d, 1
	u2 = add u1, d
	store O[0], u2
`)
	g, err := dag.Build(f.Blocks[0])
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	r := Reg(g, ir.ClassInt)
	d := itemByReg(r, "d")
	u2 := g.DefNode(f.Reg("u2"))
	if r.Kill[d] != u2 {
		t.Errorf("Kill(d) = node %d, want u2 (%d)", r.Kill[d], u2)
	}
}

func TestLiveInRegistersAreItems(t *testing.T) {
	f := ir.MustParse(`
entry:
	a = add p, q
	b = add a, p
	store O[0], b
`)
	g, err := dag.Build(f.Blocks[0])
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	r := Reg(g, ir.ClassInt)
	if r.NumItems() != 4 { // a, b, p, q
		t.Fatalf("items = %d, want 4 (a, b + live-ins p, q)", r.NumItems())
	}
	p := itemByReg(r, "p")
	q := itemByReg(r, "q")
	if r.Items[p].Node != g.Root || r.Items[q].Node != g.Root {
		t.Error("live-in items must be produced at the root")
	}
	// Live-ins are mutually incomparable (each pins its own register).
	if r.Rel.Comparable(p, q) {
		t.Error("live-in values must be incomparable")
	}
	// p is killed at b (its maximal use), so p relates to nothing after b
	// except... b itself defines a value; q's kill is a.
	a := itemByReg(r, "a")
	if !r.Rel.Has(q, a) && r.Kill[q] != g.DefNode(f.Reg("a")) {
		t.Errorf("q should be killed at a and reusable there")
	}
}

func TestFPClassSeparation(t *testing.T) {
	f := ir.MustParse(`
entry:
	i = const 1
	x = constf 2.0
	y = fmuli x, 3
	j = addi i, 1
	store O[0], j
	storef P[0], y
`)
	g, err := dag.Build(f.Blocks[0])
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ri := Reg(g, ir.ClassInt)
	rf := Reg(g, ir.ClassFP)
	if ri.NumItems() != 2 {
		t.Errorf("int items = %d, want 2 (i, j)", ri.NumItems())
	}
	if rf.NumItems() != 2 {
		t.Errorf("fp items = %d, want 2 (x, y)", rf.NumItems())
	}
}

// randomBlock emits a random straight-line single-assignment block with n
// value-producing instructions.
func randomBlock(rng *rand.Rand, n int) *ir.Func {
	f := ir.NewFunc("rand")
	b := f.NewBlock("entry")
	var vals []ir.VReg
	for i := 0; i < n; i++ {
		dst := f.NewReg(fmt.Sprintf("v%d", i), ir.ClassInt)
		switch {
		case len(vals) == 0 || rng.Intn(4) == 0:
			b.Append(&ir.Instr{Op: ir.ConstI, Dst: dst, Imm: int64(rng.Intn(100))})
		case rng.Intn(3) == 0:
			a := vals[rng.Intn(len(vals))]
			b.Append(&ir.Instr{Op: ir.AddI, Dst: dst, Args: []ir.VReg{a}, Imm: int64(rng.Intn(10))})
		default:
			a := vals[rng.Intn(len(vals))]
			c := vals[rng.Intn(len(vals))]
			b.Append(&ir.Instr{Op: ir.Add, Dst: dst, Args: []ir.VReg{a, c}})
		}
		vals = append(vals, dst)
	}
	return f
}

func TestRegReuseIsPartialOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		f := randomBlock(rng, 4+rng.Intn(8))
		g, err := dag.Build(f.Blocks[0])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, r := range []*Reuse{Reg(g, ir.ClassInt), FU(g, AllFUs)} {
			if err := r.Rel.IsStrictPartialOrder(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			red := r.Rel.TransitiveReduction().TransitiveClosure()
			for a := 0; a < r.NumItems(); a++ {
				for b := 0; b < r.NumItems(); b++ {
					if red.Has(a, b) != r.Rel.Has(a, b) {
						t.Fatalf("trial %d: reduction loses information", trial)
					}
				}
			}
		}
	}
}

func TestKillNeverPrecedesProducer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		f := randomBlock(rng, 4+rng.Intn(10))
		g, err := dag.Build(f.Blocks[0])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		reach := g.Reach()
		r := Reg(g, ir.ClassInt)
		for i, it := range r.Items {
			k := r.Kill[i]
			if k < 0 {
				continue
			}
			if !reach.Has(it.Node, k) {
				t.Fatalf("trial %d: kill node %d does not follow producer %d", trial, k, it.Node)
			}
		}
	}
}

func TestReuseDot(t *testing.T) {
	g := paperGraph(t)
	dot := Reg(g, ir.ClassInt).Dot("paper")
	for _, want := range []string{"digraph", "kill:", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("Reuse DOT missing %q", want)
		}
	}
	fuDot := FU(g, AllFUs).Dot("paper")
	if !strings.Contains(fuDot, "digraph") {
		t.Error("FU DOT malformed")
	}
}
