package dag

import (
	"testing"

	"ursa/internal/ir"
)

// TestBuildSchedulingAntiOutputDeps: register reuse must force WAR and WAW
// edges — the §1 mechanism by which postpass allocation restricts the
// scheduler.
func TestBuildSchedulingAntiOutputDeps(t *testing.T) {
	f := ir.NewFunc("ra")
	b := f.NewBlock("entry")
	r0 := f.NewReg("r0", ir.ClassInt)
	r1 := f.NewReg("r1", ir.ClassInt)
	// r0 = load; r1 = r0+1; r0 = load (WAW with def 0, WAR with use in 1);
	// store r0.
	i0 := b.Append(&ir.Instr{Op: ir.Load, Dst: r0, Sym: "A", Off: 0})
	i1 := b.Append(&ir.Instr{Op: ir.AddI, Dst: r1, Args: []ir.VReg{r0}, Imm: 1})
	i2 := b.Append(&ir.Instr{Op: ir.Load, Dst: r0, Sym: "A", Off: 1})
	i3 := b.Append(&ir.Instr{Op: ir.Store, Args: []ir.VReg{r0}, Sym: "O", Off: 0})
	_ = i3

	g, err := BuildScheduling(b)
	if err != nil {
		t.Fatalf("BuildScheduling: %v", err)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	// Node ids: 0=root, 1=leaf, then 2,3,4,5 in order.
	n0, n1, n2 := 2, 3, 4
	if !g.HasEdge(n0, n1) {
		t.Error("RAW r0: load -> add missing")
	}
	if !g.HasEdge(n1, n2) {
		t.Error("WAR r0: add (reads old r0) -> second load (writes r0) missing")
	}
	if !g.HasEdge(n0, n2) {
		t.Error("WAW r0: first load -> second load missing")
	}
	// The reuse serializes: the two loads can never be concurrent.
	reach := g.Reach()
	if !reach.Has(n0, n2) {
		t.Error("loads not ordered")
	}
	_ = i0
	_ = i1
	_ = i2
	// The final value of r0 is live-out.
	if !g.LiveOut[r0] {
		t.Error("r0 not live-out")
	}
}

// TestBuildSchedulingVsSSAWidth: the same computation written with reuse
// has a narrower DAG (less parallelism) than its SSA form — quantifying the
// §1 claim.
func TestBuildSchedulingVsSSAWidth(t *testing.T) {
	// SSA form: four independent loads, pairwise sums.
	ssa := ir.MustParse(`
entry:
	a = load A[0]
	b = load A[1]
	c = load A[2]
	d = load A[3]
	s1 = add a, b
	s2 = add c, d
	s3 = add s1, s2
	store O[0], s3
`)
	gSSA, err := Build(ssa.Blocks[0])
	if err != nil {
		t.Fatal(err)
	}

	// The same computation through two physical registers.
	f := ir.NewFunc("two")
	b := f.NewBlock("entry")
	r0 := f.NewReg("r0", ir.ClassInt)
	r1 := f.NewReg("r1", ir.ClassInt)
	r2 := f.NewReg("r2", ir.ClassInt)
	b.Append(&ir.Instr{Op: ir.Load, Dst: r0, Sym: "A", Off: 0})
	b.Append(&ir.Instr{Op: ir.Load, Dst: r1, Sym: "A", Off: 1})
	b.Append(&ir.Instr{Op: ir.Add, Dst: r2, Args: []ir.VReg{r0, r1}})
	b.Append(&ir.Instr{Op: ir.Load, Dst: r0, Sym: "A", Off: 2})
	b.Append(&ir.Instr{Op: ir.Load, Dst: r1, Sym: "A", Off: 3})
	b.Append(&ir.Instr{Op: ir.Add, Dst: r0, Args: []ir.VReg{r0, r1}})
	b.Append(&ir.Instr{Op: ir.Add, Dst: r0, Args: []ir.VReg{r2, r0}})
	b.Append(&ir.Instr{Op: ir.Store, Args: []ir.VReg{r0}, Sym: "O", Off: 0})
	gRA, err := BuildScheduling(b)
	if err != nil {
		t.Fatal(err)
	}

	critSSA := gSSA.CriticalPath(UnitLatency)
	critRA := gRA.CriticalPath(UnitLatency)
	if critRA <= critSSA {
		t.Errorf("register reuse should lengthen the critical path: SSA %d, reused %d",
			critSSA, critRA)
	}
}
