package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/workload"
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

func TestRunPaperFitsGenerousMachine(t *testing.T) {
	g := paperGraph(t)
	rep, err := Run(g, Options{Machine: machine.VLIW(4, 5)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Fits {
		t.Errorf("4 FUs / 5 regs must fit untransformed: %+v", rep.FinalWidths)
	}
	if rep.Iterations != 0 {
		t.Errorf("no transformations expected, got %d", rep.Iterations)
	}
	if rep.InitialWidths["fu"] != 4 || rep.InitialWidths["reg.int"] != 5 {
		t.Errorf("initial widths = %v, want fu=4 reg.int=5", rep.InitialWidths)
	}
}

// TestFig3dCombined reproduces Figure 3(d): the combination of
// transformations reduces the example to 2 functional units and 3 registers.
func TestFig3dCombined(t *testing.T) {
	g := paperGraph(t)
	rep, err := Run(g, Options{Machine: machine.VLIW(2, 3)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Fits {
		t.Fatalf("URSA did not fit 2 FUs / 3 regs: widths %v after %d iters (applied %+v)",
			rep.FinalWidths, rep.Iterations, rep.Applied)
	}
	if rep.FinalWidths["fu"] > 2 || rep.FinalWidths["reg.int"] > 3 {
		t.Errorf("final widths %v exceed machine", rep.FinalWidths)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("transformed graph invalid: %v", err)
	}
}

func TestRunPreservesSemantics(t *testing.T) {
	f := ir.MustParse(paperSrc)
	ref := ir.NewState()
	ref.StoreInt("V", 0, 9)
	got := ref.Clone()
	if _, err := ref.Run(f, 1000); err != nil {
		t.Fatalf("reference: %v", err)
	}

	g, err := dag.Build(f.Blocks[0])
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := Run(g, Options{Machine: machine.VLIW(2, 3)}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, n := range g.TopoOrder() {
		if g.Nodes[n].Instr != nil {
			got.Exec(g.Func, g.Nodes[n].Instr)
		}
	}
	z := g.Func.Reg("z")
	if got.Regs[z] != ref.Regs[z] {
		t.Errorf("z = %d, want %d", got.Regs[z].Int(), ref.Regs[z].Int())
	}
}

func TestPoliciesAllConverge(t *testing.T) {
	for _, p := range []Policy{Integrated, RegistersFirst, FUsFirst} {
		t.Run(p.String(), func(t *testing.T) {
			g := paperGraph(t)
			rep, err := Run(g, Options{Machine: machine.VLIW(3, 4), Policy: p})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !rep.Fits && !rep.ScheduleClean {
				t.Errorf("policy %s: widths %v neither fit 3 FUs / 4 regs nor schedule cleanly",
					p, rep.FinalWidths)
			}
		})
	}
}

func TestDisableSpillsStillSequences(t *testing.T) {
	g := paperGraph(t)
	rep, err := Run(g, Options{Machine: machine.VLIW(4, 4), DisableSpills: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.SpillsInserted != 0 {
		t.Errorf("spills inserted despite DisableSpills: %d", rep.SpillsInserted)
	}
	if !rep.Fits && !rep.ScheduleClean {
		t.Errorf("sequencing alone should reach 4 regs (or a clean schedule): %v", rep.FinalWidths)
	}
}

func TestResourcesHeterogeneous(t *testing.T) {
	g := paperGraph(t)
	m := machine.Heterogeneous(2, 1, 1, 1, 8, 8)
	rs := Resources(g, m)
	names := map[string]bool{}
	for _, r := range rs {
		names[r.Name] = true
	}
	for _, want := range []string{"fu.ialu", "fu.mem", "reg.int"} {
		if !names[want] {
			t.Errorf("missing resource %s in %v", want, names)
		}
	}
	if names["reg.fp"] {
		t.Error("reg.fp reported for integer-only code")
	}
	rep, err := Run(g, Options{Machine: m})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Fits && !rep.ScheduleClean {
		t.Errorf("heterogeneous run neither fits nor schedules cleanly: %v", rep.FinalWidths)
	}
}

func TestRunRejectsBadMachine(t *testing.T) {
	g := paperGraph(t)
	if _, err := Run(g, Options{}); err == nil {
		t.Error("nil machine accepted")
	}
	bad := machine.VLIW(0, 8)
	if _, err := Run(g, Options{Machine: bad}); err == nil {
		t.Error("0-unit machine accepted")
	}
	bad2 := machine.VLIW(2, 8)
	bad2.Regs[ir.ClassInt] = 0
	if _, err := Run(g, Options{Machine: bad2}); err == nil {
		t.Error("0-register machine accepted")
	}
}

// TestInitialWidthsAcrossLimits: widths are a property of the DAG alone,
// so a register sweep measures the same initial widths on every machine,
// while each report carries its own machine's limits.
func TestInitialWidthsAcrossLimits(t *testing.T) {
	var initial []map[string]int
	for _, regs := range []int{4, 6, 12} {
		g, err := dag.Build(workload.LayeredBlock(6, 3).Blocks[0])
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(g, Options{Machine: machine.VLIW(4, regs)})
		if err != nil {
			t.Fatal(err)
		}
		initial = append(initial, rep.InitialWidths)
		if rep.Limits["reg.int"] != regs {
			t.Fatalf("limits not per-machine: %v", rep.Limits)
		}
	}
	for i := 1; i < len(initial); i++ {
		if !reflect.DeepEqual(initial[i], initial[0]) {
			t.Fatalf("initial widths differ across the sweep: %v vs %v", initial[i], initial[0])
		}
	}
}

func randomBlock(rng *rand.Rand, n int) *ir.Func {
	f := ir.NewFunc("rand")
	b := f.NewBlock("entry")
	var vals []ir.VReg
	for i := 0; i < n; i++ {
		dst := f.NewReg(fmt.Sprintf("v%d", i), ir.ClassInt)
		switch {
		case len(vals) == 0 || rng.Intn(5) == 0:
			b.Append(&ir.Instr{Op: ir.Load, Dst: dst, Sym: "A", Off: int64(i)})
		case rng.Intn(3) == 0:
			a := vals[rng.Intn(len(vals))]
			b.Append(&ir.Instr{Op: ir.MulI, Dst: dst, Args: []ir.VReg{a}, Imm: 3})
		default:
			a := vals[rng.Intn(len(vals))]
			c := vals[rng.Intn(len(vals))]
			b.Append(&ir.Instr{Op: ir.Add, Dst: dst, Args: []ir.VReg{a, c}})
		}
		vals = append(vals, dst)
	}
	// Store the last value so it is consumed.
	b.Append(&ir.Instr{Op: ir.Store, Args: []ir.VReg{vals[len(vals)-1]}, Sym: "OUT"})
	return f
}

// TestConvergenceProperty: over random DAGs and machines, URSA terminates,
// leaves a valid DAG, never increases total excess, and preserves program
// semantics under any topological execution.
func TestConvergenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	machines := []*machine.Config{
		machine.VLIW(1, 4), machine.VLIW(2, 3), machine.VLIW(2, 6),
		machine.VLIW(4, 4), machine.VLIW(8, 16),
	}
	for trial := 0; trial < 25; trial++ {
		f := randomBlock(rng, 6+rng.Intn(14))
		m := machines[rng.Intn(len(machines))]

		ref := ir.NewState()
		for i := int64(0); i < 32; i++ {
			ref.StoreInt("A", i, rng.Int63n(100))
		}
		init := ref.Clone()
		if _, err := ref.Run(f, 10000); err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}

		g, err := dag.Build(f.Blocks[0])
		if err != nil {
			t.Fatalf("trial %d: Build: %v", trial, err)
		}
		rep, err := Run(g, Options{Machine: m})
		if err != nil {
			t.Fatalf("trial %d: Run: %v", trial, err)
		}
		if err := g.Check(); err != nil {
			t.Fatalf("trial %d: invalid graph after URSA: %v", trial, err)
		}
		for name, w := range rep.FinalWidths {
			if w > rep.InitialWidths[name] {
				t.Errorf("trial %d: width %s grew %d -> %d", trial, name,
					rep.InitialWidths[name], w)
			}
		}
		got := init
		for _, n := range g.TopoOrder() {
			if g.Nodes[n].Instr != nil {
				got.Exec(g.Func, g.Nodes[n].Instr)
			}
		}
		if got.Mem[ir.Addr{Sym: "OUT", Off: 0}] != ref.Mem[ir.Addr{Sym: "OUT", Off: 0}] {
			t.Errorf("trial %d (machine %s): OUT = %d, want %d", trial, m.Name,
				got.Mem[ir.Addr{Sym: "OUT", Off: 0}].Int(),
				ref.Mem[ir.Addr{Sym: "OUT", Off: 0}].Int())
		}
	}
}
