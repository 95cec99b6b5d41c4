package ursa_test

import (
	"maps"
	"testing"

	"ursa"
	"ursa/internal/cfg"
	"ursa/internal/core"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/pipeline"
	"ursa/internal/trace"
	"ursa/internal/vliwsim"
	"ursa/internal/workload"
)

// TestSimulationLeavesInitUnchanged pins the state-ownership contract: the
// simulators execute on the state they are given, so every entry point
// that takes the caller's initial state must run on its own copy of it.
// Each call below writes memory or registers; the caller's init must come
// back with equal registers and equal memory.
func TestSimulationLeavesInitUnchanged(t *testing.T) {
	check := func(name string, init *ir.State, run func(*ir.State) error) {
		t.Helper()
		want := init.Clone()
		if err := run(init); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !maps.Equal(init.Regs, want.Regs) {
			t.Errorf("%s changed the caller's registers", name)
		}
		if d := ir.MemDiff(want, init); d != nil {
			t.Errorf("%s changed the caller's memory: %v", name, d)
		}
	}
	m := machine.VLIW(2, 3)
	paper := workload.PaperExample(true)
	prog, _, err := pipeline.Compile(paper.Blocks[0], m, pipeline.URSA, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}

	check("ursa.Simulate", workload.PaperInit(), func(init *ir.State) error {
		_, err := ursa.Simulate(prog, init)
		return err
	})
	check("vliwsim.Verify", workload.PaperInit(), func(init *ir.State) error {
		_, err := vliwsim.Verify(prog, paper.Blocks[0], init)
		return err
	})
	check("pipeline.Evaluate", workload.PaperInit(), func(init *ir.State) error {
		_, err := pipeline.Evaluate(paper.Blocks[0], m, pipeline.URSA, init, pipeline.Options{})
		return err
	})

	k := workload.KernelByName("maxloc")
	u, err := k.Unit(1)
	if err != nil {
		t.Fatal(err)
	}
	check("pipeline.EvaluateFunc", k.State(1), func(init *ir.State) error {
		_, err := pipeline.EvaluateFunc(u.Func, machine.VLIW(4, 8), pipeline.URSA, init, 1_000_000, pipeline.Options{})
		return err
	})

	g, err := cfg.Build(u.Func)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := cfg.ProfileRun(g, k.State(1), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Select(g, prof)[0]
	tprog, _, err := trace.Compile(tr, machine.VLIW(4, 10), true, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	check("trace.Verify", k.State(1), func(init *ir.State) error {
		_, err := trace.Verify(tprog, tr, init)
		return err
	})
}
