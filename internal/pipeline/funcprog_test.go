package pipeline

import (
	"strings"
	"testing"

	"ursa/internal/frontend"
	"ursa/internal/ir"
	"ursa/internal/machine"
)

func loopFunc(t *testing.T) (*ir.Func, *ir.State) {
	t.Helper()
	u, err := frontend.Compile(`
		var s = 0;
		for i = 0 to 10 {
			if (c[i] > 3) { s = s + c[i]; } else { s = s - c[i]; }
		}
		out[0] = s;
	`, frontend.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	init := ir.NewState()
	for i := int64(0); i < 10; i++ {
		init.StoreInt("c", i, i)
	}
	return u.Func, init
}

func TestCompileFuncAllMethods(t *testing.T) {
	f, init := loopFunc(t)
	m := machine.VLIW(2, 5)
	want := init.Clone()
	if _, err := want.Run(f, 100000); err != nil {
		t.Fatal(err)
	}
	wantOut := want.Mem[ir.Addr{Sym: "out"}]

	for _, method := range Methods {
		fp, st, err := CompileFunc(f, m, method, Options{})
		if err != nil {
			t.Fatalf("%s: CompileFunc: %v", method, err)
		}
		if len(fp.Blocks) != len(f.Blocks) {
			t.Fatalf("%s: %d programs for %d blocks", method, len(fp.Blocks), len(f.Blocks))
		}
		if st.Words == 0 {
			t.Errorf("%s: zero words", method)
		}
		res, err := fp.Run(init.Clone(), 1_000_000)
		if err != nil {
			t.Fatalf("%s: Run: %v", method, err)
		}
		if res.BlockXct < 10 {
			t.Errorf("%s: only %d block executions for a 10-iteration loop", method, res.BlockXct)
		}
		if got := res.State.Mem[ir.Addr{Sym: "out"}]; got != wantOut {
			t.Errorf("%s: out = %d, want %d", method, got.Int(), wantOut.Int())
		}
	}
}

func TestFuncRunCycleBudget(t *testing.T) {
	u, err := frontend.Compile(`
		var i = 0;
		while (i < 1000000) { i = i + 1; }
		out[0] = i;
	`, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp, _, err := CompileFunc(u.Func, machine.VLIW(2, 4), URSA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fp.Run(ir.NewState(), 500); err == nil {
		t.Fatal("cycle budget not enforced")
	} else if !strings.Contains(err.Error(), "budget") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestEvaluateFuncCatchesMiscompiles(t *testing.T) {
	f, init := loopFunc(t)
	m := machine.VLIW(2, 5)
	fp, _, err := CompileFunc(f, m, URSA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one emitted immediate and check ir.MemDiff catches it.
	corrupted := false
	for _, prog := range fp.Blocks {
		for _, in := range prog.Instrs() {
			if in.Op == ir.AddI && in.Imm == 1 && !corrupted {
				in.Imm = 2
				corrupted = true
			}
		}
	}
	if !corrupted {
		t.Skip("no candidate immediate to corrupt")
	}
	ref := init.Clone()
	if _, err := ref.Run(f, 1_000_000); err != nil {
		t.Fatal(err)
	}
	res, err := fp.Run(init.Clone(), 1_000_000)
	if err != nil {
		// Corruption may also livelock the loop counter; either outcome
		// demonstrates detection.
		return
	}
	if ir.MemDiff(ref, res.State) == nil {
		t.Fatal("corrupted program passed memory comparison")
	}
}

func TestEvaluateFuncHeterogeneousWithLatency(t *testing.T) {
	f, init := loopFunc(t)
	m := machine.Heterogeneous(2, 1, 1, 1, 6, 6)
	m.Latency = machine.RealisticLatency
	st, err := EvaluateFunc(f, m, URSA, init, 1_000_000, Options{})
	if err != nil {
		t.Fatalf("EvaluateFunc: %v", err)
	}
	if !st.Verified || st.Cycles == 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestEvaluateFuncPipelinedMachine(t *testing.T) {
	f, init := loopFunc(t)
	m := machine.VLIW(2, 6)
	m.Latency = machine.RealisticLatency
	m.Pipelined = true
	st, err := EvaluateFunc(f, m, URSA, init, 1_000_000, Options{})
	if err != nil {
		t.Fatalf("EvaluateFunc: %v", err)
	}
	mNon := machine.VLIW(2, 6)
	mNon.Latency = machine.RealisticLatency
	stNon, err := EvaluateFunc(f, mNon, URSA, init, 1_000_000, Options{})
	if err != nil {
		t.Fatalf("non-pipelined: %v", err)
	}
	if st.Cycles > stNon.Cycles {
		t.Errorf("pipelined (%d cycles) slower than non-pipelined (%d)", st.Cycles, stNon.Cycles)
	}
}
