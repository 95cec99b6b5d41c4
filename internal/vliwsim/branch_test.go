package vliwsim

import (
	"fmt"
	"testing"

	"ursa/internal/assign"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/target"
)

// buildBranchy assembles a hand-written program: word 0 computes a
// condition, word 1 branches on it, words 2+ hold a store that must be
// squashed when the branch is taken.
func buildBranchy(taken bool) (*assign.Program, *ir.Func) {
	m := machine.VLIW(2, 8)
	pf := ir.NewFunc("branchy")
	c := pf.NewReg("r0", ir.ClassInt)
	v := pf.NewReg("r1", ir.ClassInt)
	imm := int64(0)
	if taken {
		imm = 1
	}
	prog := &assign.Program{
		Func:    pf,
		Machine: m,
		Words: [][]*ir.Instr{
			{{Op: ir.ConstI, Dst: c, Imm: imm}, {Op: ir.ConstI, Dst: v, Imm: 42}},
			{{Op: ir.BrTrue, Args: []ir.VReg{c}, Sym: "elsewhere"}},
			{{Op: ir.Store, Args: []ir.VReg{v}, Sym: "O", Off: 0}},
		},
	}
	return prog, pf
}

func TestBranchTakenSquashesLaterWords(t *testing.T) {
	prog, _ := buildBranchy(true)
	res, err := Run(prog, ir.NewState())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Exit != "elsewhere" {
		t.Errorf("Exit = %q, want elsewhere", res.Exit)
	}
	if got := res.State.Mem[ir.Addr{Sym: "O", Off: 0}].Int(); got != 0 {
		t.Errorf("squashed store executed: O[0] = %d", got)
	}
	if res.Issued != 3 { // both consts + the branch, not the store
		t.Errorf("issued = %d, want 3", res.Issued)
	}
}

func TestBranchNotTakenFallsThrough(t *testing.T) {
	prog, _ := buildBranchy(false)
	res, err := Run(prog, ir.NewState())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Exit != "" {
		t.Errorf("Exit = %q, want fall-through", res.Exit)
	}
	if got := res.State.Mem[ir.Addr{Sym: "O", Off: 0}].Int(); got != 42 {
		t.Errorf("store after untaken branch lost: O[0] = %d", got)
	}
}

func TestRetExit(t *testing.T) {
	m := machine.VLIW(1, 4)
	pf := ir.NewFunc("r")
	prog := &assign.Program{
		Func:    pf,
		Machine: m,
		Words:   [][]*ir.Instr{{{Op: ir.Ret}}},
	}
	res, err := Run(prog, ir.NewState())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Exit != "ret" {
		t.Errorf("Exit = %q, want ret", res.Exit)
	}
}

// TestInFlightWritesCommitAcrossTakenBranch: a store issued before the
// branch with a 2-cycle latency must still land even though the branch
// squashes later words.
func TestInFlightWritesCommitAcrossTakenBranch(t *testing.T) {
	m := machine.VLIW(2, 8)
	m.Latency = machine.RealisticLatency // stores take 2 cycles
	pf := ir.NewFunc("inflight")
	c := pf.NewReg("r0", ir.ClassInt)
	v := pf.NewReg("r1", ir.ClassInt)
	prog := &assign.Program{
		Func:    pf,
		Machine: m,
		Words: [][]*ir.Instr{
			{{Op: ir.ConstI, Dst: c, Imm: 1}, {Op: ir.ConstI, Dst: v, Imm: 7}},
			{{Op: ir.Store, Args: []ir.VReg{v}, Sym: "O", Off: 0}},
			{{Op: ir.Br, Sym: "out"}}, // store still in flight here
		},
	}
	res, err := Run(prog, ir.NewState())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Exit != "out" {
		t.Errorf("Exit = %q", res.Exit)
	}
	if got := res.State.Mem[ir.Addr{Sym: "O", Off: 0}].Int(); got != 7 {
		t.Errorf("in-flight store lost: O[0] = %d, want 7", got)
	}
}

func TestSpillOpsCounted(t *testing.T) {
	m := machine.VLIW(1, 4)
	pf := ir.NewFunc("s")
	v := pf.NewReg("r0", ir.ClassInt)
	prog := &assign.Program{
		Func:    pf,
		Machine: m,
		Words: [][]*ir.Instr{
			{{Op: ir.ConstI, Dst: v, Imm: 5}},
			{{Op: ir.SpillStore, Args: []ir.VReg{v}, Sym: "spill.x"}},
			{{Op: ir.SpillLoad, Dst: v, Sym: "spill.x"}},
		},
	}
	res, err := Run(prog, ir.NewState())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.SpillOps != 2 {
		t.Errorf("SpillOps = %d, want 2", res.SpillOps)
	}
}

// TestRunInOrderMatchesVLIW: on the paper example, in-order superscalar
// execution of the flattened program must compute the same memory state as
// the VLIW execution, with cycles no better than the VLIW schedule.
func TestRunInOrderMatchesVLIW(t *testing.T) {
	prog, blk := emitPaper(t, machine.VLIW(4, 8), true)
	init := ir.NewState()
	init.StoreInt("V", 0, 7)
	vliw, err := Verify(prog, blk, init)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	inorder, err := RunInOrder(prog, init)
	if err != nil {
		t.Fatalf("RunInOrder: %v", err)
	}
	if got := inorder.State.Mem[ir.Addr{Sym: "Z", Off: 0}].Int(); got != 28 {
		t.Errorf("Z[0] = %d, want 28", got)
	}
	if inorder.Cycles < vliw.Cycles {
		t.Errorf("in-order %d cycles beat the VLIW schedule %d", inorder.Cycles, vliw.Cycles)
	}
	if inorder.Issued != vliw.Issued {
		t.Errorf("issued %d vs %d", inorder.Issued, vliw.Issued)
	}
}

// TestRunInOrderInterlocks: with realistic latencies, a dependent chain
// must observe RAW stalls (cycles >= sum of chain latencies), and the
// result must still be correct.
func TestRunInOrderInterlocks(t *testing.T) {
	m := machine.VLIW(4, 8)
	m.Latency = machine.RealisticLatency
	pf := ir.NewFunc("chain")
	r0 := pf.NewReg("r0", ir.ClassInt)
	r1 := pf.NewReg("r1", ir.ClassInt)
	prog := &assign.Program{
		Func:    pf,
		Machine: m,
		Words: [][]*ir.Instr{{
			{Op: ir.ConstI, Dst: r0, Imm: 5},
			{Op: ir.MulI, Dst: r1, Args: []ir.VReg{r0}, Imm: 3}, // waits for const
			{Op: ir.AddI, Dst: r0, Args: []ir.VReg{r1}, Imm: 1}, // waits for mul
			{Op: ir.Store, Args: []ir.VReg{r0}, Sym: "O"},       // waits for add
		}},
	}
	res, err := RunInOrder(prog, init4())
	if err != nil {
		t.Fatalf("RunInOrder: %v", err)
	}
	// const(1) -> mul(2) -> add(1) -> store(2): at least 6 cycles.
	if res.Cycles < 6 {
		t.Errorf("cycles = %d, want >= 6 (interlocks ignored?)", res.Cycles)
	}
	if got := res.State.Mem[ir.Addr{Sym: "O"}].Int(); got != 16 {
		t.Errorf("O = %d, want 16", got)
	}
}

func init4() *ir.State { return ir.NewState() }

// TestRunInOrderStoreLoadOrdering: a load after a store to the same cell
// must observe the stored value despite the store's latency.
func TestRunInOrderStoreLoadOrdering(t *testing.T) {
	m := machine.VLIW(4, 8)
	m.Latency = machine.RealisticLatency
	pf := ir.NewFunc("memdep")
	v := pf.NewReg("r0", ir.ClassInt)
	w := pf.NewReg("r1", ir.ClassInt)
	prog := &assign.Program{
		Func:    pf,
		Machine: m,
		Words: [][]*ir.Instr{{
			{Op: ir.ConstI, Dst: v, Imm: 99},
			{Op: ir.Store, Args: []ir.VReg{v}, Sym: "M"},
			{Op: ir.Load, Dst: w, Sym: "M"},
			{Op: ir.Store, Args: []ir.VReg{w}, Sym: "O"},
		}},
	}
	res, err := RunInOrder(prog, ir.NewState())
	if err != nil {
		t.Fatalf("RunInOrder: %v", err)
	}
	if got := res.State.Mem[ir.Addr{Sym: "O"}].Int(); got != 99 {
		t.Errorf("O = %d, want 99 (load bypassed in-flight store)", got)
	}
}

// TestRunInOrderClusteredUnits: a clustered machine's unit limit is per
// cluster. With cluster 0's two ALUs taken, the two independent ALU ops on
// cluster 1 still issue in the same cycle on the in-order model, exactly
// as they do as one VLIW word.
func TestRunInOrderClusteredUnits(t *testing.T) {
	m := target.ByName("clus2x2x4").Config
	pf := ir.NewFunc("clustered")
	var word []*ir.Instr
	for i := 0; i < 4; i++ {
		r := pf.NewReg(fmt.Sprintf("r%d", i), ir.ClassInt)
		word = append(word, &ir.Instr{Op: ir.ConstI, Dst: r, Imm: int64(i + 1), Cluster: uint8(i / 2)})
	}
	prog := &assign.Program{Func: pf, Machine: m, Words: [][]*ir.Instr{word}}
	for _, run := range []struct {
		name string
		sim  func(*assign.Program, *ir.State) (*Result, error)
	}{{"Run", Run}, {"RunInOrder", RunInOrder}} {
		res, err := run.sim(prog, ir.NewState())
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if res.Cycles != 1 || res.MaxBusy[machine.ANY] != 2 {
			t.Errorf("%s: %d cycles, %d ALUs busy at once; want 1 cycle, 2 per cluster",
				run.name, res.Cycles, res.MaxBusy[machine.ANY])
		}
		for i, in := range word {
			if got := res.State.Regs[in.Dst].Int(); got != int64(i+1) {
				t.Errorf("%s: r%d = %d, want %d", run.name, i, got, i+1)
			}
		}
	}
}
