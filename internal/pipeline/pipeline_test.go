package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"ursa/internal/ir"
	"ursa/internal/machine"
)

const paperSrc = `
func paper {
entry:
	v = load V[0]
	w = muli v, 2
	x = muli v, 3
	y = addi v, 5
	t1 = add w, x
	t2 = mul w, x
	t3 = muli y, 2
	t4 = divi y, 3
	t5 = div t1, t2
	t6 = add t3, t4
	z = add t5, t6
	store Z[0], z
}
`

func paperInit() *ir.State {
	st := ir.NewState()
	st.StoreInt("V", 0, 7)
	return st
}

func TestAllPipelinesCorrect(t *testing.T) {
	f := ir.MustParse(paperSrc)
	machines := []*machine.Config{
		machine.VLIW(4, 8), machine.VLIW(2, 4), machine.VLIW(4, 3), machine.VLIW(1, 5),
	}
	for _, m := range machines {
		for _, method := range Methods {
			st, err := Evaluate(f.Blocks[0], m, method, paperInit(), Options{})
			if err != nil {
				t.Errorf("%s on %s: %v", method, m.Name, err)
				continue
			}
			if !st.Verified {
				t.Errorf("%s on %s: not verified", method, m.Name)
			}
			if st.Cycles <= 0 {
				t.Errorf("%s on %s: cycles = %d", method, m.Name, st.Cycles)
			}
			if st.RegsUsed[ir.ClassInt] > m.Regs[ir.ClassInt] {
				t.Errorf("%s on %s: used %d registers", method, m.Name, st.RegsUsed[ir.ClassInt])
			}
		}
	}
}

func TestURSAAvoidsSpillsWherePrepassSpills(t *testing.T) {
	// The paper's core claim: with tight registers, prepass scheduling is
	// forced into spill patching while URSA sequences the DAG beforehand.
	f := ir.MustParse(paperSrc)
	m := machine.VLIW(4, 3)
	ursa, err := Evaluate(f.Blocks[0], m, URSA, paperInit(), Options{})
	if err != nil {
		t.Fatalf("ursa: %v", err)
	}
	f2 := ir.MustParse(paperSrc)
	pre, err := Evaluate(f2.Blocks[0], m, Prepass, paperInit(), Options{})
	if err != nil {
		t.Fatalf("prepass: %v", err)
	}
	if pre.SpillOps == 0 {
		t.Error("prepass inserted no spill code at 3 registers (pressure is 5)")
	}
	if ursa.SpillOps > pre.SpillOps {
		t.Errorf("URSA spill ops %d > prepass %d", ursa.SpillOps, pre.SpillOps)
	}
}

func TestRejectsLiveInBlocks(t *testing.T) {
	f := ir.MustParse("entry:\n\ta = add p, q\n\tstore O[0], a")
	if _, _, err := Compile(f.Blocks[0], machine.VLIW(2, 4), URSA, Options{}); err == nil {
		t.Fatal("block with register live-ins accepted")
	}
}

func TestStatsRow(t *testing.T) {
	f := ir.MustParse(paperSrc)
	st, err := Evaluate(f.Blocks[0], machine.VLIW(2, 4), URSA, paperInit(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if row := st.Row(); len(row) == 0 {
		t.Error("empty row")
	}
}

// TestPipelinesRandomCrossCheck compiles random closed blocks through all
// four pipelines on assorted machines and verifies each result.
func TestPipelinesRandomCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	machines := []*machine.Config{
		machine.VLIW(2, 4), machine.VLIW(4, 6), machine.VLIW(1, 3),
		machine.Heterogeneous(2, 1, 1, 1, 5, 5),
	}
	for trial := 0; trial < 15; trial++ {
		f := ir.NewFunc("rand")
		b := f.NewBlock("entry")
		var vals []ir.VReg
		n := 6 + rng.Intn(16)
		for i := 0; i < n; i++ {
			dst := f.NewReg(fmt.Sprintf("v%d", i), ir.ClassInt)
			switch {
			case len(vals) == 0 || rng.Intn(5) == 0:
				b.Append(&ir.Instr{Op: ir.Load, Dst: dst, Sym: "A", Off: int64(i % 8)})
			case rng.Intn(3) == 0:
				a := vals[rng.Intn(len(vals))]
				b.Append(&ir.Instr{Op: ir.MulI, Dst: dst, Args: []ir.VReg{a}, Imm: int64(1 + rng.Intn(4))})
			default:
				a := vals[rng.Intn(len(vals))]
				c := vals[rng.Intn(len(vals))]
				op := []ir.Op{ir.Add, ir.Sub, ir.Xor}[rng.Intn(3)]
				b.Append(&ir.Instr{Op: op, Dst: dst, Args: []ir.VReg{a, c}})
			}
			vals = append(vals, dst)
		}
		used := map[ir.VReg]bool{}
		for _, in := range b.Instrs {
			for _, u := range in.Uses() {
				used[u] = true
			}
		}
		for i, v := range vals {
			if !used[v] {
				b.Append(&ir.Instr{Op: ir.Store, Args: []ir.VReg{v}, Sym: "OUT", Off: int64(i)})
			}
		}

		init := ir.NewState()
		for i := int64(0); i < 8; i++ {
			init.StoreInt("A", i, rng.Int63n(50))
		}
		m := machines[rng.Intn(len(machines))]
		for _, method := range Methods {
			if _, err := Evaluate(b, m, method, init, Options{}); err != nil {
				t.Fatalf("trial %d: %s on %s: %v", trial, method, m.Name, err)
			}
		}
	}
}
