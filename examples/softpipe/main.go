// Softpipe: two routes to software pipelining, side by side. The paper's
// §6 future-work extension — unroll the loop and let URSA's unified
// allocation constrain the widened body — is the baseline sweep; against
// it runs internal/modsched, true iterative modulo scheduling whose
// candidate IIs are accepted or rejected by URSA's measurement of the
// flattened kernel. Every row is executed on the simulator and the
// modulo-scheduled result is diff-checked against the interpreter.
package main

import (
	"flag"
	"fmt"
	"log"

	"ursa"
	"ursa/internal/ir"
	"ursa/internal/pipeline"
	"ursa/internal/softpipe"
)

func main() {
	width := flag.Int("width", 4, "functional units")
	regs := flag.Int("regs", 12, "registers per file")
	flag.Parse()

	m := ursa.VLIW(*width, *regs)
	fmt.Printf("machine: %s\n\n%s\n", m, softpipe.RowHeader)

	for _, name := range []string{"saxpy", "dot", "stencil3", "hydro", "fir8"} {
		k := ursa.KernelByName(name)
		res, err := softpipe.Sweep(k.Name, k.Source, k.N, k.State(1), m,
			pipeline.URSA, []int{1, 2, 4, 8})
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		for _, row := range res.Rows() {
			fmt.Println(row)
		}
		best := res.Best()
		fmt.Printf("  -> best unroll %d: %.2f cycles/iter (%.2fx over rolled)\n",
			best.Unroll, best.CyclesPerIter,
			res.Points[0].CyclesPerIter/best.CyclesPerIter)
		modschedRow(k, m, best.CyclesPerIter)
		fmt.Println()
	}
}

// modschedRow pipelines the kernel's loop by modulo scheduling, runs the
// compiled result, verifies its memory against the interpreter on the
// original function, and prints cycles/iter next to the sweep's best.
func modschedRow(k *ursa.Kernel, m *ursa.Machine, sweepBest float64) {
	const budget = softpipe.DefaultBudget
	f, err := ursa.ParseKernel(k.Source, 0)
	if err != nil {
		log.Fatalf("%s: parse: %v", k.Name, err)
	}
	fp, _, ms, err := ursa.CompileLoopFunc(f, m, ursa.URSA, ursa.CompileOptions{})
	if err != nil {
		fmt.Printf("  -> modsched: skipped (%v)\n", err)
		return
	}
	res, err := fp.Run(k.State(1), budget)
	if err != nil {
		log.Fatalf("%s: modsched run: %v", k.Name, err)
	}
	ref := k.State(1)
	if _, err := ref.Run(f, budget); err != nil {
		log.Fatalf("%s: interp: %v", k.Name, err)
	}
	verified := ir.MemDiff(ref, res.State) == nil
	l := ms.Primary()
	cpi := float64(res.Cycles) / float64(k.N)
	fmt.Printf("  -> modsched: II=%d vs MII=%d (res=%d rec=%d), unroll=%d: %.2f cycles/iter (%.2fx vs best sweep), verified=%v\n",
		l.II, l.MII, l.ResMII, l.RecMII, l.Unroll, cpi, sweepBest/cpi, verified)
}
