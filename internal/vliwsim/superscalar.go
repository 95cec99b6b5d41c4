package vliwsim

import (
	"fmt"

	"ursa/internal/assign"
	"ursa/internal/ir"
)

// RunInOrder executes the program's instructions in linear (flattened word)
// order on an in-order superscalar core — the §6 future-work target: the
// machine fetches a sequential stream and issues up to the unit limits per
// cycle, stalling on RAW interlocks, structural hazards, and memory
// conflicts instead of relying on compiler-guaranteed word parallelism.
// A write waits for the register's earlier write (WAW); register WAR
// hazards do not stall, since operands are read at issue. Like Run, it
// executes on st and returns it as the result's State.
//
// The code quality question this answers: does the *order* a pipeline
// emits still matter when the hardware interlocks? (Paper §6: "Extensions
// to handle the problems caused by interlocks in pipelines are also being
// developed, so that superscalar architectures can be targeted.")
func RunInOrder(p *assign.Program, st *ir.State) (*Result, error) {
	m := p.Machine
	s := newSim(p, st)
	seq := p.Instrs()
	readyAt := map[ir.VReg]int{} // register -> cycle its last pending write commits
	memReady := map[string]int{} // symbol -> cycle its last pending store commits

	// interlocked reports a RAW hazard on an operand, a WAW hazard on the
	// destination, or a memory access to a symbol with a store in flight.
	interlocked := func(in *ir.Instr, cycle int) bool {
		for _, u := range in.Uses() {
			if readyAt[u] > cycle {
				return true
			}
		}
		return in.Dst != ir.NoReg && readyAt[in.Dst] > cycle ||
			in.IsMem() && memReady[in.Sym] > cycle
	}

	cycle, idx := 0, 0
	for ; idx < len(seq); cycle++ {
		if cycle >= 64*len(seq)+1024 {
			return nil, fmt.Errorf("vliwsim: in-order execution stalled at instruction %d", idx)
		}
		s.commit(cycle)
		// In order: the head of the stream blocks everything behind it,
		// and fetch issues at most IssueWidth instructions a cycle.
		for issued := 0; idx < len(seq) && (m.IssueWidth <= 0 || issued < m.IssueWidth); issued++ {
			in := seq[idx]
			if interlocked(in, cycle) || s.busy(in, cycle) >= m.Units.Get(m.ClassFor(in.Kind())) {
				break
			}
			idx++
			if s.issue(in, cycle) {
				idx = len(seq)
			}
			at := cycle + m.LatencyOf(in.Op)
			if in.Dst != ir.NoReg {
				readyAt[in.Dst] = at
			}
			if in.IsStore() {
				memReady[in.Sym] = at
			}
		}
	}
	return s.finish(cycle), nil
}
