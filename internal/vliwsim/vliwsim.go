// Package vliwsim executes emitted VLIW programs on a simulated machine:
// instruction words issue cycle by cycle, results write back after their
// operation's latency, and non-pipelined functional-unit occupancy is
// enforced. It stands in for the paper's (never-measured) hardware targets
// and doubles as the end-to-end semantic checker: a program must compute
// exactly what the sequential IR interpreter computes.
package vliwsim

import (
	"fmt"

	"ursa/internal/assign"
	"ursa/internal/ir"
	"ursa/internal/machine"
)

// Result reports one simulation.
type Result struct {
	Cycles int
	Issued int
	State  *ir.State
	// MaxBusy is the peak number of simultaneously busy units per FU class.
	MaxBusy map[machine.FUClass]int
	// Exit records how control left the program: "" for fall-through,
	// "ret" for a return, otherwise the taken branch's target label.
	// Instruction words after a taken branch are squashed (they never
	// issue), but operations already in flight complete.
	Exit string
	// SpillOps counts issued spill stores and reloads.
	SpillOps int
}

// Utilization returns issued-instructions per cycle.
func (r *Result) Utilization() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Issued) / float64(r.Cycles)
}

type pendingWrite struct {
	at  int
	reg ir.VReg
	val ir.Word
}

type pendingStore struct {
	at   int
	addr ir.Addr
	val  ir.Word
}

// Run executes the program against a copy of the initial state and returns
// the final state. It fails if any cycle over-subscribes a functional-unit
// class (non-pipelined occupancy) — emitted code must never do that.
func Run(p *assign.Program, init *ir.State) (*Result, error) {
	m := p.Machine
	st := init.Clone()
	res := &Result{State: st, MaxBusy: map[machine.FUClass]int{}}

	var regWrites []pendingWrite
	var memWrites []pendingStore
	// Units audit per (class, cluster): clustered machines replicate their
	// classes per cluster, except the machine-wide XFER bus (cluster key 0).
	type unitKey struct {
		cl      machine.FUClass
		cluster uint8
	}
	busyUntil := map[unitKey][]int{} // per issued op: busy-until cycle
	regCluster := map[ir.VReg]uint8{}
	clustered := m.Clusters > 1
	totalCycles := len(p.Words)

	commit := func(cycle int) {
		for i := 0; i < len(regWrites); {
			if regWrites[i].at <= cycle {
				st.Regs[regWrites[i].reg] = regWrites[i].val
				regWrites = append(regWrites[:i], regWrites[i+1:]...)
			} else {
				i++
			}
		}
		for i := 0; i < len(memWrites); {
			if memWrites[i].at <= cycle {
				st.Mem[memWrites[i].addr] = memWrites[i].val
				memWrites = append(memWrites[:i], memWrites[i+1:]...)
			} else {
				i++
			}
		}
	}

	taken := false
	for cycle := 0; cycle < totalCycles && !taken; cycle++ {
		commit(cycle)
		if m.IssueWidth > 0 && len(p.Words[cycle]) > m.IssueWidth {
			return nil, fmt.Errorf("vliwsim: cycle %d issues %d instructions, issue width is %d",
				cycle, len(p.Words[cycle]), m.IssueWidth)
		}
		for _, in := range p.Words[cycle] {
			cl := m.ClassFor(in.Kind())
			lat := m.LatencyOf(in.Op)
			key := unitKey{cl: cl}
			if clustered && cl != machine.XFER {
				key.cluster = in.Cluster
			}
			// Unit-occupancy check (whole latency unless pipelined).
			inUse := 0
			for _, until := range busyUntil[key] {
				if until > cycle {
					inUse++
				}
			}
			if inUse >= m.Units.Get(cl) {
				return nil, fmt.Errorf("vliwsim: cycle %d over-subscribes %s units (%d busy of %d)",
					cycle, cl, inUse, m.Units.Get(cl))
			}
			busyUntil[key] = append(busyUntil[key], cycle+m.OccupancyOf(in.Op))
			if inUse+1 > res.MaxBusy[cl] {
				res.MaxBusy[cl] = inUse + 1
			}
			if clustered {
				if err := auditCluster(p, in, regCluster, cycle); err != nil {
					return nil, err
				}
			}

			// Execute: reads see the committed state of this cycle; the
			// result lands after the latency.
			switch {
			case in.IsBranch():
				switch in.Op {
				case ir.Br:
					res.Exit = in.Sym
					taken = true
				case ir.BrTrue:
					if st.Regs[in.Args[0]].Int() != 0 {
						res.Exit = in.Sym
						taken = true
					}
				case ir.BrFalse:
					if st.Regs[in.Args[0]].Int() == 0 {
						res.Exit = in.Sym
						taken = true
					}
				case ir.Ret:
					res.Exit = "ret"
					taken = true
				}
			case in.Dst != ir.NoReg:
				// Compute into a scratch state to delay the writeback.
				scratch := &ir.State{Regs: map[ir.VReg]ir.Word{}, Mem: st.Mem}
				for k, v := range st.Regs {
					scratch.Regs[k] = v
				}
				scratch.Exec(p.Func, in)
				regWrites = append(regWrites, pendingWrite{cycle + lat, in.Dst, scratch.Regs[in.Dst]})
			case in.IsStore():
				addr := effAddr(st, in)
				memWrites = append(memWrites, pendingStore{cycle + lat, addr, st.Regs[in.Args[0]]})
			}
			res.Issued++
			if in.Op == ir.SpillStore || in.Op == ir.SpillLoad {
				res.SpillOps++
			}
			if cycle+lat > res.Cycles {
				res.Cycles = cycle + lat
			}
		}
	}
	commit(res.Cycles)
	if res.Cycles < totalCycles {
		res.Cycles = totalCycles
	}
	return res, nil
}

func effAddr(st *ir.State, in *ir.Instr) ir.Addr {
	off := in.Off
	if in.Index != ir.NoReg {
		off += st.Regs[in.Index].Int()
	}
	return ir.Addr{Sym: in.Sym, Off: off}
}

// Verify runs the program and checks it against the sequential
// interpretation of the original block: every non-spill memory cell must
// match, and every live-out virtual register must match its assigned
// physical register. It returns the simulation result for stats.
func Verify(p *assign.Program, orig *ir.Block, init *ir.State) (*Result, error) {
	ref := init.Clone()
	for _, in := range orig.Instrs {
		if in.IsBranch() {
			break
		}
		ref.Exec(orig.Func, in)
	}
	res, err := Run(p, init)
	if err != nil {
		return nil, err
	}
	if d := ir.MemDiff(ref, res.State); d != nil {
		if _, ok := ref.Mem[d.Addr]; !ok {
			return nil, fmt.Errorf("vliwsim: unexpected write to %s[%d] = %d",
				d.Addr.Sym, d.Addr.Off, d.Got.Int())
		}
		return nil, fmt.Errorf("vliwsim: %w", d)
	}
	for v, phys := range p.OutMap {
		if got, want := res.State.Regs[phys], ref.Regs[v]; got != want {
			return nil, fmt.Errorf("vliwsim: live-out %s (in %s) = %d, want %d",
				orig.Func.NameOf(v), p.Func.NameOf(phys), got.Int(), want.Int())
		}
	}
	return res, nil
}
