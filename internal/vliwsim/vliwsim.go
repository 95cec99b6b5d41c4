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
	// MaxBusy is the peak number of simultaneously busy units per FU class
	// (on one cluster, for the replicated classes of a clustered machine).
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

// A pendingWrite is a result in flight: a register write, or a store when
// reg is NoReg.
type pendingWrite struct {
	at   int
	reg  ir.VReg
	addr ir.Addr
	val  ir.Word
}

// unitKey names one pool of functional units: clustered machines replicate
// their classes per cluster, except the machine-wide XFER bus (cluster 0).
type unitKey struct {
	cl      machine.FUClass
	cluster uint8
}

// sim is the execution core both machine models share: the simulated
// state, the writes still in flight, unit occupancy and the running
// result. The models differ only in which instruction they issue when.
type sim struct {
	p         *assign.Program
	st        *ir.State
	res       *Result
	pending   []pendingWrite    // in issue order
	busyUntil map[unitKey][]int // per unit pool: the busy-until cycle of each claim
}

func newSim(p *assign.Program, st *ir.State) *sim {
	return &sim{p: p, st: st, res: &Result{State: st, MaxBusy: map[machine.FUClass]int{}},
		busyUntil: map[unitKey][]int{}}
}

// commit lands every pending write due by cycle, in issue order.
func (s *sim) commit(cycle int) {
	live := s.pending[:0]
	for _, w := range s.pending {
		switch {
		case w.at > cycle:
			live = append(live, w)
		case w.reg != ir.NoReg:
			s.st.Regs[w.reg] = w.val
		default:
			s.st.Mem[w.addr] = w.val
		}
	}
	s.pending = live
}

// unit returns the pool of units in issues on.
func (s *sim) unit(in *ir.Instr) unitKey {
	m := s.p.Machine
	k := unitKey{cl: m.ClassFor(in.Kind())}
	if m.Clusters > 1 && k.cl != machine.XFER {
		k.cluster = in.Cluster
	}
	return k
}

// busy returns how many units of in's pool are occupied at cycle. Cycles
// never go back, so claims that have expired are dropped.
func (s *sim) busy(in *ir.Instr, cycle int) int {
	k := s.unit(in)
	live := s.busyUntil[k][:0]
	for _, until := range s.busyUntil[k] {
		if until > cycle {
			live = append(live, until)
		}
	}
	s.busyUntil[k] = live
	return len(live)
}

// issue executes in at cycle on a unit of its pool, which the caller has
// found free (see busy). Reads see the committed state of this cycle;
// register and memory results land after the operation's latency. It
// reports whether in is a taken branch.
func (s *sim) issue(in *ir.Instr, cycle int) (taken bool) {
	m, st, res := s.p.Machine, s.st, s.res
	k := s.unit(in)
	s.busyUntil[k] = append(s.busyUntil[k], cycle+m.OccupancyOf(in.Op))
	res.MaxBusy[k.cl] = max(res.MaxBusy[k.cl], len(s.busyUntil[k]))
	at := cycle + m.LatencyOf(in.Op)
	switch {
	case in.IsBranch():
		if taken = st.Taken(in); taken {
			res.Exit = in.Sym
			if in.Op == ir.Ret {
				res.Exit = "ret"
			}
		}
	case in.Dst != ir.NoReg:
		// Compute the result in place, then restore the destination: the
		// write is delayed by the latency.
		old, had := st.Regs[in.Dst]
		st.Exec(s.p.Func, in)
		s.pending = append(s.pending, pendingWrite{at: at, reg: in.Dst, val: st.Regs[in.Dst]})
		if had {
			st.Regs[in.Dst] = old
		} else {
			delete(st.Regs, in.Dst)
		}
	case in.IsStore():
		s.pending = append(s.pending,
			pendingWrite{at: at, reg: ir.NoReg, addr: st.EffAddr(in), val: st.Regs[in.Args[0]]})
	}
	res.Issued++
	if in.Op == ir.SpillStore || in.Op == ir.SpillLoad {
		res.SpillOps++
	}
	res.Cycles = max(res.Cycles, at)
	return taken
}

// finish drains the writes still in flight and returns the result, which
// lasts at least minCycles.
func (s *sim) finish(minCycles int) *Result {
	s.commit(s.res.Cycles)
	s.res.Cycles = max(s.res.Cycles, minCycles)
	return s.res
}

// Run executes the program on st, which it updates in place and returns
// as the result's State. It fails if any cycle exceeds the issue width or
// over-subscribes a functional-unit pool (non-pipelined occupancy), or, on
// a clustered machine, breaks cluster register ownership — emitted code
// must never do any of these.
func Run(p *assign.Program, st *ir.State) (*Result, error) {
	m := p.Machine
	s := newSim(p, st)
	var regCluster map[ir.VReg]uint8
	if m.Clusters > 1 {
		regCluster = map[ir.VReg]uint8{}
	}
	taken := false
	for cycle := 0; cycle < len(p.Words) && !taken; cycle++ {
		s.commit(cycle)
		if m.IssueWidth > 0 && len(p.Words[cycle]) > m.IssueWidth {
			return nil, fmt.Errorf("vliwsim: cycle %d issues %d instructions, issue width is %d",
				cycle, len(p.Words[cycle]), m.IssueWidth)
		}
		// Instruction words after a taken branch are squashed; the rest of
		// the branch's own word still issues.
		for _, in := range p.Words[cycle] {
			cl := m.ClassFor(in.Kind())
			if inUse := s.busy(in, cycle); inUse >= m.Units.Get(cl) {
				return nil, fmt.Errorf("vliwsim: cycle %d over-subscribes %s units (%d busy of %d)",
					cycle, cl, inUse, m.Units.Get(cl))
			}
			if regCluster != nil {
				if err := auditCluster(p, in, regCluster, cycle); err != nil {
					return nil, err
				}
			}
			if s.issue(in, cycle) {
				taken = true
			}
		}
	}
	return s.finish(len(p.Words)), nil
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
	res, err := Run(p, init.Clone())
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
