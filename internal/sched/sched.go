// Package sched implements resource-constrained list scheduling of a
// dependence DAG onto a VLIW machine. It serves two roles: the final
// scheduler of URSA's assignment phase (the transformed DAG's worst-case
// requirements already fit, so the list scheduler merely linearizes), and
// the engine of the phase-ordered baselines the paper argues against (§1),
// including a register-pressure-sensitive variant in the spirit of Goodman
// and Hsu's DAG-driven allocation [GoH88].
package sched

import (
	"errors"
	"fmt"
	"sort"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/machine"
)

// Placement locates one DAG node in the schedule.
type Placement struct {
	Node  int
	Cycle int
	Class machine.FUClass
	// Unit is the unit index within the class, machine-wide: on clustered
	// machines cluster k owns indices [k·U, (k+1)·U) of every class except
	// the shared XFER bus.
	Unit int
}

// ErrBuffer reports a buffered exposed-datapath deadlock: every ready
// instruction needs an output-buffer slot and every slot is held by a value
// whose last reader is not yet ready. This is the expected failure mode of
// buffer-blind schedule orders (URSA's buf resources reduce the worst-case
// buffer width below capacity first, so its schedules never see it).
var ErrBuffer = errors.New("sched: output buffers deadlocked")

// Schedule is a cycle-by-cycle assignment of DAG nodes to functional units.
type Schedule struct {
	Graph   *dag.Graph
	Machine *machine.Config
	// Cycles is the makespan: the cycle after the last completion.
	Cycles int
	// Placements is ordered by (cycle, class, unit).
	Placements []Placement
	placeOf    map[int]int // node -> index into Placements
}

// PlacementOf returns the placement of a node, or nil for pseudo nodes.
func (s *Schedule) PlacementOf(node int) *Placement {
	if i, ok := s.placeOf[node]; ok {
		return &s.Placements[i]
	}
	return nil
}

// Options tunes the list scheduler.
type Options struct {
	// Priority overrides the default critical-path (height) priority;
	// higher values schedule earlier.
	Priority []int
	// RegLimit, when positive, makes the scheduler register-sensitive for
	// the given class in the [GoH88] style: when the number of live values
	// reaches the limit, only instructions that free a register (last
	// uses) stay eligible; if none is ready the scheduler stalls rather
	// than exceed the limit, and if no such instruction exists at all it
	// gives up the restriction for one pick (no spill mechanism).
	RegLimit int
	RegClass ir.Class
}

// List schedules the DAG onto the machine with greedy list scheduling and
// returns the schedule. By default units are not pipelined — a unit
// executing an instruction of latency L is busy for L cycles — unless the
// machine sets Pipelined, in which case a unit accepts a new instruction
// every cycle while results remain in flight.
func List(g *dag.Graph, m *machine.Config, opts Options) (*Schedule, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	prio := opts.Priority
	if prio == nil {
		prio = HeightPriority(g, m)
	}

	n := len(g.Nodes)
	indeg := make([]int, n)
	earliest := make([]int, n) // data-ready cycle
	for i := range indeg {
		indeg[i] = len(g.Preds(i))
	}

	// Pseudo nodes resolve immediately.
	ready := make([]int, 0, n)
	release := func(node int, at int) {
		for _, s := range g.Succs(node) {
			if at > earliest[s] {
				earliest[s] = at
			}
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if indeg[g.Root] != 0 {
		return nil, fmt.Errorf("sched: root has predecessors")
	}
	release(g.Root, 0)

	sched := &Schedule{Graph: g, Machine: m, placeOf: make(map[int]int)}
	scheduled := 0
	total := 0
	for _, nd := range g.Nodes {
		if !nd.IsPseudo() {
			total++
		}
	}

	// busyUntil[class][unit] = first free cycle, over machine-wide unit
	// indices (clusters replicate their class units side by side).
	busyUntil := make(map[machine.FUClass][]int)
	for _, cl := range m.FUClasses() {
		busyUntil[cl] = make([]int, m.TotalUnits(cl))
	}

	// Exposed-datapath buffer bookkeeping: each non-live-out value holds a
	// slot of its producer's class from issue until its last reader issues
	// (readers free at issue, so a producer may take the slot over in the
	// same cycle only after the reader has been picked).
	var bufLive []int
	var bufUses map[ir.VReg]int // readers not yet issued
	var bufClass map[ir.VReg]machine.FUClass
	if m.BufferDepth > 0 {
		bufLive = make([]int, machine.NumFUClasses)
		bufUses = make(map[ir.VReg]int)
		bufClass = make(map[ir.VReg]machine.FUClass)
		for _, nd := range g.Nodes {
			if nd.Instr == nil {
				continue
			}
			for _, u := range nd.Instr.Uses() {
				bufUses[u]++
			}
		}
	}

	// Register-sensitivity bookkeeping.
	usesLeft := make(map[ir.VReg]int)
	if opts.RegLimit > 0 {
		for _, nd := range g.Nodes {
			if nd.Instr == nil {
				continue
			}
			for _, u := range nd.Instr.Uses() {
				if g.Func.ClassOf(u) == opts.RegClass {
					usesLeft[u]++
				}
			}
		}
	}
	live := 0

	cycle := 0
	guard := 0
	for scheduled < total {
		if guard++; guard > 4*total+1000 {
			return nil, fmt.Errorf("sched: no progress at cycle %d (%d/%d scheduled)", cycle, scheduled, total)
		}
		// Collect issue candidates for this cycle.
		var cands []int
		for _, nd := range ready {
			if g.Nodes[nd].IsPseudo() {
				continue
			}
			if earliest[nd] <= cycle {
				cands = append(cands, nd)
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if prio[cands[i]] != prio[cands[j]] {
				return prio[cands[i]] > prio[cands[j]]
			}
			return cands[i] < cands[j]
		})

		issuedAny := false
		issuedThisCycle := 0
		for _, nd := range cands {
			if m.IssueWidth > 0 && issuedThisCycle >= m.IssueWidth {
				break // fetch bound reached; the rest wait for the next cycle
			}
			in := g.Nodes[nd].Instr
			cl := m.ClassFor(in.Kind())
			unit := freeUnitFor(busyUntil[cl], cycle, m, cl, in.Cluster)
			if unit < 0 {
				continue
			}
			if m.BufferDepth > 0 && in.Dst != ir.NoReg && !g.LiveOut[in.Dst] &&
				bufLive[cl] >= m.BufferCap(cl) {
				continue // producer's output buffers are full
			}
			if opts.RegLimit > 0 && g.Func.ClassOf(in.Dst) == opts.RegClass && in.Dst != ir.NoReg {
				delta := regDelta(g, in, opts.RegClass, usesLeft)
				if live+delta > opts.RegLimit && delta > 0 && anyFreeing(g, cands, opts, usesLeft) {
					continue // hold back: a register-freeing choice exists
				}
			}
			lat := m.LatencyOf(in.Op)
			busyUntil[cl][unit] = cycle + m.OccupancyOf(in.Op)
			sched.placeOf[nd] = len(sched.Placements)
			sched.Placements = append(sched.Placements, Placement{
				Node: nd, Cycle: cycle, Class: cl, Unit: unit,
			})
			scheduled++
			issuedAny = true
			issuedThisCycle++
			if opts.RegLimit > 0 {
				live += applyRegDelta(g, in, opts.RegClass, usesLeft)
			}
			if m.BufferDepth > 0 {
				seen := map[ir.VReg]bool{}
				for _, u := range in.Uses() {
					if seen[u] {
						continue
					}
					seen[u] = true
					if bufUses[u]--; bufUses[u] == 0 {
						if pcl, ok := bufClass[u]; ok {
							bufLive[pcl]--
						}
					}
				}
				if in.Dst != ir.NoReg && !g.LiveOut[in.Dst] {
					bufLive[cl]++
					bufClass[in.Dst] = cl
				}
			}
			removeReady(&ready, nd)
			release(nd, cycle+lat)
			if sched.Cycles < cycle+lat {
				sched.Cycles = cycle + lat
			}
		}
		if m.BufferDepth > 0 && !issuedAny && len(cands) > 0 {
			// Candidates exist but none issued. If no unit is still
			// executing and nothing becomes data-ready later, the state can
			// never change: every candidate waits on a buffer slot held by
			// a value whose last reader is itself blocked.
			stuck := true
			for _, busy := range busyUntil {
				for _, until := range busy {
					if until > cycle {
						stuck = false
					}
				}
			}
			for _, nd := range ready {
				if earliest[nd] > cycle {
					stuck = false
				}
			}
			if stuck {
				return nil, fmt.Errorf("%w at cycle %d (%d/%d scheduled)", ErrBuffer, cycle, scheduled, total)
			}
		}
		// Pseudo nodes (root handled above; leaf and any others) release
		// as soon as their predecessors are done.
		for i := 0; i < len(ready); i++ {
			nd := ready[i]
			if g.Nodes[nd].IsPseudo() && earliest[nd] <= cycle+1 {
				removeReady(&ready, nd)
				release(nd, earliest[nd])
				i = -1 // rescan: releases may ready more pseudo nodes
			}
		}
		_ = issuedAny
		cycle++
	}
	sort.Slice(sched.Placements, func(i, j int) bool {
		a, b := sched.Placements[i], sched.Placements[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Unit < b.Unit
	})
	for i, p := range sched.Placements {
		sched.placeOf[p.Node] = i
	}
	return sched, nil
}

// FromPlacements builds a Schedule from explicit placements computed
// outside the list scheduler (e.g. by the exact solver): it orders them
// canonically by (cycle, class, unit), indexes them, and derives the
// makespan from issue cycles and latencies. The caller is responsible
// for legality; Validate checks it.
func FromPlacements(g *dag.Graph, m *machine.Config, ps []Placement) *Schedule {
	s := &Schedule{Graph: g, Machine: m, Placements: ps, placeOf: make(map[int]int)}
	sort.Slice(s.Placements, func(i, j int) bool {
		a, b := s.Placements[i], s.Placements[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Unit < b.Unit
	})
	for i, p := range s.Placements {
		s.placeOf[p.Node] = i
		if end := p.Cycle + m.LatencyOf(g.Nodes[p.Node].Instr.Op); end > s.Cycles {
			s.Cycles = end
		}
	}
	return s
}

func freeUnit(busy []int, cycle int) int {
	for u, until := range busy {
		if until <= cycle {
			return u
		}
	}
	return -1
}

// freeUnitFor finds a free unit the instruction may legally use: on
// clustered machines a non-XFER instruction only sees its own cluster's
// slice of the class; the XFER bus (and every class on unclustered
// machines) is searched whole.
func freeUnitFor(busy []int, cycle int, m *machine.Config, cl machine.FUClass, cluster uint8) int {
	if m.Clusters > 1 && cl != machine.XFER {
		per := m.Units.Get(cl)
		lo := int(cluster) * per
		hi := lo + per
		if hi > len(busy) {
			return -1
		}
		for u := lo; u < hi; u++ {
			if busy[u] <= cycle {
				return u
			}
		}
		return -1
	}
	return freeUnit(busy, cycle)
}

func removeReady(ready *[]int, node int) {
	for i, v := range *ready {
		if v == node {
			*ready = append((*ready)[:i], (*ready)[i+1:]...)
			return
		}
	}
}

// regDelta returns the net change in live values of the class if in issues:
// +1 for a new def, -1 per operand whose last remaining use this is.
func regDelta(g *dag.Graph, in *ir.Instr, c ir.Class, usesLeft map[ir.VReg]int) int {
	d := 0
	if in.Dst != ir.NoReg && g.Func.ClassOf(in.Dst) == c {
		d++
	}
	seen := map[ir.VReg]bool{}
	for _, u := range in.Uses() {
		if g.Func.ClassOf(u) == c && !seen[u] && usesLeft[u] == 1 {
			d--
		}
		seen[u] = true
	}
	return d
}

func applyRegDelta(g *dag.Graph, in *ir.Instr, c ir.Class, usesLeft map[ir.VReg]int) int {
	d := 0
	if in.Dst != ir.NoReg && g.Func.ClassOf(in.Dst) == c {
		d++
	}
	seen := map[ir.VReg]bool{}
	for _, u := range in.Uses() {
		if seen[u] {
			continue
		}
		seen[u] = true
		if g.Func.ClassOf(u) == c {
			usesLeft[u]--
			if usesLeft[u] == 0 {
				d--
			}
		}
	}
	return d
}

func anyFreeing(g *dag.Graph, cands []int, opts Options, usesLeft map[ir.VReg]int) bool {
	for _, nd := range cands {
		in := g.Nodes[nd].Instr
		if regDelta(g, in, opts.RegClass, usesLeft) <= 0 {
			return true
		}
	}
	return false
}

// HeightPriority returns the classic critical-path priority: each node's
// longest latency-weighted distance to the leaf.
func HeightPriority(g *dag.Graph, m *machine.Config) []int {
	topo := g.TopoOrder()
	h := make([]int, len(g.Nodes))
	for i := len(topo) - 1; i >= 0; i-- {
		nd := topo[i]
		for _, s := range g.Succs(nd) {
			lat := 0
			if g.Nodes[s].Instr != nil {
				lat = m.LatencyOf(g.Nodes[s].Instr.Op)
			}
			if h[s]+lat > h[nd] {
				h[nd] = h[s] + lat
			}
		}
	}
	return h
}

// Validate checks that the schedule respects dependences (consumers issue
// no earlier than producer completion) and per-cycle unit limits.
func (s *Schedule) Validate() error {
	g, m := s.Graph, s.Machine
	for _, p := range s.Placements {
		lat := m.LatencyOf(g.Nodes[p.Node].Instr.Op)
		for _, succ := range g.Succs(p.Node) {
			sp := s.PlacementOf(succ)
			if sp == nil {
				continue
			}
			if sp.Cycle < p.Cycle+lat {
				return fmt.Errorf("sched: %s at %d starts before %s completes at %d",
					g.Nodes[succ].Name, sp.Cycle, g.Nodes[p.Node].Name, p.Cycle+lat)
			}
		}
	}
	// Unit occupancy (non-pipelined).
	type slot struct {
		cl   machine.FUClass
		unit int
	}
	busy := make(map[slot]int) // busy until
	for _, p := range s.Placements {
		k := slot{p.Class, p.Unit}
		if until, ok := busy[k]; ok && p.Cycle < until {
			return fmt.Errorf("sched: unit %v.%d double-booked at cycle %d", p.Class, p.Unit, p.Cycle)
		}
		busy[k] = p.Cycle + m.OccupancyOf(g.Nodes[p.Node].Instr.Op)
		if p.Unit >= m.TotalUnits(p.Class) {
			return fmt.Errorf("sched: unit index %d out of range for class %v", p.Unit, p.Class)
		}
		if m.Clusters > 1 && p.Class != machine.XFER {
			in := g.Nodes[p.Node].Instr
			per := m.Units.Get(p.Class)
			if per > 0 && p.Unit/per != int(in.Cluster) {
				return fmt.Errorf("sched: %s (cluster %d) placed on cluster %d's unit %v.%d",
					g.Nodes[p.Node].Name, in.Cluster, p.Unit/per, p.Class, p.Unit)
			}
		}
	}
	// Global issue width.
	if m.IssueWidth > 0 {
		perCycle := map[int]int{}
		for _, p := range s.Placements {
			perCycle[p.Cycle]++
			if perCycle[p.Cycle] > m.IssueWidth {
				return fmt.Errorf("sched: %d instructions issued at cycle %d exceed issue width %d",
					perCycle[p.Cycle], p.Cycle, m.IssueWidth)
			}
		}
	}
	return nil
}

// MaxIssueWidth returns the largest number of instructions issued in any
// single cycle.
func (s *Schedule) MaxIssueWidth() int {
	count := map[int]int{}
	max := 0
	for _, p := range s.Placements {
		count[p.Cycle]++
		if count[p.Cycle] > max {
			max = count[p.Cycle]
		}
	}
	return max
}

// Pressure returns the maximum number of registers of the class this
// schedule needs. A value occupies a register from the end of its defining
// cycle until the issue of its last consumer: reads happen at cycle start
// and writes at cycle end, so a result may take over the register of a
// value its own instruction killed (the same-cycle reuse the paper's
// CanReuse relation models with b = Kill(a)).
func (s *Schedule) Pressure(c ir.Class) int {
	g := s.Graph
	f := g.Func
	type iv struct{ start, end int }
	intervals := map[ir.VReg]iv{}
	for _, p := range s.Placements {
		in := g.Nodes[p.Node].Instr
		if in.Dst != ir.NoReg && f.ClassOf(in.Dst) == c {
			v := intervals[in.Dst]
			v.start = p.Cycle + 1
			v.end = p.Cycle + 1 // extended by uses below
			if g.LiveOut[in.Dst] {
				v.end = s.Cycles
			}
			intervals[in.Dst] = v
		}
	}
	for _, p := range s.Placements {
		in := g.Nodes[p.Node].Instr
		for _, u := range in.Uses() {
			if f.ClassOf(u) != c {
				continue
			}
			v, ok := intervals[u]
			if !ok { // live-in: occupied from cycle 0
				v = iv{0, p.Cycle}
			}
			if p.Cycle > v.end {
				v.end = p.Cycle
			}
			intervals[u] = v
		}
	}
	// Sweep.
	delta := map[int]int{}
	for _, v := range intervals {
		delta[v.start]++
		delta[v.end+1]--
	}
	cycles := make([]int, 0, len(delta))
	for cyc := range delta {
		cycles = append(cycles, cyc)
	}
	sort.Ints(cycles)
	cur, max := 0, 0
	for _, cyc := range cycles {
		cur += delta[cyc]
		if cur > max {
			max = cur
		}
	}
	return max
}
