package assign

import (
	"fmt"
	"sort"

	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/sched"
)

// EmitWithSpills assigns registers to a schedule whose pressure exceeds the
// machine by inserting spill code into the linearized schedule and then
// re-packing the instructions in order. This is the fate of a prepass
// scheduler that ignored registers (§1): each spill store/load occupies a
// memory unit and usually stretches the schedule.
//
// Pipeline: linearize -> insert spills (virtual registers, pressure now
// bounded) -> assign physical registers over the linear order -> pack the
// physical-register sequence into VLIW words, honoring RAW/WAR/WAW on the
// physical registers so register reuse stays ordered even though packing
// may overlap independent instructions.
func EmitWithSpills(s *sched.Schedule, m *machine.Config) (*Program, error) {
	g := s.Graph
	f := g.Func

	var lin []*ir.Instr
	for _, p := range s.Placements {
		lin = append(lin, g.Nodes[p.Node].Instr)
	}

	patched, outRename, spills, err := insertSpills(f, lin, m, g.LiveOut)
	if err != nil {
		return nil, err
	}
	prog, physSeq, err := assignLinear(f, patched, m, g.LiveOut, outRename)
	if err != nil {
		return nil, err
	}
	prog.Words = packPhys(prog.Func, physSeq, m, false)
	prog.Spills = spills
	fillBlock(prog)
	return prog, nil
}

// insertSpills runs a linear-scan allocator over the instruction sequence,
// inserting SpillStore/SpillLoad instructions (still over virtual
// registers) so that at every point at most m.Regs[c] values of class c are
// register-resident. Reloads define fresh registers (live-range splitting),
// so the later linear assignment sees disjoint intervals. A definition may
// take the slot of an operand dying at the same instruction (reads happen
// before writes). Live-out values still sitting in spill slots at the end
// are reloaded; the returned rename map gives each live-out original's
// final register name. Also returns the spill-store count.
func insertSpills(f *ir.Func, lin []*ir.Instr, m *machine.Config, liveOut map[ir.VReg]bool) ([]*ir.Instr, map[ir.VReg]ir.VReg, int, error) {
	n := len(lin)
	lastUse := map[ir.VReg]int{} // by original register, over lin indices
	defCluster := map[ir.VReg]uint8{}
	for i, in := range lin {
		for _, u := range in.Uses() {
			lastUse[u] = i
		}
		if in.Dst != ir.NoReg {
			defCluster[in.Dst] = in.Cluster
		}
	}

	cur := map[ir.VReg]ir.VReg{}   // original -> current (post-reload) name
	resident := map[ir.VReg]bool{} // original names currently in registers
	spilled := map[ir.VReg]bool{}  // original names whose value lives in the slot
	stored := map[ir.VReg]bool{}   // slot already written (values are immutable)
	slot := func(v ir.VReg) string { return ir.SpillSlot("p", f.NameOf(v)) }
	curName := func(v ir.VReg) ir.VReg {
		if nv, ok := cur[v]; ok {
			return nv
		}
		return v
	}
	// Residency is per register file: on clustered machines each cluster's
	// file fills and spills independently.
	countClass := func(c ir.Class, cl uint8) int {
		k := 0
		for v := range resident {
			if f.ClassOf(v) == c && defCluster[v] == cl {
				k++
			}
		}
		return k
	}
	nextUseAfter := func(v ir.VReg, i int) int {
		for j := i; j < n; j++ {
			for _, u := range lin[j].Uses() {
				if u == v {
					return j
				}
			}
		}
		return n + 1
	}

	var out []*ir.Instr
	spills := 0
	evict := func(v ir.VReg) {
		if !stored[v] {
			out = append(out, &ir.Instr{
				Op: ir.SpillStore, Args: []ir.VReg{curName(v)}, Sym: slot(v),
				Cluster: defCluster[v],
			})
			stored[v] = true
			spills++
		}
		delete(resident, v)
		spilled[v] = true
	}
	ensure := func(c ir.Class, cl uint8, i int, pinned map[ir.VReg]bool) error {
		for countClass(c, cl) >= m.Regs[c] {
			victim, far := ir.NoReg, -1
			for v := range resident {
				if f.ClassOf(v) != c || defCluster[v] != cl || pinned[v] {
					continue
				}
				nu := nextUseAfter(v, i)
				if liveOut[v] && nu > n {
					nu = n // live-outs are used "at the end"
				}
				if nu > far || (nu == far && v < victim) {
					far, victim = nu, v
				}
			}
			if victim == ir.NoReg {
				return fmt.Errorf("assign: cannot spill: all %s registers pinned (machine too small)", c)
			}
			evict(victim)
		}
		return nil
	}

	for i, in := range lin {
		// All operands must be simultaneously resident to issue.
		pinned := map[ir.VReg]bool{}
		for _, u := range in.Uses() {
			pinned[u] = true
		}
		for _, u := range in.Uses() {
			switch {
			case spilled[u]:
				if err := ensure(f.ClassOf(u), defCluster[u], i, pinned); err != nil {
					return nil, nil, 0, err
				}
				nv := f.NewReg(f.NameOf(u)+".p", f.ClassOf(u))
				out = append(out, &ir.Instr{
					Op: ir.SpillLoad, Dst: nv, Sym: slot(u), Cluster: defCluster[u],
				})
				cur[u] = nv
				defCluster[nv] = defCluster[u]
				delete(spilled, u)
				resident[u] = true
			case !resident[u]:
				// Live-in: becomes resident on first touch.
				if err := ensure(f.ClassOf(u), defCluster[u], i, pinned); err != nil {
					return nil, nil, 0, err
				}
				resident[u] = true
			}
		}
		// Operands dying here free their slots before the write lands.
		for _, u := range in.Uses() {
			if lastUse[u] == i && !liveOut[u] {
				delete(resident, u)
			}
		}
		if in.Dst != ir.NoReg && !resident[in.Dst] {
			// Surviving operands of this instruction may themselves be
			// evicted (the store reads the register before the write
			// lands), so nothing is pinned here.
			if err := ensure(f.ClassOf(in.Dst), in.Cluster, i+1, nil); err != nil {
				return nil, nil, 0, err
			}
			resident[in.Dst] = true
		}
		patched := in.Clone()
		for k, a := range patched.Args {
			patched.Args[k] = curName(a)
		}
		if patched.Index != ir.NoReg {
			patched.Index = curName(patched.Index)
		}
		out = append(out, patched)
	}
	// Reload live-out values that ended up in spill slots, pinning
	// already-reloaded ones so they are not re-evicted. The reloads must
	// precede a terminating branch, which stays last.
	var trailingBranch *ir.Instr
	if len(out) > 0 && out[len(out)-1].IsBranch() {
		trailingBranch = out[len(out)-1]
		out = out[:len(out)-1]
	}
	outs := make([]ir.VReg, 0, len(liveOut))
	for v := range liveOut {
		outs = append(outs, v)
	}
	sortRegs(outs)
	pinned := map[ir.VReg]bool{}
	for _, v := range outs {
		pinned[v] = true
	}
	for _, v := range outs {
		if !spilled[v] {
			continue
		}
		if err := ensure(f.ClassOf(v), defCluster[v], n, pinned); err != nil {
			return nil, nil, 0, err
		}
		nv := f.NewReg(f.NameOf(v)+".p", f.ClassOf(v))
		out = append(out, &ir.Instr{
			Op: ir.SpillLoad, Dst: nv, Sym: slot(v), Cluster: defCluster[v],
		})
		cur[v] = nv
		defCluster[nv] = defCluster[v]
		delete(spilled, v)
		resident[v] = true
	}
	if trailingBranch != nil {
		out = append(out, trailingBranch)
	}
	outRename := map[ir.VReg]ir.VReg{}
	for _, v := range outs {
		outRename[v] = curName(v)
	}
	return out, outRename, spills, nil
}

func sortRegs(rs []ir.VReg) {
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
}

// assignLinear maps the virtual registers of an ordered sequence onto
// physical registers, freeing each register after its holder's last touch
// in sequence order. The returned sequence is over the fresh physical
// function; the later packing phase keeps reuse ordered via WAR/WAW edges.
func assignLinear(f *ir.Func, seq []*ir.Instr, m *machine.Config, liveOut map[ir.VReg]bool, outRename map[ir.VReg]ir.VReg) (*Program, []*ir.Instr, error) {
	// The registers held to the very end are the FINAL names of the
	// live-out values; originals that were spilled and reloaded under a
	// fresh name release their registers at the eviction store.
	held := map[ir.VReg]bool{}
	for _, fin := range outRename {
		held[fin] = true
	}
	ps := newPhysSpace(f.Name+".vliw", m)
	assignMap := map[ir.VReg]ir.VReg{}
	free := ps.freeLists()
	used := [ir.NumClasses]map[ir.VReg]bool{}
	for c := range used {
		used[c] = map[ir.VReg]bool{}
	}
	lastTouch := map[ir.VReg]int{}
	defCluster := map[ir.VReg]uint8{}
	for i, in := range seq {
		for _, u := range in.Uses() {
			lastTouch[u] = i
		}
		if in.Dst != ir.NoReg {
			if _, seen := lastTouch[in.Dst]; !seen {
				lastTouch[in.Dst] = i
			}
			defCluster[in.Dst] = in.Cluster
		}
	}
	alloc := func(v ir.VReg) error {
		if _, ok := assignMap[v]; ok {
			return nil
		}
		c, k := f.ClassOf(v), int(defCluster[v])
		if len(free[c][k]) == 0 {
			return &ErrPressure{Class: c, Value: f.NameOf(v)}
		}
		assignMap[v] = free[c][k][0]
		used[c][free[c][k][0]] = true
		free[c][k] = free[c][k][1:]
		return nil
	}

	prog := &Program{Func: ps.f, Machine: m, OutMap: map[ir.VReg]ir.VReg{}}
	var physSeq []*ir.Instr
	for i, in := range seq {
		for _, u := range in.Uses() {
			if err := alloc(u); err != nil {
				return nil, nil, err
			}
		}
		out := in.Clone()
		for k, a := range out.Args {
			out.Args[k] = assignMap[a]
		}
		if out.Index != ir.NoReg {
			out.Index = assignMap[out.Index]
		}
		release := func(v ir.VReg) {
			if lastTouch[v] == i && !held[v] {
				if p, ok := assignMap[v]; ok {
					c, k := f.ClassOf(v), int(defCluster[v])
					free[c][k] = append(free[c][k], p)
					delete(assignMap, v)
				}
			}
		}
		// Operands dying here free their registers before the result is
		// written: the definition may reuse a dying operand's register
		// (reads at cycle start, writes at cycle end).
		for _, u := range in.Uses() {
			release(u)
		}
		if in.Dst != ir.NoReg {
			if err := alloc(in.Dst); err != nil {
				return nil, nil, err
			}
			out.Dst = assignMap[in.Dst]
		}
		physSeq = append(physSeq, out)
		if in.Dst != ir.NoReg {
			release(in.Dst)
		}
	}
	for v := range liveOut {
		fin := v
		if r, ok := outRename[v]; ok {
			fin = r
		}
		if p, ok := assignMap[fin]; ok {
			prog.OutMap[v] = p
		}
	}
	for c := range used {
		prog.RegsUsed[c] = len(used[c])
	}
	return prog, physSeq, nil
}

// packPhys compacts an ordered physical-register sequence into VLIW words.
// Each instruction issues at the earliest cycle respecting RAW/WAW (wait
// for the writer to finish), WAR (write strictly after the last read),
// memory ordering per symbol, and unit availability. With seqOnly set the
// words carry at most one instruction each, in sequence order — packing
// then cannot reorder around the buffer-eviction pass's in-order
// occupancy guarantee.
func packPhys(pf *ir.Func, seq []*ir.Instr, m *machine.Config, seqOnly bool) [][]*ir.Instr {
	type ev struct {
		write int // cycle after the last write completes
		read  int // last cycle the location is read
	}
	regEv := map[ir.VReg]*ev{}
	memEv := map[string]*ev{}
	busy := map[machine.FUClass][]int{}
	for _, cl := range m.FUClasses() {
		busy[cl] = make([]int, m.TotalUnits(cl))
	}
	issuedAt := map[int]int{} // per-cycle issue count (global issue width)

	makespan := 0
	maxIssue := 0 // latest issue cycle so far; branches may not precede it
	floor := 0    // earliest issue cycle allowed after a branch
	cycles := make([]int, len(seq))
	for i, in := range seq {
		start := floor
		if seqOnly && i > 0 && cycles[i-1]+1 > start {
			start = cycles[i-1] + 1
		}
		if in.IsBranch() {
			// A taken branch squashes all later words, so every earlier
			// instruction must have issued by the branch's cycle, and
			// nothing may issue after it until the next block.
			if maxIssue > start {
				start = maxIssue
			}
		}
		raw := func(e *ev) {
			if e != nil && e.write > start {
				start = e.write
			}
		}
		war := func(e *ev) {
			if e == nil {
				return
			}
			if e.write > start {
				start = e.write // WAW
			}
			if e.read+1 > start {
				start = e.read + 1 // WAR
			}
		}
		for _, u := range in.Uses() {
			raw(regEv[u])
		}
		if in.Dst != ir.NoReg {
			war(regEv[in.Dst])
		}
		if in.IsMem() {
			if in.IsStore() {
				war(memEv[in.Sym])
			} else {
				raw(memEv[in.Sym])
			}
		}
		cl := m.ClassFor(in.Kind())
		lat := m.LatencyOf(in.Op)
		// Clustered instructions only see their own cluster's unit slice;
		// the XFER bus is machine-wide.
		lo, hi := 0, len(busy[cl])
		if m.Clusters > 1 && cl != machine.XFER {
			per := m.Units.Get(cl)
			lo = int(in.Cluster) * per
			hi = lo + per
		}
		cycle := start
		for {
			if m.IssueWidth > 0 && issuedAt[cycle] >= m.IssueWidth {
				cycle++
				continue
			}
			unit := -1
			for u := lo; u < hi; u++ {
				if busy[cl][u] <= cycle {
					unit = u
					break
				}
			}
			if unit >= 0 {
				busy[cl][unit] = cycle + m.OccupancyOf(in.Op)
				break
			}
			cycle++
		}
		issuedAt[cycle]++
		cycles[i] = cycle
		if cycle > maxIssue {
			maxIssue = cycle
		}
		if in.IsBranch() {
			floor = cycle + 1
		}
		if cycle+lat > makespan {
			makespan = cycle + lat
		}
		touchRead := func(evs map[ir.VReg]*ev, k ir.VReg) {
			if evs[k] == nil {
				evs[k] = &ev{}
			}
			if cycle > evs[k].read {
				evs[k].read = cycle
			}
		}
		for _, u := range in.Uses() {
			touchRead(regEv, u)
		}
		if in.Dst != ir.NoReg {
			if regEv[in.Dst] == nil {
				regEv[in.Dst] = &ev{}
			}
			regEv[in.Dst].write = cycle + lat
		}
		if in.IsMem() {
			if memEv[in.Sym] == nil {
				memEv[in.Sym] = &ev{}
			}
			if in.IsStore() {
				memEv[in.Sym].write = cycle + lat
			} else if cycle > memEv[in.Sym].read {
				memEv[in.Sym].read = cycle
			}
		}
	}

	words := make([][]*ir.Instr, makespan)
	for i, in := range seq {
		words[cycles[i]] = append(words[cycles[i]], in)
	}
	return words
}
