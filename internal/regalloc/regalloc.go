// Package regalloc implements the classic phase-ordered baseline URSA
// argues against (§1): Chaitin-style graph-coloring register allocation
// performed on the sequential code before scheduling. Reusing registers
// introduces anti and output dependences that later restrict the scheduler;
// running this allocator first and the list scheduler second forms the
// "postpass scheduling" pipeline of the evaluation.
package regalloc

import (
	"errors"
	"fmt"
	"sort"

	"ursa/internal/ir"
	"ursa/internal/machine"
)

// ErrTooFewRegs reports structural infeasibility: some point of the block
// needs more simultaneously register-resident values of one class than the
// machine provides (for straight-line code, typically more live-out values
// than registers), so no amount of spilling can make it colorable.
var ErrTooFewRegs = errors.New("regalloc: too few registers")

// Result reports one coloring run.
type Result struct {
	// Block is the rewritten block over physical registers (register names
	// r0..rk / f0..fk in a fresh function).
	Block *ir.Block
	// OutMap maps the original live-out virtual registers to physical
	// registers.
	OutMap map[ir.VReg]ir.VReg
	// Spills counts spill stores inserted to make the code colorable.
	Spills int
	// RegsUsed counts distinct physical registers per class.
	RegsUsed [ir.NumClasses]int
}

// Color allocates the block's virtual registers to at most m.Regs[c]
// physical registers per class by interference-graph coloring
// (simplify/select) with iterative spilling. liveOut lists registers whose
// final values must survive the block.
func Color(b *ir.Block, m *machine.Config, liveOut map[ir.VReg]bool) (*Result, error) {
	f := b.Func
	// Work on a copy of the instruction list; spill iterations rewrite it.
	work := make([]*ir.Instr, len(b.Instrs))
	for i, in := range b.Instrs {
		work[i] = in.Clone()
	}
	// Track current holder of each original live-out value.
	outName := map[ir.VReg]ir.VReg{}
	for v := range liveOut {
		outName[v] = v
	}

	spills := 0
	// Spill temporaries and already-spilled values have minimal live ranges:
	// re-spilling them cannot lower pressure (it only ping-pongs reloads), so
	// they are excluded from victim selection, which also bounds the rounds.
	avoid := map[ir.VReg]bool{}
	// Round bound over the ORIGINAL size: work grows as spill code is
	// inserted, so the bound must not chase it. Each round spills one
	// not-yet-spilled value, so a colorable block converges well within 2n
	// rounds; the bound only backstops a select-phase failure loop.
	maxRounds := 2*len(work) + 8
	for round := 0; ; round++ {
		if round > maxRounds {
			return nil, fmt.Errorf("%w: coloring did not converge after %d spill rounds", ErrTooFewRegs, round)
		}
		colors, spillVictim := tryColor(f, work, m, outName, avoid)
		if colors != nil {
			return rewrite(f, work, m, colors, outName, spills)
		}
		if spillVictim == ir.NoReg {
			// Blocked with only unspillable values left. Live intervals form
			// a chordal graph, so simplify blocks only when some point keeps
			// more minimal-range values live than the file holds — spilling
			// cannot fix that.
			return nil, fmt.Errorf("%w: a program point needs more live values than the register file holds", ErrTooFewRegs)
		}
		// Spill the victim everywhere: store after its defs, reload with a
		// fresh name before each use.
		work, outName = spillEverywhere(f, work, spillVictim, outName, avoid)
		avoid[spillVictim] = true
		spills++
	}
}

// liveIntervals computes, per register, the interval (defIdx, lastUseIdx]
// over the instruction indices; live-ins start at 0, live-outs extend to
// len(instrs). The half-open start encodes read-before-write register
// sharing: a value dying at an instruction does not interfere with the
// value that instruction defines.
type interval struct {
	reg        ir.VReg
	start, end int
}

func liveIntervals(instrs []*ir.Instr, heldOut map[ir.VReg]bool) []interval {
	def := map[ir.VReg]int{}
	last := map[ir.VReg]int{}
	var order []ir.VReg
	seen := map[ir.VReg]bool{}
	note := func(v ir.VReg) {
		if !seen[v] {
			seen[v] = true
			order = append(order, v)
		}
	}
	for i, in := range instrs {
		for _, u := range in.Uses() {
			note(u)
			last[u] = i
			if _, ok := def[u]; !ok {
				def[u] = -1 // live-in
			}
		}
		if in.Dst != ir.NoReg {
			note(in.Dst)
			if _, ok := def[in.Dst]; !ok {
				def[in.Dst] = i
				if _, used := last[in.Dst]; !used {
					last[in.Dst] = i
				}
			} else {
				// Redefinition (non-SSA input): extend conservatively.
				if i > last[in.Dst] {
					last[in.Dst] = i
				}
			}
		}
	}
	ivs := make([]interval, 0, len(order))
	for _, v := range order {
		end := last[v]
		if heldOut[v] {
			end = len(instrs)
		}
		ivs = append(ivs, interval{v, def[v], end})
	}
	return ivs
}

// tryColor builds the interference graph and runs simplify/select. On
// success colors is non-nil and maps every register to a color index within
// its class. On failure colors is nil and the chosen spill victim is
// returned: the longest interval among the highest-degree nodes, never one
// from avoid (re-spilling those cannot help). A nil colors with a NoReg
// victim means no spill can make the block colorable.
func tryColor(f *ir.Func, instrs []*ir.Instr, m *machine.Config, outName map[ir.VReg]ir.VReg, avoid map[ir.VReg]bool) (map[ir.VReg]int, ir.VReg) {
	heldOut := map[ir.VReg]bool{}
	for _, cur := range outName {
		heldOut[cur] = true
	}
	ivs := liveIntervals(instrs, heldOut)
	byReg := map[ir.VReg]interval{}
	for _, iv := range ivs {
		byReg[iv.reg] = iv
	}
	// Interference: intervals of the same class overlapping in (start, end].
	adj := map[ir.VReg]map[ir.VReg]bool{}
	addEdge := func(a, b ir.VReg) {
		if adj[a] == nil {
			adj[a] = map[ir.VReg]bool{}
		}
		if adj[b] == nil {
			adj[b] = map[ir.VReg]bool{}
		}
		adj[a][b] = true
		adj[b][a] = true
	}
	for i, a := range ivs {
		if adj[a.reg] == nil {
			adj[a.reg] = map[ir.VReg]bool{}
		}
		for _, b := range ivs[i+1:] {
			if f.ClassOf(a.reg) != f.ClassOf(b.reg) {
				continue
			}
			if a.start < b.end && b.start < a.end {
				addEdge(a.reg, b.reg)
			}
		}
	}

	// Simplify: repeatedly remove a node with degree < K of its class.
	removed := map[ir.VReg]bool{}
	var stack []ir.VReg
	degree := func(v ir.VReg) int {
		d := 0
		for n := range adj[v] {
			if !removed[n] {
				d++
			}
		}
		return d
	}
	regs := make([]ir.VReg, 0, len(adj))
	for v := range adj {
		regs = append(regs, v)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
	for len(stack) < len(regs) {
		progress := false
		for _, v := range regs {
			if removed[v] {
				continue
			}
			if degree(v) < m.Regs[f.ClassOf(v)] {
				removed[v] = true
				stack = append(stack, v)
				progress = true
			}
		}
		if !progress {
			// Blocked: choose the spill victim by score. Ranges spanning
			// more than one instruction — the ones spilling actually
			// shortens — come first. Live-out holders are legitimate
			// victims: spillEverywhere reloads them at the block end,
			// collapsing a block-long range to one instruction.
			var victim ir.VReg
			best := -1
			for _, v := range regs {
				if removed[v] || avoid[v] {
					continue
				}
				iv := byReg[v]
				length := iv.end - iv.start
				score := degree(v)*1000 + length
				if length > 1 {
					score += 1 << 24
				}
				if score > best {
					best, victim = score, v
				}
			}
			return nil, victim
		}
	}

	// Select: pop in reverse, assigning the lowest color unused by
	// colored neighbours.
	colors := map[ir.VReg]int{}
	for i := len(stack) - 1; i >= 0; i-- {
		v := stack[i]
		used := map[int]bool{}
		for n := range adj[v] {
			if c, ok := colors[n]; ok {
				used[c] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		if c >= m.Regs[f.ClassOf(v)] {
			return nil, v // optimistic select failed
		}
		colors[v] = c
	}
	return colors, ir.NoReg
}

// spillEverywhere rewrites the sequence spilling v: a store follows each
// definition, and every use reads a freshly reloaded copy. The fresh reload
// names are recorded in temps — their ranges are minimal by construction,
// so they must never be chosen as spill victims themselves.
func spillEverywhere(f *ir.Func, instrs []*ir.Instr, v ir.VReg, outName map[ir.VReg]ir.VReg, temps map[ir.VReg]bool) ([]*ir.Instr, map[ir.VReg]ir.VReg) {
	slot := ir.SpillSlot("c", f.NameOf(v))
	var out []*ir.Instr
	reloads := 0
	for _, in := range instrs {
		needs := false
		for _, u := range in.Uses() {
			if u == v {
				needs = true
			}
		}
		if needs {
			nv := f.NewReg(f.NameOf(v)+".c", f.ClassOf(v))
			temps[nv] = true
			out = append(out, &ir.Instr{Op: ir.SpillLoad, Dst: nv, Sym: slot})
			reloads++
			c := in.Clone()
			for i, a := range c.Args {
				if a == v {
					c.Args[i] = nv
				}
			}
			if c.Index == v {
				c.Index = nv
			}
			out = append(out, c)
		} else {
			out = append(out, in)
		}
		if in.Dst == v {
			out = append(out, &ir.Instr{Op: ir.SpillStore, Args: []ir.VReg{v}, Sym: slot})
		}
	}
	// If v held a live-out value, reload it at the very end under a fresh
	// name so it finishes in a register. The reload must still precede a
	// terminating branch, which stays last.
	var trailing *ir.Instr
	if len(out) > 0 && out[len(out)-1].IsBranch() {
		trailing = out[len(out)-1]
		out = out[:len(out)-1]
	}
	for orig, cur := range outName {
		if cur == v {
			nv := f.NewReg(f.NameOf(v)+".c", f.ClassOf(v))
			temps[nv] = true
			out = append(out, &ir.Instr{Op: ir.SpillLoad, Dst: nv, Sym: slot})
			outName[orig] = nv
		}
	}
	if trailing != nil {
		out = append(out, trailing)
	}
	return out, outName
}

// rewrite renames every register to its colored physical register in a
// fresh function and packages the result.
func rewrite(f *ir.Func, instrs []*ir.Instr, m *machine.Config, colors map[ir.VReg]int, outName map[ir.VReg]ir.VReg, spills int) (*Result, error) {
	pf := ir.NewFunc(f.Name + ".ra")
	phys := [ir.NumClasses][]ir.VReg{}
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		prefix := "r"
		if c == ir.ClassFP {
			prefix = "f"
		}
		for i := 0; i < m.Regs[c]; i++ {
			phys[c] = append(phys[c], pf.NewReg(fmt.Sprintf("%s%d", prefix, i), c))
		}
	}
	res := &Result{OutMap: map[ir.VReg]ir.VReg{}, Spills: spills}
	usedColors := [ir.NumClasses]map[int]bool{}
	for c := range usedColors {
		usedColors[c] = map[int]bool{}
	}
	mapReg := func(v ir.VReg) (ir.VReg, error) {
		c, ok := colors[v]
		if !ok {
			return ir.NoReg, fmt.Errorf("regalloc: %s has no color", f.NameOf(v))
		}
		cls := f.ClassOf(v)
		usedColors[cls][c] = true
		return phys[cls][c], nil
	}
	nb := pf.NewBlock("entry")
	for _, in := range instrs {
		c := in.Clone()
		var err error
		for i, a := range c.Args {
			if c.Args[i], err = mapReg(a); err != nil {
				return nil, err
			}
		}
		if c.Index != ir.NoReg {
			if c.Index, err = mapReg(c.Index); err != nil {
				return nil, err
			}
		}
		if c.Dst != ir.NoReg {
			if c.Dst, err = mapReg(c.Dst); err != nil {
				return nil, err
			}
		}
		nb.Append(c)
	}
	for orig, cur := range outName {
		p, err := mapReg(cur)
		if err != nil {
			return nil, err
		}
		res.OutMap[orig] = p
	}
	for c := range usedColors {
		res.RegsUsed[c] = len(usedColors[c])
	}
	res.Block = nb
	return res, nil
}
