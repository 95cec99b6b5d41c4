package assign

import (
	"fmt"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/machine"
)

// EmitWithBufferSpills emits code for a buffered exposed-datapath machine
// whose worst-case output-buffer width exceeds the depth the machine
// provides, so the buffer-aware list scheduler deadlocked. It linearizes
// the DAG, evicts buffered values to memory spill slots so that in-order
// execution never holds more than Units×BufferDepth values of a class at
// once, bounds register pressure with the usual spill patching, and packs
// the result sequentially — one instruction per word, so the in-order
// buffer guarantee survives packing. This is the buffered analogue of the
// register-pressure fallback in EmitWithSpills: the schedule stretches,
// but code is always emitted.
func EmitWithBufferSpills(g *dag.Graph, m *machine.Config) (*Program, error) {
	f := g.Func
	// Lowest node id first among the ready: a deterministic order close to
	// the original program order.
	var lin []*ir.Instr
	for _, id := range g.TopoOrder() {
		if in := g.Nodes[id].Instr; in != nil {
			lin = append(lin, in)
		}
	}
	patched, bspills, err := insertBufferSpills(f, lin, m, g.LiveOut)
	if err != nil {
		return nil, err
	}
	seq, outRename, rspills, err := insertSpills(f, patched, m, g.LiveOut)
	if err != nil {
		return nil, err
	}
	prog, physSeq, err := assignLinear(f, seq, m, g.LiveOut, outRename)
	if err != nil {
		return nil, err
	}
	prog.Words = packPhys(prog.Func, physSeq, m, true)
	prog.Spills = bspills + rspills
	fillBlock(prog)
	return prog, nil
}

func distinctUses(in *ir.Instr) []ir.VReg {
	var out []ir.VReg
	for _, u := range in.Uses() {
		dup := false
		for _, v := range out {
			if v == u {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, u)
		}
	}
	return out
}

// insertBufferSpills rewrites a linear instruction sequence so that, when
// executed strictly in order, at most Units×BufferDepth non-live-out
// values of each producer class sit in output buffers at once — the same
// free-at-last-reader rule the scheduler and the static audit use. A
// value whose slot must turn over is evicted with a SpillStore (its final
// read, freeing the slot); later readers reload it under a fresh name
// that feeds exactly one instruction, so reloads hold their slot only for
// that instant. Returns the patched sequence and the eviction count.
func insertBufferSpills(f *ir.Func, lin []*ir.Instr, m *machine.Config, liveOut map[ir.VReg]bool) ([]*ir.Instr, int, error) {
	// Remaining reading instructions per original value (distinct per
	// instruction, matching the scheduler's per-issue decrement).
	rem := map[ir.VReg]int{}
	for _, in := range lin {
		for _, u := range distinctUses(in) {
			rem[u]++
		}
	}
	occ := make([]int, machine.NumFUClasses)
	buffered := map[ir.VReg]bool{}
	clsOf := map[ir.VReg]machine.FUClass{}
	evicted := map[ir.VReg]bool{}
	isReload := map[ir.VReg]bool{}
	slot := func(v ir.VReg) string { return ir.SpillSlot("b", f.NameOf(v)) }

	nextUse := func(v ir.VReg, i int) int {
		for j := i; j < len(lin); j++ {
			for _, u := range lin[j].Uses() {
				if u == v {
					return j
				}
			}
		}
		return len(lin) + 1
	}

	var out []*ir.Instr
	spills := 0
	evict := func(v ir.VReg) {
		out = append(out, &ir.Instr{Op: ir.SpillStore, Args: []ir.VReg{v}, Sym: slot(v)})
		spills++
		delete(buffered, v)
		evicted[v] = true
		occ[clsOf[v]]--
	}
	// pickVictim returns the unpinned buffered value of the class with the
	// farthest next use, or NoReg when every slot is pinned.
	pickVictim := func(cl machine.FUClass, i int, pinned map[ir.VReg]bool) ir.VReg {
		victim, far := ir.NoReg, -1
		for v := range buffered {
			if clsOf[v] != cl || pinned[v] {
				continue
			}
			nu := nextUse(v, i)
			if victim == ir.NoReg || nu > far || (nu == far && v < victim) {
				far, victim = nu, v
			}
		}
		return victim
	}
	// ensure frees slots of the class until occupancy (less the headroom
	// the current instruction's own last reads are about to release) drops
	// below capacity. Pinned values — the current instruction's operands —
	// are never victims.
	ensure := func(cl machine.FUClass, i, headroom int, pinned map[ir.VReg]bool) error {
		for occ[cl]-headroom >= m.BufferCap(cl) {
			victim := pickVictim(cl, i, pinned)
			if victim == ir.NoReg {
				return fmt.Errorf("assign: %s output buffers too small (capacity %d, all slots pinned)",
					cl, m.BufferCap(cl))
			}
			evict(victim)
		}
		return nil
	}

	replaceUse := func(in *ir.Instr, from, to ir.VReg) {
		for k, a := range in.Args {
			if a == from {
				in.Args[k] = to
			}
		}
		if in.Index == from {
			in.Index = to
		}
	}

	for i, in := range lin {
		cur := in.Clone()
		pinned := map[ir.VReg]bool{}
		for _, u := range cur.Uses() {
			pinned[u] = true
		}
		// Reload operands whose value was evicted. Each reload feeds only
		// this instruction, so its slot frees the moment cur issues.
		addReload := func(u ir.VReg) (ir.VReg, error) {
			nv := f.NewReg(f.NameOf(u)+".b", f.ClassOf(u))
			rl := &ir.Instr{Op: ir.SpillLoad, Dst: nv, Sym: slot(u)}
			rcl := m.ClassFor(rl.Kind())
			if err := ensure(rcl, i, 0, pinned); err != nil {
				return ir.NoReg, err
			}
			out = append(out, rl)
			buffered[nv] = true
			clsOf[nv] = rcl
			isReload[nv] = true
			occ[rcl]++
			pinned[nv] = true
			return nv, nil
		}
		for _, u := range distinctUses(in) {
			if !evicted[u] {
				continue
			}
			nv, err := addReload(u)
			if err != nil {
				return nil, 0, err
			}
			replaceUse(cur, u, nv)
		}

		d := cur.Dst
		dcl := m.ClassFor(cur.Kind())
		if d != ir.NoReg && !liveOut[d] {
			// Slots the current instruction's own last reads release are
			// available to its result (readers free before the write takes
			// a slot, exactly as the audit counts).
			headroom := func() int {
				h := 0
				for _, u := range distinctUses(cur) {
					if buffered[u] && clsOf[u] == dcl && (isReload[u] || rem[u] == 1) {
						h++
					}
				}
				return h
			}
			for occ[dcl]-headroom() >= m.BufferCap(dcl) {
				if victim := pickVictim(dcl, i+1, pinned); victim != ir.NoReg {
					evict(victim)
					continue
				}
				// Every slot of the class feeds this instruction. Reroute
				// one still-needed operand through memory: its store is its
				// final direct read, and the single-use reload frees here.
				op := ir.NoReg
				for _, u := range distinctUses(cur) {
					if buffered[u] && clsOf[u] == dcl && !isReload[u] && rem[u] > 1 &&
						(op == ir.NoReg || u < op) {
						op = u
					}
				}
				if op == ir.NoReg {
					return nil, 0, fmt.Errorf("assign: %s output buffers too small for %s", dcl, f.NameOf(d))
				}
				evict(op)
				nv, err := addReload(op)
				if err != nil {
					return nil, 0, err
				}
				replaceUse(cur, op, nv)
			}
		}

		// Issue: last reads free their slots, then the result takes one.
		for _, u := range distinctUses(cur) {
			if isReload[u] {
				delete(buffered, u)
				occ[clsOf[u]]--
				continue
			}
			if rem[u]--; rem[u] == 0 && buffered[u] {
				delete(buffered, u)
				occ[clsOf[u]]--
			}
		}
		out = append(out, cur)
		if d != ir.NoReg && !liveOut[d] {
			buffered[d] = true
			clsOf[d] = dcl
			occ[dcl]++
		}
	}
	return out, spills, nil
}
