package ir

// Rename rewrites a block into single-assignment form: every redefinition of
// a register is given a fresh name and subsequent uses are rewired to it.
// Registers used before any definition keep their original names (they are
// the block's live-ins). Rename returns the mapping from each original
// register to its final (last-definition) name so callers can recover
// live-out values.
func Rename(b *Block) map[VReg]VReg {
	f := b.Func
	cur := make(map[VReg]VReg) // original -> current name
	seen := make(map[VReg]bool)
	final := make(map[VReg]VReg)

	lookup := func(v VReg) VReg {
		if nv, ok := cur[v]; ok {
			return nv
		}
		return v
	}
	for _, in := range b.Instrs {
		for i, a := range in.Args {
			in.Args[i] = lookup(a)
		}
		if in.Index != NoReg {
			in.Index = lookup(in.Index)
		}
		if in.Dst != NoReg {
			orig := in.Dst
			if seen[orig] {
				nv := f.NewReg(f.NameOf(orig), f.ClassOf(orig))
				cur[orig] = nv
				in.Dst = nv
			} else {
				seen[orig] = true
				cur[orig] = orig
			}
			final[orig] = cur[orig]
		}
	}
	return final
}

// LiveIns returns the registers a block reads before defining, in first-use
// order: the values that must be present on entry.
func LiveIns(b *Block) []VReg {
	defined := make(map[VReg]bool)
	seen := make(map[VReg]bool)
	var ins []VReg
	for _, in := range b.Instrs {
		for _, u := range in.Uses() {
			if !defined[u] && !seen[u] {
				seen[u] = true
				ins = append(ins, u)
			}
		}
		if in.Dst != NoReg {
			defined[in.Dst] = true
		}
	}
	return ins
}

// LiveOuts returns the registers a block defines but never reads: the
// values that must survive its exit.
func LiveOuts(b *Block) map[VReg]bool {
	used := make(map[VReg]bool)
	for _, in := range b.Instrs {
		for _, u := range in.Uses() {
			used[u] = true
		}
	}
	outs := make(map[VReg]bool)
	for _, in := range b.Instrs {
		if in.Dst != NoReg && !used[in.Dst] {
			outs[in.Dst] = true
		}
	}
	return outs
}

// Defs returns the registers defined in the block, in definition order.
func Defs(b *Block) []VReg {
	var ds []VReg
	for _, in := range b.Instrs {
		if in.Dst != NoReg {
			ds = append(ds, in.Dst)
		}
	}
	return ds
}
