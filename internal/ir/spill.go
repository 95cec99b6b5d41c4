package ir

import (
	"fmt"
	"strings"
)

// SpillSlot returns the memory symbol of a compiler-introduced spill slot
// holding the value named name. The tag names the phase that spilled it:
// "" for URSA's reduction spills (transform), "p" and "b" for the
// assignment phase's register and output-buffer patching (assign), "c" for
// graph-coloring spills (regalloc). The result is "spill<tag>.<name>"; the
// dot keeps the slot apart from every user symbol, since kernel-language
// identifiers cannot contain one.
func SpillSlot(tag, name string) string { return "spill" + tag + "." + name }

// IsSpillSlot reports whether sym has the shape SpillSlot produces. Spill
// slots are compiler scratch: verifiers compare and listings print every
// other memory cell, including user symbols that merely start with
// "spill".
func IsSpillSlot(sym string) bool {
	rest, ok := strings.CutPrefix(sym, "spill")
	if !ok {
		return false
	}
	if rest != "" && strings.IndexByte("pbc", rest[0]) >= 0 {
		rest = rest[1:]
	}
	return strings.HasPrefix(rest, ".")
}

// MemMismatch is one memory cell on which two states disagree.
type MemMismatch struct {
	Addr      Addr
	Want, Got Word
}

func (m *MemMismatch) Error() string {
	return fmt.Sprintf("mem %s[%d] = %d, want %d", m.Addr.Sym, m.Addr.Off, m.Got.Int(), m.Want.Int())
}

// MemDiff returns the first memory cell, in (Sym, Off) order, on which got
// disagrees with want, or nil when they agree. A cell absent from a state
// reads as zero, and spill slots (IsSpillSlot) are ignored: where a
// compiled program keeps its scratch is not part of its meaning.
func MemDiff(want, got *State) *MemMismatch {
	var d *MemMismatch
	note := func(a Addr, w, g Word) {
		if w == g || IsSpillSlot(a.Sym) {
			return
		}
		if d == nil || a.Sym < d.Addr.Sym || a.Sym == d.Addr.Sym && a.Off < d.Addr.Off {
			d = &MemMismatch{Addr: a, Want: w, Got: g}
		}
	}
	for a, w := range want.Mem {
		note(a, w, got.Mem[a])
	}
	for a, g := range got.Mem {
		note(a, want.Mem[a], g)
	}
	return d
}
