// Package ir defines the three-address intermediate representation consumed
// by the URSA allocator and its substrates.
//
// The unit of interest to URSA is straight-line code: a basic block or a
// trace of blocks. Instructions are in (per-trace) single-assignment form:
// every virtual register has exactly one defining instruction within the
// region under allocation, which is what lets the dependence DAG identify a
// value with its producer node. The rename pass (Rename) establishes this
// form for arbitrary input.
//
// Values are untyped 64-bit words; each virtual register carries a resource
// class (integer or floating point) that selects the register file and the
// functional-unit kind that operates on it.
package ir

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// VReg identifies a virtual register. The zero value means "no register".
type VReg int32

// NoReg is the absent-register sentinel.
const NoReg VReg = 0

// Class is a resource class: a register file and its associated
// functional-unit family. The paper (§5) notes URSA handles several classes
// by building one Reuse DAG per class; we model exactly that.
type Class uint8

// Register classes.
const (
	ClassInt Class = iota // integer register file
	ClassFP               // floating-point register file
	NumClasses
)

// String returns the conventional short name of the class.
func (c Class) String() string {
	switch c {
	case ClassInt:
		return "int"
	case ClassFP:
		return "fp"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Kind classifies an opcode by the family of functional unit that executes
// it. The machine model maps kinds onto concrete FU classes.
type Kind uint8

// Operation kinds.
const (
	KindNop    Kind = iota
	KindConst       // immediate materialization
	KindIArith      // integer ALU
	KindFArith      // floating-point ALU
	KindMem         // load/store unit
	KindBranch      // branch unit
	KindCopy        // inter-cluster copy (clustered targets' transfer bus)
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindNop:
		return "nop"
	case KindConst:
		return "const"
	case KindIArith:
		return "ialu"
	case KindFArith:
		return "falu"
	case KindMem:
		return "mem"
	case KindBranch:
		return "branch"
	case KindCopy:
		return "copy"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Instr is a single three-address instruction.
//
// Memory operations address memory as Sym[Index+Off]: a symbolic base (an
// array or spill slot name), an optional index register, and a constant
// offset. Branches name their target with Sym.
type Instr struct {
	ID   int    // position within the containing block (set by Block.Append)
	Op   Op     // operation
	Dst  VReg   // defined register, NoReg if none
	Args []VReg // register operands, in operand order
	Imm  int64  // integer immediate (Const, shift amounts via Args normally)
	FImm float64
	Sym  string // memory base symbol or branch target label
	Off  int64  // constant memory offset
	// Index is the optional index register for memory ops; NoReg if direct.
	Index VReg
	// Cluster is the executing cluster on clustered targets (compiler
	// internal: assigned by the clusterizer, always 0 for unclustered
	// machines; not part of the textual format).
	Cluster uint8
}

// Uses returns all registers read by the instruction, including the memory
// index register. The returned slice must not be mutated.
func (in *Instr) Uses() []VReg {
	if in.Index == NoReg {
		return in.Args
	}
	u := make([]VReg, 0, len(in.Args)+1)
	u = append(u, in.Args...)
	u = append(u, in.Index)
	return u
}

// IsMem reports whether the instruction touches memory.
func (in *Instr) IsMem() bool { return Info(in.Op).Kind == KindMem }

// IsStore reports whether the instruction writes memory.
func (in *Instr) IsStore() bool { return Info(in.Op).Store }

// IsLoad reports whether the instruction reads memory.
func (in *Instr) IsLoad() bool { return in.IsMem() && !in.IsStore() }

// IsBranch reports whether the instruction is a control transfer.
func (in *Instr) IsBranch() bool { return Info(in.Op).Kind == KindBranch }

// IsCopy reports whether the instruction is an inter-cluster copy.
func (in *Instr) IsCopy() bool { return in.Op == Copy }

// Kind returns the functional-unit kind of the instruction.
func (in *Instr) Kind() Kind { return Info(in.Op).Kind }

// Clone returns a deep copy of the instruction.
func (in *Instr) Clone() *Instr {
	c := *in
	c.Args = append([]VReg(nil), in.Args...)
	return &c
}

// Block is a labelled sequence of instructions, ending (optionally) with a
// branch. Blocks belong to a Func, which owns register metadata.
type Block struct {
	Label  string
	Instrs []*Instr
	Func   *Func
}

// Append adds an instruction to the block and assigns its ID.
func (b *Block) Append(in *Instr) *Instr {
	in.ID = len(b.Instrs)
	b.Instrs = append(b.Instrs, in)
	return in
}

// Renumber reassigns sequential IDs after instruction insertion or removal.
func (b *Block) Renumber() {
	for i, in := range b.Instrs {
		in.ID = i
	}
}

// Func is a function: a list of blocks plus the virtual-register metadata
// shared by all of them.
type Func struct {
	Name   string
	Blocks []*Block

	regClass []Class  // indexed by VReg (entry 0 unused)
	regName  []string // indexed by VReg
	byName   map[string]VReg
}

// NewFunc returns an empty function.
func NewFunc(name string) *Func {
	return &Func{
		Name:     name,
		regClass: make([]Class, 1),
		regName:  make([]string, 1),
		byName:   make(map[string]VReg),
	}
}

// NewBlock appends a new empty block with the given label.
func (f *Func) NewBlock(label string) *Block {
	b := &Block{Label: label, Func: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Block returns the block with the given label, or nil.
func (f *Func) Block(label string) *Block {
	for _, b := range f.Blocks {
		if b.Label == label {
			return b
		}
	}
	return nil
}

// NewReg allocates a fresh virtual register with the given name and class.
// If the name is already taken a unique suffix is appended.
func (f *Func) NewReg(name string, class Class) VReg {
	if name == "" {
		name = fmt.Sprintf("v%d", len(f.regName))
	}
	if _, dup := f.byName[name]; dup {
		base := name
		for i := 1; ; i++ {
			name = fmt.Sprintf("%s.%d", base, i)
			if _, dup := f.byName[name]; !dup {
				break
			}
		}
	}
	v := VReg(len(f.regName))
	f.regClass = append(f.regClass, class)
	f.regName = append(f.regName, name)
	f.byName[name] = v
	return v
}

// Reg returns the register with the given name, or NoReg.
func (f *Func) Reg(name string) VReg { return f.byName[name] }

// RegOrNew returns the register with the given name, allocating it with the
// given class if it does not exist yet.
func (f *Func) RegOrNew(name string, class Class) VReg {
	if v, ok := f.byName[name]; ok {
		return v
	}
	return f.NewReg(name, class)
}

// NumRegs returns the number of allocated virtual registers plus one (the
// valid VReg values are 1..NumRegs-1).
func (f *Func) NumRegs() int { return len(f.regName) }

// TruncateRegs discards every register with value >= n, rewinding the
// function's register metadata to an earlier NumRegs snapshot. The caller
// must guarantee no instruction still refers to a discarded register. The
// candidate evaluator uses this to undo the registers a tentative spill
// allocated on its scratch function, so one long-lived clone serves every
// spill candidate instead of re-cloning per candidate.
func (f *Func) TruncateRegs(n int) {
	if n < 1 || n >= len(f.regName) {
		return
	}
	for _, name := range f.regName[n:] {
		if v, ok := f.byName[name]; ok && int(v) >= n {
			delete(f.byName, name)
		}
	}
	f.regName = f.regName[:n]
	f.regClass = f.regClass[:n]
}

// ClassOf returns the class of a register.
func (f *Func) ClassOf(v VReg) Class {
	if v <= 0 || int(v) >= len(f.regClass) {
		return ClassInt
	}
	return f.regClass[v]
}

// NameOf returns the name of a register.
func (f *Func) NameOf(v VReg) string {
	if v <= 0 || int(v) >= len(f.regName) {
		return "_"
	}
	return f.regName[v]
}

// String renders the function in the textual IR format accepted by Parse.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s {\n", f.Name)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s:\n", b.Label)
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "\t%s\n", f.InstrString(in))
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// InstrString renders one instruction in textual form.
func (f *Func) InstrString(in *Instr) string {
	info := Info(in.Op)
	var sb strings.Builder
	if in.Dst != NoReg {
		fmt.Fprintf(&sb, "%s = ", f.NameOf(in.Dst))
	}
	sb.WriteString(info.Name)
	switch in.Op {
	case ConstI:
		fmt.Fprintf(&sb, " %d", in.Imm)
	case ConstF:
		fmt.Fprintf(&sb, " %g", in.FImm)
	case Load, LoadF, SpillLoad:
		sb.WriteString(" ")
		sb.WriteString(f.memString(in))
	case Store, StoreF, SpillStore:
		fmt.Fprintf(&sb, " %s, %s", f.memString(in), f.NameOf(in.Args[0]))
	case Br:
		fmt.Fprintf(&sb, " %s", in.Sym)
	case BrTrue, BrFalse:
		fmt.Fprintf(&sb, " %s, %s", f.NameOf(in.Args[0]), in.Sym)
	case Ret:
		if len(in.Args) > 0 {
			fmt.Fprintf(&sb, " %s", f.NameOf(in.Args[0]))
		}
	default:
		for i, a := range in.Args {
			if i > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, " %s", f.NameOf(a))
		}
		if info.ImmOperand {
			if info.DstClass == ClassFP {
				fmt.Fprintf(&sb, ", %g", in.FImm)
			} else {
				fmt.Fprintf(&sb, ", %d", in.Imm)
			}
		}
	}
	return sb.String()
}

func (f *Func) memString(in *Instr) string {
	switch {
	case in.Index != NoReg && in.Off != 0:
		return fmt.Sprintf("%s[%s+%d]", in.Sym, f.NameOf(in.Index), in.Off)
	case in.Index != NoReg:
		return fmt.Sprintf("%s[%s]", in.Sym, f.NameOf(in.Index))
	default:
		return fmt.Sprintf("%s[%d]", in.Sym, in.Off)
	}
}

// A RegTail is a copy of a function's registers numbered from some n on:
// their names and classes, in id order.
type RegTail struct {
	names   []string
	classes []Class
}

// RegsFrom copies the registers numbered n and above.
func (f *Func) RegsFrom(n int) RegTail {
	if n >= len(f.regName) {
		return RegTail{}
	}
	return RegTail{slices.Clone(f.regName[n:]), slices.Clone(f.regClass[n:])}
}

// SetRegsFrom discards every register numbered n and above, as
// TruncateRegs does, and appends t's registers in their place: restoring a
// RegsFrom(n) snapshot taken when the function had the same first n
// registers.
func (f *Func) SetRegsFrom(n int, t RegTail) {
	f.TruncateRegs(n)
	for i, name := range t.names {
		f.byName[name] = VReg(len(f.regName))
		f.regName = append(f.regName, name)
		f.regClass = append(f.regClass, t.classes[i])
	}
}

// CloneRegs copies the function's name and register tables but no blocks:
// enough for code that reads and allocates registers of a graph's
// instructions without touching the function body.
func (f *Func) CloneRegs() *Func {
	return &Func{
		Name:     f.Name,
		regClass: slices.Clone(f.regClass),
		regName:  slices.Clone(f.regName),
		byName:   maps.Clone(f.byName),
	}
}

// Clone deep-copies the function: blocks, instructions, and the register
// tables. Register ids remain identical, so analyses keyed by VReg carry
// over to the copy.
func (f *Func) Clone() *Func {
	c := f.CloneRegs()
	for _, b := range f.Blocks {
		nb := c.NewBlock(b.Label)
		for _, in := range b.Instrs {
			nb.Append(in.Clone())
		}
	}
	return c
}
