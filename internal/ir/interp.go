package ir

import (
	"fmt"
	"math"
)

// Word is a 64-bit machine word. Integer operations interpret it as int64;
// floating-point operations as an IEEE-754 double bit pattern.
type Word uint64

// IntWord builds a word from an integer value.
func IntWord(v int64) Word { return Word(v) }

// FloatWord builds a word from a float value.
func FloatWord(v float64) Word { return Word(math.Float64bits(v)) }

// Int returns the word as an integer.
func (w Word) Int() int64 { return int64(w) }

// Float returns the word as a float.
func (w Word) Float() float64 { return math.Float64frombits(uint64(w)) }

// Addr is a memory address: a symbolic base plus a word offset.
type Addr struct {
	Sym string
	Off int64
}

// State is an interpreter machine state: a virtual register file and a
// symbolic memory.
type State struct {
	Regs map[VReg]Word
	Mem  map[Addr]Word
}

// NewState returns an empty machine state.
func NewState() *State {
	return &State{Regs: make(map[VReg]Word), Mem: make(map[Addr]Word)}
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := NewState()
	for k, v := range s.Regs {
		c.Regs[k] = v
	}
	for k, v := range s.Mem {
		c.Mem[k] = v
	}
	return c
}

// SetInt stores an integer into a register.
func (s *State) SetInt(v VReg, x int64) { s.Regs[v] = IntWord(x) }

// StoreInt writes an integer memory cell.
func (s *State) StoreInt(sym string, off int64, x int64) { s.Mem[Addr{sym, off}] = IntWord(x) }

// StoreFloat writes a float memory cell.
func (s *State) StoreFloat(sym string, off int64, x float64) { s.Mem[Addr{sym, off}] = FloatWord(x) }

// ErrStepLimit is returned by Run when the step budget is exhausted.
var ErrStepLimit = fmt.Errorf("ir: interpreter step limit exceeded")

// Exec executes a single instruction against the state. Branches are not
// executed here; the caller handles control flow (see Run).
func (s *State) Exec(f *Func, in *Instr) {
	arg := func(i int) Word { return s.Regs[in.Args[i]] }
	switch in.Op {
	case Nop, Br, BrTrue, BrFalse, Ret:
		// control handled by caller
	case ConstI:
		s.Regs[in.Dst] = IntWord(in.Imm)
	case ConstF:
		s.Regs[in.Dst] = FloatWord(in.FImm)
	case Mov, Copy:
		s.Regs[in.Dst] = arg(0)
	case ItoF:
		s.Regs[in.Dst] = FloatWord(float64(arg(0).Int()))
	case FtoI:
		s.Regs[in.Dst] = IntWord(int64(arg(0).Float()))
	case Add:
		s.Regs[in.Dst] = IntWord(arg(0).Int() + arg(1).Int())
	case Sub:
		s.Regs[in.Dst] = IntWord(arg(0).Int() - arg(1).Int())
	case Mul:
		s.Regs[in.Dst] = IntWord(arg(0).Int() * arg(1).Int())
	case Div:
		if d := arg(1).Int(); d != 0 {
			s.Regs[in.Dst] = IntWord(arg(0).Int() / d)
		} else {
			s.Regs[in.Dst] = 0
		}
	case Rem:
		if d := arg(1).Int(); d != 0 {
			s.Regs[in.Dst] = IntWord(arg(0).Int() % d)
		} else {
			s.Regs[in.Dst] = 0
		}
	case Neg:
		s.Regs[in.Dst] = IntWord(-arg(0).Int())
	case And:
		s.Regs[in.Dst] = IntWord(arg(0).Int() & arg(1).Int())
	case Or:
		s.Regs[in.Dst] = IntWord(arg(0).Int() | arg(1).Int())
	case Xor:
		s.Regs[in.Dst] = IntWord(arg(0).Int() ^ arg(1).Int())
	case Shl:
		s.Regs[in.Dst] = IntWord(arg(0).Int() << (uint64(arg(1).Int()) & 63))
	case Shr:
		s.Regs[in.Dst] = IntWord(arg(0).Int() >> (uint64(arg(1).Int()) & 63))
	case CmpEQ:
		s.Regs[in.Dst] = boolWord(arg(0).Int() == arg(1).Int())
	case CmpLT:
		s.Regs[in.Dst] = boolWord(arg(0).Int() < arg(1).Int())
	case CmpLE:
		s.Regs[in.Dst] = boolWord(arg(0).Int() <= arg(1).Int())
	case AddI:
		s.Regs[in.Dst] = IntWord(arg(0).Int() + in.Imm)
	case SubI:
		s.Regs[in.Dst] = IntWord(arg(0).Int() - in.Imm)
	case MulI:
		s.Regs[in.Dst] = IntWord(arg(0).Int() * in.Imm)
	case DivI:
		if in.Imm != 0 {
			s.Regs[in.Dst] = IntWord(arg(0).Int() / in.Imm)
		} else {
			s.Regs[in.Dst] = 0
		}
	case RemI:
		if in.Imm != 0 {
			s.Regs[in.Dst] = IntWord(arg(0).Int() % in.Imm)
		} else {
			s.Regs[in.Dst] = 0
		}
	case AndI:
		s.Regs[in.Dst] = IntWord(arg(0).Int() & in.Imm)
	case OrI:
		s.Regs[in.Dst] = IntWord(arg(0).Int() | in.Imm)
	case XorI:
		s.Regs[in.Dst] = IntWord(arg(0).Int() ^ in.Imm)
	case ShlI:
		s.Regs[in.Dst] = IntWord(arg(0).Int() << (uint64(in.Imm) & 63))
	case ShrI:
		s.Regs[in.Dst] = IntWord(arg(0).Int() >> (uint64(in.Imm) & 63))
	case CmpEQI:
		s.Regs[in.Dst] = boolWord(arg(0).Int() == in.Imm)
	case CmpLTI:
		s.Regs[in.Dst] = boolWord(arg(0).Int() < in.Imm)
	case CmpLEI:
		s.Regs[in.Dst] = boolWord(arg(0).Int() <= in.Imm)
	case FAddI:
		s.Regs[in.Dst] = FloatWord(arg(0).Float() + in.FImm)
	case FSubI:
		s.Regs[in.Dst] = FloatWord(arg(0).Float() - in.FImm)
	case FMulI:
		s.Regs[in.Dst] = FloatWord(arg(0).Float() * in.FImm)
	case FDivI:
		if in.FImm != 0 {
			s.Regs[in.Dst] = FloatWord(arg(0).Float() / in.FImm)
		} else {
			s.Regs[in.Dst] = FloatWord(0)
		}
	case FAdd:
		s.Regs[in.Dst] = FloatWord(arg(0).Float() + arg(1).Float())
	case FSub:
		s.Regs[in.Dst] = FloatWord(arg(0).Float() - arg(1).Float())
	case FMul:
		s.Regs[in.Dst] = FloatWord(arg(0).Float() * arg(1).Float())
	case FDiv:
		if d := arg(1).Float(); d != 0 {
			s.Regs[in.Dst] = FloatWord(arg(0).Float() / d)
		} else {
			s.Regs[in.Dst] = FloatWord(0)
		}
	case FNeg:
		s.Regs[in.Dst] = FloatWord(-arg(0).Float())
	case FCmpEQ:
		s.Regs[in.Dst] = boolWord(arg(0).Float() == arg(1).Float())
	case FCmpLT:
		s.Regs[in.Dst] = boolWord(arg(0).Float() < arg(1).Float())
	case FCmpLE:
		s.Regs[in.Dst] = boolWord(arg(0).Float() <= arg(1).Float())
	case Load, LoadF, SpillLoad:
		s.Regs[in.Dst] = s.Mem[s.EffAddr(in)]
	case Store, StoreF, SpillStore:
		s.Mem[s.EffAddr(in)] = arg(0)
	default:
		panic(fmt.Sprintf("ir: Exec: unhandled op %s", in.Op))
	}
}

// EffAddr returns the address a memory instruction accesses on the state:
// its symbol, at its offset plus the index register's value if it has one.
func (s *State) EffAddr(in *Instr) Addr {
	off := in.Off
	if in.Index != NoReg {
		off += s.Regs[in.Index].Int()
	}
	return Addr{in.Sym, off}
}

// Taken reports whether a branch transfers control on the state: Br and
// Ret always do, BrTrue when its condition register is nonzero, BrFalse
// when it is zero.
func (s *State) Taken(in *Instr) bool {
	switch in.Op {
	case Br, Ret:
		return true
	case BrTrue:
		return s.Regs[in.Args[0]].Int() != 0
	case BrFalse:
		return s.Regs[in.Args[0]].Int() == 0
	}
	return false
}

func boolWord(b bool) Word {
	if b {
		return 1
	}
	return 0
}

// Run interprets a whole function starting at its first block, mutating the
// state. It returns the value of Ret's operand (zero if none) and an error
// if the step budget is exceeded or a branch target is missing.
func (s *State) Run(f *Func, maxSteps int) (Word, error) {
	if len(f.Blocks) == 0 {
		return 0, nil
	}
	blk := f.Blocks[0]
	steps := 0
	var i int
	for {
		for _, in := range blk.Instrs {
			if steps++; steps > maxSteps {
				return 0, ErrStepLimit
			}
			switch in.Op {
			case Br, BrTrue, BrFalse:
				if s.Taken(in) {
					blk = f.Block(in.Sym)
					goto next
				}
			case Ret:
				if len(in.Args) > 0 {
					return s.Regs[in.Args[0]], nil
				}
				return 0, nil
			default:
				s.Exec(f, in)
			}
		}
		// fall through to the next block in layout order
		i = blockIndex(f, blk)
		if i+1 >= len(f.Blocks) {
			return 0, nil
		}
		blk = f.Blocks[i+1]
	next:
		if blk == nil {
			return 0, fmt.Errorf("ir: branch to unknown block")
		}
	}
}

func blockIndex(f *Func, b *Block) int {
	for i, x := range f.Blocks {
		if x == b {
			return i
		}
	}
	return -1
}
