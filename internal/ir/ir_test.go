package ir

import (
	"math/rand"
	"strings"
	"testing"
)

// newTestRand returns a deterministic PRNG for fuzz-style helpers.
func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

const exampleSrc = `
func paper {
entry:
	v = load V[0]
	w = mul v, two      ; B
	x = mul v, three    ; C
	y = add v, five     ; D
	t1 = add w, x       ; E
	t2 = mul w, x       ; F
	t3 = mul y, two     ; G
	t4 = div y, three   ; H
	t5 = div t1, t2     ; I
	t6 = add t3, t4     ; J
	z = add t5, t6      ; K
	store Z[0], z
}
`

func parseExample(t *testing.T) *Func {
	t.Helper()
	f, err := Parse(exampleSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f
}

func TestParsePrintRoundTrip(t *testing.T) {
	f := parseExample(t)
	text := f.String()
	f2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if got := f2.String(); got != text {
		t.Errorf("round trip mismatch:\nfirst:\n%s\nsecond:\n%s", text, got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown op", "x = frobnicate a, b", "unknown opcode"},
		{"arity", "x = add a", "wants 2 operands"},
		{"missing dst", "add a, b", "requires a destination"},
		{"spurious dst", "x = store A[0], y", "does not produce"},
		{"bad mem", "x = load A", "bad memory operand"},
		{"bad branch", "entry:\n\tbr nowhere", "unknown branch target"},
		{"branch midblock", "entry:\n\tbr entry\n\tx = const 1", "not at block end"},
		{"empty", "   \n\t\n", "empty input"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Parse(%q) error = %v, want containing %q", c.src, err, c.want)
			}
		})
	}
}

func TestClassInference(t *testing.T) {
	f := MustParse(`
entry:
	a = constf 1.5
	b = constf 2.5
	c = fadd a, b
	i = ftoi c
	j = add i, i
`)
	if got := f.ClassOf(f.Reg("c")); got != ClassFP {
		t.Errorf("class of c = %v, want fp", got)
	}
	if got := f.ClassOf(f.Reg("i")); got != ClassInt {
		t.Errorf("class of i = %v, want int", got)
	}
	if got := f.ClassOf(f.Reg("j")); got != ClassInt {
		t.Errorf("class of j = %v, want int", got)
	}
}

func TestClassMismatchRejected(t *testing.T) {
	_, err := Parse(`
entry:
	a = const 1
	c = fadd a, a
`)
	if err == nil || !strings.Contains(err.Error(), "class") {
		t.Fatalf("expected class error, got %v", err)
	}
}

func TestInterpStraightLine(t *testing.T) {
	f := parseExample(t)
	st := NewState()
	st.SetInt(f.Reg("two"), 2)
	st.SetInt(f.Reg("three"), 3)
	st.SetInt(f.Reg("five"), 5)
	st.StoreInt("V", 0, 7)
	if _, err := st.Run(f, 1000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// v=7 w=14 x=21 y=12 t1=35 t2=294 t3=24 t4=4 t5=0 t6=28 z=28
	if got := st.Mem[Addr{"Z", 0}].Int(); got != 28 {
		t.Errorf("Z[0] = %d, want 28", got)
	}
	if got := st.Regs[f.Reg("t2")].Int(); got != 294 {
		t.Errorf("t2 = %d, want 294", got)
	}
}

func TestInterpControlFlow(t *testing.T) {
	f := MustParse(`
func sum {
entry:
	i = const 0
	acc = const 0
	n = const 5
	br loop
loop:
	x = load A[i]
	acc = add acc, x
	i2 = add i, one
	i = mov i2
	c = cmplt i, n
	brt c, loop
done:
	store OUT[0], acc
	ret acc
}
`)
	st := NewState()
	st.SetInt(f.Reg("one"), 1)
	for i := int64(0); i < 5; i++ {
		st.StoreInt("A", i, 10+i)
	}
	ret, err := st.Run(f, 10000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ret.Int() != 60 {
		t.Errorf("ret = %d, want 60", ret.Int())
	}
	if got := st.Mem[Addr{"OUT", 0}].Int(); got != 60 {
		t.Errorf("OUT[0] = %d, want 60", got)
	}
}

func TestInterpStepLimit(t *testing.T) {
	f := MustParse("func spin {\nentry:\n\tbr entry\n}")
	st := NewState()
	if _, err := st.Run(f, 10); err != ErrStepLimit {
		t.Fatalf("Run = %v, want ErrStepLimit", err)
	}
}

func TestInterpDivByZeroConvention(t *testing.T) {
	f := MustParse(`
entry:
	z = const 0
	a = const 9
	q = div a, z
	r = rem a, z
	fz = constf 0
	fa = constf 9
	fq = fdiv fa, fz
`)
	st := NewState()
	if _, err := st.Run(f, 100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := st.Regs[f.Reg("q")].Int(); got != 0 {
		t.Errorf("9/0 = %d, want 0", got)
	}
	if got := st.Regs[f.Reg("r")].Int(); got != 0 {
		t.Errorf("9%%0 = %d, want 0", got)
	}
	if got := st.Regs[f.Reg("fq")].Float(); got != 0 {
		t.Errorf("9.0/0.0 = %g, want 0", got)
	}
}

func TestRenameEstablishesSSA(t *testing.T) {
	f := MustParse(`
entry:
	a = const 1
	a = add a, a
	a = add a, a
	store OUT[0], a
`)
	b := f.Blocks[0]
	if err := VerifySSA(b); err == nil {
		t.Fatal("VerifySSA accepted multiply-defined block")
	}
	final := Rename(b)
	if err := VerifySSA(b); err != nil {
		t.Fatalf("VerifySSA after Rename: %v", err)
	}
	// Semantics must be preserved: a = ((1+1)+(1+1)) = 4.
	st := NewState()
	if _, err := st.Run(f, 100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := st.Mem[Addr{"OUT", 0}].Int(); got != 4 {
		t.Errorf("OUT[0] = %d, want 4", got)
	}
	if fin, ok := final[f.Reg("a")]; !ok || fin == f.Reg("a") {
		t.Errorf("final name of a = %v, want a fresh register", fin)
	}
}

func TestLiveInsAndDefs(t *testing.T) {
	f := parseExample(t)
	b := f.Blocks[0]
	ins := LiveIns(b)
	want := []string{"two", "three", "five"}
	if len(ins) != len(want) {
		t.Fatalf("LiveIns = %d regs, want %d", len(ins), len(want))
	}
	for i, name := range want {
		if f.NameOf(ins[i]) != name {
			t.Errorf("LiveIns[%d] = %s, want %s", i, f.NameOf(ins[i]), name)
		}
	}
	if got := len(Defs(b)); got != 11 {
		t.Errorf("Defs = %d, want 11", got)
	}
}

// TestLiveOuts: a block's live-outs are the registers it defines and
// never reads; a value read before the block ends is not one.
func TestLiveOuts(t *testing.T) {
	if outs := LiveOuts(parseExample(t).Blocks[0]); len(outs) != 0 {
		t.Errorf("LiveOuts of a block ending in a store = %v, want none", outs)
	}
	f := MustParse(`
func f {
entry:
	a = load A[0]
	b = add a, a
	c = mul a, a
	d = sub c, a
	store B[0], b
}
`)
	outs := LiveOuts(f.Blocks[0])
	if len(outs) != 1 || !outs[f.Reg("d")] {
		t.Errorf("LiveOuts = %v, want just d", outs)
	}
}

func TestUsesIncludesIndex(t *testing.T) {
	f := NewFunc("t")
	b := f.NewBlock("entry")
	i := f.NewReg("i", ClassInt)
	x := f.NewReg("x", ClassInt)
	ld := b.Append(&Instr{Op: Load, Dst: x, Sym: "A", Index: i})
	uses := ld.Uses()
	if len(uses) != 1 || uses[0] != i {
		t.Errorf("Uses = %v, want [%v]", uses, i)
	}
}

func TestVerifyRejectsIndexOnALU(t *testing.T) {
	f := NewFunc("t")
	b := f.NewBlock("entry")
	a := f.NewReg("a", ClassInt)
	c := f.NewReg("c", ClassInt)
	b.Append(&Instr{Op: Add, Dst: c, Args: []VReg{a, a}, Index: a})
	if err := Verify(f); err == nil {
		t.Fatal("Verify accepted index register on add")
	}
}

func TestOpByNameTotal(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		got, ok := OpByName(op.String())
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v,%v; want %v", op.String(), got, ok, op)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	in := &Instr{Op: Add, Dst: 3, Args: []VReg{1, 2}}
	c := in.Clone()
	c.Args[0] = 9
	if in.Args[0] != 1 {
		t.Error("Clone shares Args backing array")
	}
}

func TestWordConversions(t *testing.T) {
	if IntWord(-5).Int() != -5 {
		t.Error("IntWord round trip failed")
	}
	if FloatWord(3.25).Float() != 3.25 {
		t.Error("FloatWord round trip failed")
	}
}

func TestImmediateOps(t *testing.T) {
	f := MustParse(`
entry:
	v = const 7
	w = muli v, 2
	x = divi w, 3
	y = addi x, 5
	c = cmplti y, 100
	fa = constf 1.5
	fb = fmuli fa, 4
	fc = faddi fb, 0.5
`)
	st := NewState()
	if _, err := st.Run(f, 100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := st.Regs[f.Reg("y")].Int(); got != 9 {
		t.Errorf("y = %d, want 9 (7*2/3+5)", got)
	}
	if got := st.Regs[f.Reg("c")].Int(); got != 1 {
		t.Errorf("c = %d, want 1", got)
	}
	if got := st.Regs[f.Reg("fc")].Float(); got != 6.5 {
		t.Errorf("fc = %g, want 6.5", got)
	}
	// Round trip.
	f2, err := Parse(f.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, f.String())
	}
	if f2.String() != f.String() {
		t.Errorf("immediate ops do not round trip:\n%s\nvs\n%s", f.String(), f2.String())
	}
}

func TestImmediateOpArity(t *testing.T) {
	if _, err := Parse("entry:\n\tw = muli a"); err == nil {
		t.Error("muli with missing immediate accepted")
	}
	if _, err := Parse("entry:\n\tw = muli a, b"); err == nil {
		t.Error("muli with register second operand accepted")
	}
}

// TestInterpFullOpcodeCoverage exercises every arithmetic, logical, shift,
// comparison, conversion and move opcode against independently computed
// expectations.
func TestInterpFullOpcodeCoverage(t *testing.T) {
	f := MustParse(`
entry:
	a = const 13
	b = const -5
	m = mov a
	s1 = sub a, b
	n = neg b
	an = and a, b
	o = or a, b
	x = xor a, b
	sl = shl a, n
	sr = shr a, m
	ceq = cmpeq a, a
	clt = cmplt b, a
	cle = cmple a, a
	fa = constf 2.5
	fb = constf -0.5
	fs = fsub fa, fb
	fn = fneg fb
	fq = fdiv fa, fn
	fe = fcmpeq fa, fa
	fl = fcmplt fb, fa
	fle = fcmple fa, fa
	cv = itof a
	bk = ftoi fs
	si = shli a, 2
	ri = shri a, 1
	ai = andi a, 12
	oi = ori a, 2
	ce = cmpeqi a, 13
	cl2 = cmplei a, 13
	fsx = fsubi fa, 0.5
	fdx = fdivi fa, 2.5
`)
	st := NewState()
	if _, err := st.Run(f, 1000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	intChecks := map[string]int64{
		"m": 13, "s1": 18, "n": 5, "an": 13 & -5, "o": 13 | -5, "x": 13 ^ -5,
		"sl": 13 << 5, "sr": 13 >> 13, "ceq": 1, "clt": 1, "cle": 1,
		"fe": 1, "fl": 1, "fle": 1, "bk": 3, "si": 52, "ri": 6,
		"ai": 12, "oi": 15, "ce": 1, "cl2": 1,
	}
	for name, want := range intChecks {
		if got := st.Regs[f.Reg(name)].Int(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	fpChecks := map[string]float64{
		"fs": 3.0, "fn": 0.5, "fq": 5.0, "cv": 13.0, "fsx": 2.0, "fdx": 1.0,
	}
	for name, want := range fpChecks {
		if got := st.Regs[f.Reg(name)].Float(); got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

// TestQuickParsePrintRoundTrip: random arithmetic programs survive
// print -> parse -> print unchanged.
func TestQuickParsePrintRoundTrip(t *testing.T) {
	gen := func(seed int64) *Func {
		rng := newTestRand(seed)
		f := NewFunc("q")
		b := f.NewBlock("entry")
		var vals []VReg
		for i := 0; i < 4+rng.Intn(10); i++ {
			dst := f.NewReg("", ClassInt)
			switch {
			case len(vals) == 0 || rng.Intn(4) == 0:
				b.Append(&Instr{Op: ConstI, Dst: dst, Imm: int64(rng.Intn(99)) - 50})
			case rng.Intn(3) == 0:
				a := vals[rng.Intn(len(vals))]
				op := []Op{AddI, MulI, XorI, ShlI}[rng.Intn(4)]
				b.Append(&Instr{Op: op, Dst: dst, Args: []VReg{a}, Imm: int64(rng.Intn(7))})
			default:
				a := vals[rng.Intn(len(vals))]
				c := vals[rng.Intn(len(vals))]
				op := []Op{Add, Sub, Mul, And, Or}[rng.Intn(5)]
				b.Append(&Instr{Op: op, Dst: dst, Args: []VReg{a, c}})
			}
			vals = append(vals, dst)
		}
		return f
	}
	for seed := int64(0); seed < 40; seed++ {
		f := gen(seed)
		text := f.String()
		f2, err := Parse(text)
		if err != nil {
			t.Fatalf("seed %d: reparse: %v\n%s", seed, err, text)
		}
		if f2.String() != text {
			t.Fatalf("seed %d: round trip drift:\n%s\nvs\n%s", seed, text, f2.String())
		}
	}
}

func TestFuncClone(t *testing.T) {
	f := parseExample(t)
	c := f.Clone()
	if c.String() != f.String() {
		t.Fatal("clone differs textually")
	}
	c.Blocks[0].Instrs[1].Imm = 99
	if f.Blocks[0].Instrs[1].Imm == 99 {
		t.Error("clone shares instructions")
	}
	c.NewReg("fresh", ClassInt)
	if f.Reg("fresh") != NoReg {
		t.Error("clone shares register tables")
	}
}
