package check

import (
	"math/rand"
	"testing"

	"ursa/internal/ir"
)

func TestGenerateAlwaysValid(t *testing.T) {
	// Every seed must yield a parseable, SSA, live-in-free program and a
	// valid machine: the whole campaign rests on this.
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := Generate(rng, GenConfig{})
		b := c.Block()
		if err := ir.VerifySSA(b); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, c.Func)
		}
		if ins := ir.LiveIns(b); len(ins) > 0 {
			t.Fatalf("seed %d: generated block has live-ins %v\n%s", seed, ins, c.Func)
		}
		if got := len(b.Instrs); got < 3 {
			t.Fatalf("seed %d: only %d instructions", seed, got)
		}
		if err := c.Mach.Config().Validate(); err != nil {
			t.Fatalf("seed %d: invalid machine %s: %v", seed, c.Mach, err)
		}
		if overcommitted(c) {
			t.Fatalf("seed %d: generated case is overcommitted on %s\n%s", seed, c.Mach, c.Func)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(rand.New(rand.NewSource(42)), GenConfig{})
	b := Generate(rand.New(rand.NewSource(42)), GenConfig{})
	if FormatCase(a) != FormatCase(b) {
		t.Fatalf("same seed, different cases:\n%s\nvs\n%s", FormatCase(a), FormatCase(b))
	}
}

func TestGenerateIntOnly(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		c := Generate(rand.New(rand.NewSource(seed)), GenConfig{IntOnly: true})
		for _, in := range c.Block().Instrs {
			if in.Dst != ir.NoReg && c.Func.ClassOf(in.Dst) == ir.ClassFP {
				t.Fatalf("seed %d: int-only case defines fp value\n%s", seed, c.Func)
			}
		}
	}
}

func TestCaseRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		c := Generate(rand.New(rand.NewSource(seed)), GenConfig{})
		text := FormatCase(c)
		c2, err := ParseCase(text)
		if err != nil {
			t.Fatalf("seed %d: ParseCase: %v\n%s", seed, err, text)
		}
		if *c2.Mach != *c.Mach {
			t.Fatalf("seed %d: machine spec changed: %s vs %s", seed, c2.Mach, c.Mach)
		}
		if c2.Func.String() != c.Func.String() {
			t.Fatalf("seed %d: program changed:\n%s\nvs\n%s", seed, c2.Func, c.Func)
		}
		if c2.Name != c.Name {
			t.Fatalf("seed %d: name changed: %q vs %q", seed, c2.Name, c.Name)
		}
	}
}

func TestShrinkReducesWhilePreservingFailure(t *testing.T) {
	// Synthetic failure predicate: "the block contains a div". The shrinker
	// must keep at least one div while removing unrelated instructions, and
	// terminate at a small fixed point.
	hasDiv := func(c *Case) bool {
		for _, in := range c.Block().Instrs {
			if in.Op == ir.Div || in.Op == ir.DivI {
				return true
			}
		}
		return false
	}
	found := 0
	for seed := int64(0); seed < 80 && found < 5; seed++ {
		c := Generate(rand.New(rand.NewSource(seed)), GenConfig{MaxInstrs: 20})
		if !hasDiv(c) {
			continue
		}
		found++
		small := Shrink(c, hasDiv)
		if !hasDiv(small) {
			t.Fatalf("seed %d: shrinking lost the failure\n%s", seed, small.Func)
		}
		if len(small.Block().Instrs) > len(c.Block().Instrs) {
			t.Fatalf("seed %d: shrink grew the block", seed)
		}
		if err := ir.VerifySSA(small.Block()); err != nil {
			t.Fatalf("seed %d: shrunk block invalid: %v\n%s", seed, err, small.Func)
		}
		// At the fixed point every surviving instruction must matter: each is
		// a div or an ancestor some div transitively depends on — anything
		// else would have been removable without losing the failure.
		needed := map[ir.VReg]bool{}
		instrs := small.Block().Instrs
		for i := len(instrs) - 1; i >= 0; i-- {
			in := instrs[i]
			if in.Op == ir.Div || in.Op == ir.DivI || (in.Dst != ir.NoReg && needed[in.Dst]) {
				for _, u := range in.Uses() {
					needed[u] = true
				}
				continue
			}
			t.Errorf("seed %d: shrunk case keeps irrelevant instruction %s\n%s", seed, small.Func.InstrString(in), small.Func)
		}
	}
	if found == 0 {
		t.Fatal("no generated case contained a div; generator drifted?")
	}
}

func TestShrinkMachineSimplifies(t *testing.T) {
	// With an always-true predicate the machine must collapse to the
	// simplest config the guards allow.
	c := Generate(rand.New(rand.NewSource(9)), GenConfig{})
	small := Shrink(c, func(*Case) bool { return true })
	m := small.Mach
	if m.Het {
		t.Errorf("machine stayed heterogeneous: %s", m)
	}
	if m.Width != 1 || m.IntRegs != 1 || m.FPRegs != 1 {
		t.Errorf("machine not minimal: %s", m)
	}
	if m.Realistic || m.Pipelined {
		t.Errorf("latency/pipelining not simplified: %s", m)
	}
	if got := len(small.Block().Instrs); got != 1 {
		t.Errorf("block not minimal: %d instructions", got)
	}
}

func TestRunCampaignClean(t *testing.T) {
	// End-to-end harness check on a healthy pipeline: a small campaign runs
	// every oracle and reports nothing.
	sum, err := Run(RunConfig{N: 25, Seed: 1000, Workers: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !sum.OK() {
		for _, f := range sum.Found {
			t.Errorf("unexpected violation [%s] seed %d: %s\n%s", f.Oracle, f.Seed, f.Detail, FormatCase(f.Case))
		}
	}
	for _, oracle := range AllOracles {
		if sum.Exercised[oracle] == 0 {
			t.Errorf("oracle %s never exercised", oracle)
		}
	}
	if sum.Exercised[deltaSpillReplays] == 0 {
		t.Error("the delta oracle replayed no spill or copy-spill candidate")
	}
	if sum.Exercised[deltaSpillWarm] == 0 {
		t.Error("no spill or copy-spill replay warm-started a resource")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(RunConfig{N: 30, Seed: 77, Workers: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := Run(RunConfig{N: 30, Seed: 77, Workers: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.String() != b.String() {
		t.Fatalf("worker count changed the campaign result:\n%s\nvs\n%s", a, b)
	}
}

func TestCheckReportsPanicsAsViolations(t *testing.T) {
	// A case that makes an oracle panic must surface as a violation, not
	// crash the campaign.
	rep := newReport()
	runOracle(rep, "boom", nil) // unknown oracle on nil case: failf path
	if !rep.Failed() {
		t.Fatal("unknown oracle did not report")
	}
	rep2 := newReport()
	runOracle(rep2, OracleWidth, nil) // nil case panics inside; must recover
	if !rep2.FailedOracle(OracleWidth) {
		t.Fatal("panic was not converted into a violation")
	}
}

func TestOvercommittedDetection(t *testing.T) {
	src := `machine vliw width=1 intregs=2 fpregs=2 lat=unit pipelined=false
---
func f {
entry:
	v1 = const 1
	v2 = const 2
	v3 = const 3
}
`
	c, err := ParseCase(src)
	if err != nil {
		t.Fatalf("ParseCase: %v", err)
	}
	if !overcommitted(c) {
		t.Fatal("three dead ints on a two-register machine not flagged")
	}
	// The same case must not report compile refusals as violations.
	rep := Check(c, []string{OracleLegal, OracleDiffExec})
	for _, v := range rep.Violations {
		t.Errorf("overcommitted case reported: %s", v)
	}
}
