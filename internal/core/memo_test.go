package core

import (
	"fmt"
	"reflect"
	"regexp"
	"testing"

	"ursa/internal/assign"
	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/metrics"
	"ursa/internal/sched"
	"ursa/internal/target"
	"ursa/internal/workload"
)

// runAttempts is Run's attempt sequence. With fresh, every attempt starts
// from an empty memo and so scores every state it reaches, as the
// reduction loop did before attempts shared scored states: the reference
// Run must agree with. With every, it tries every style whether or not an
// earlier attempt fit. It returns the chosen option's report and every
// attempt's, in order.
func runAttempts(g *dag.Graph, opts Options, fresh, every bool) (*Report, []*Report, error) {
	r, err := newRun(g, opts)
	if err != nil {
		return nil, nil, err
	}
	var reps []*Report
	attempt := func(style scoreStyle, maxIters int) error {
		if fresh {
			r.memo = memo{}
		}
		rep, err := r.attempt(style, maxIters)
		reps = append(reps, rep)
		return err
	}
	if err := attempt(styleDefault, 0); err != nil {
		return nil, nil, err
	}
	for _, style := range r.styles() {
		if r.best.Fits && !every {
			break
		}
		if err := attempt(style, iterBound(g)); err != nil {
			return nil, nil, err
		}
	}
	return r.finish(), reps, nil
}

// reportDiff describes how report b differs from report a of the same
// block, or returns "" when they agree on everything Run computes: the
// applied sequence with its notes, iterations, spills, widths, limits,
// fit verdicts, critical paths, the program listing and the emit error.
func reportDiff(a, b *Report) string {
	if d := reportsEqual(a, b); d != "" {
		return d
	}
	if !reflect.DeepEqual(a.InitialWidths, b.InitialWidths) || !reflect.DeepEqual(a.Limits, b.Limits) {
		return fmt.Sprintf("initial widths or limits diverged: %v %v vs %v %v",
			b.InitialWidths, b.Limits, a.InitialWidths, a.Limits)
	}
	if a.CritBefore != b.CritBefore || a.CritAfter != b.CritAfter {
		return fmt.Sprintf("critical paths diverged: %d -> %d vs %d -> %d",
			b.CritBefore, b.CritAfter, a.CritBefore, a.CritAfter)
	}
	if (a.Program == nil) != (b.Program == nil) || fmt.Sprint(a.EmitErr) != fmt.Sprint(b.EmitErr) {
		return fmt.Sprintf("emission diverged: err %v vs %v", b.EmitErr, a.EmitErr)
	}
	if a.Program != nil && a.Program.String() != b.Program.String() {
		return fmt.Sprintf("program diverged:\n%s\nvs\n%s", b.Program, a.Program)
	}
	return ""
}

// regsDiff describes how function g's register table differs from f's, or
// returns "".
func regsDiff(f, g *ir.Func) string {
	if f.NumRegs() != g.NumRegs() {
		return fmt.Sprintf("%d registers, want %d", g.NumRegs(), f.NumRegs())
	}
	for v := ir.VReg(1); int(v) < f.NumRegs(); v++ {
		if f.NameOf(v) != g.NameOf(v) || f.ClassOf(v) != g.ClassOf(v) {
			return fmt.Sprintf("register %d is %s (%s), want %s (%s)",
				v, g.NameOf(v), g.ClassOf(v), f.NameOf(v), f.ClassOf(v))
		}
	}
	return ""
}

// memoBlock returns a fresh graph, on a private copy of its function, of
// the matmul4 kernel's block b6 at unroll 4 on paper2x3, with the machine.
// Its default attempt does not fit, and its chosen option is the
// aggressive attempt, which spills values the default attempt spilled
// first.
func memoBlock(t *testing.T) (*dag.Graph, Options) {
	t.Helper()
	unit, err := workload.KernelByName("matmul4").Unit(4)
	if err != nil {
		t.Fatal(err)
	}
	f := unit.Func.Clone()
	g, err := dag.Build(f.Blocks[6])
	if err != nil {
		t.Fatal(err)
	}
	return g, Options{Machine: target.ByName("paper2x3").Config, Workers: 1}
}

// TestMemoReplaysRetries: on a block whose default attempt does not fit,
// the aggressive retry replays at least one iteration from the memo, and
// Run scores fewer candidates than the reference that scores every state,
// with an identical report.
func TestMemoReplaysRetries(t *testing.T) {
	g, opts := memoBlock(t)
	r, err := newRun(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.attempt(styleDefault, 0); err != nil {
		t.Fatal(err)
	}
	def, err := r.attempt(styleDefault, iterBound(g))
	if err != nil {
		t.Fatal(err)
	}
	if def.Fits {
		t.Fatal("the default attempt fits; the block no longer exercises the retries")
	}
	_, replayed0 := metrics.ReduceIterations()
	if _, err := r.attempt(styleAggressive, iterBound(g)); err != nil {
		t.Fatal(err)
	}
	_, replayed := metrics.ReduceIterations()
	if replayed == replayed0 {
		t.Error("the aggressive attempt replayed no iteration from the memo")
	}

	g, opts = memoBlock(t)
	evals0 := metrics.CandidateEvals()
	rep, err := Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	evals := metrics.CandidateEvals() - evals0

	ref, opts := memoBlock(t)
	evals0 = metrics.CandidateEvals()
	want, _, err := runAttempts(ref, opts, true, false)
	if err != nil {
		t.Fatal(err)
	}
	refEvals := metrics.CandidateEvals() - evals0
	if evals >= refEvals {
		t.Errorf("Run scored %d candidates, the reference %d; want fewer", evals, refEvals)
	}
	if d := reportDiff(want, rep); d != "" {
		t.Errorf("Run vs the reference: %s", d)
	}
	t.Logf("candidates scored: Run %d, reference %d", evals, refEvals)
}

// regSuffix matches a register name that NewReg suffixed because its name
// was taken: base.N.
var regSuffix = regexp.MustCompile(`^(.+)\.\d+$`)

// noteWord matches a word of a candidate note, register names included.
var noteWord = regexp.MustCompile(`[\w.]+`)

// TestRunLeavesOnlyTheWinnersRegisters: every attempt of Run allocates
// registers from the table the caller's function held on entry, and Run
// leaves exactly the chosen attempt's registers there — none of a losing
// attempt's. The fixture's chosen attempt is not the first to spill, and
// it spills values an earlier attempt spilled: an attempt that allocated
// after its predecessors would name its reloads base.r.1 instead of
// base.r.
func TestRunLeavesOnlyTheWinnersRegisters(t *testing.T) {
	g, opts := memoBlock(t)
	final, reps, err := runAttempts(g, opts, false, false)
	if err != nil {
		t.Fatal(err)
	}
	firstSpill, chosen := -1, -1
	for i, rep := range reps {
		if firstSpill < 0 && rep.SpillsInserted > 0 {
			firstSpill = i
		}
		if rep == final {
			chosen = i
		}
	}
	if firstSpill < 0 || chosen <= firstSpill || final.SpillsInserted == 0 {
		t.Fatalf("chosen attempt %d, first attempt to commit a spill %d: the block no longer chooses a later attempt that spills",
			chosen, firstSpill)
	}
	t.Logf("attempt %d of %d chosen; attempt %d spilled first", chosen, len(reps), firstSpill)

	g, opts = memoBlock(t)
	f := g.Func
	n0 := f.NumRegs()
	rep, err := Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	// The chosen reduction's registers come first and the graph uses every
	// one of them; its emission's follow, and the graph uses none.
	used := map[ir.VReg]bool{}
	for _, n := range g.Nodes {
		if n.Instr == nil {
			continue
		}
		used[n.Instr.Dst] = true
		for _, u := range n.Instr.Uses() {
			used[u] = true
		}
	}
	k := n0
	for k < f.NumRegs() && used[ir.VReg(k)] {
		k++
	}
	for v := k; v < f.NumRegs(); v++ {
		if used[ir.VReg(v)] {
			t.Fatalf("register %s (%d) is used by the graph but follows unused %s (%d): a losing attempt's register stayed",
				f.NameOf(ir.VReg(v)), v, f.NameOf(ir.VReg(k)), k)
		}
	}
	// Emitting the chosen graph again from the table its reduction left
	// allocates exactly the registers that follow.
	em := g.Clone()
	em.Func = f.CloneRegs()
	em.Func.TruncateRegs(k)
	if _, _, err := assign.Emit(em, opts.Machine, sched.Options{}); err != nil {
		t.Fatal(err)
	}
	if d := regsDiff(f, em.Func); d != "" {
		t.Fatalf("the caller's function does not hold exactly the chosen attempt's registers: %s", d)
	}
	// A register the run created carries a suffix only when the chosen
	// attempt created its base name too.
	own := func(v ir.VReg) bool { return int(v) >= n0 && int(v) < k }
	for v := ir.VReg(n0); int(v) < k; v++ {
		if m := regSuffix.FindStringSubmatch(f.NameOf(v)); m != nil && !own(f.Reg(m[1])) {
			t.Errorf("register %s is suffixed, but the chosen attempt has no register %s", f.NameOf(v), m[1])
		}
	}
	for _, a := range rep.Applied {
		for _, word := range noteWord.FindAllString(a.Note, -1) {
			v := f.Reg(word)
			if m := regSuffix.FindStringSubmatch(word); int(v) >= n0 && m != nil && !own(f.Reg(m[1])) {
				t.Errorf("note %q names %s, suffixed past a register the chosen attempt did not create", a.Note, word)
			}
		}
	}
}
