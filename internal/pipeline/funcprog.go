package pipeline

import (
	"fmt"

	"ursa/internal/assign"
	"ursa/internal/driver"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/vliwsim"
)

// FuncProgram is a whole compiled function: one VLIW program per basic
// block, executed by chaining block exits. Blocks drain completely before
// control transfers (basic-block-scoped VLIW, the paper's compilation
// unit).
type FuncProgram struct {
	Source  *ir.Func
	Machine *machine.Config
	Method  Method
	Blocks  []*assign.Program // by layout order of Source.Blocks
	labels  map[string]int
}

// CompileFunc compiles every basic block of the function through the
// selected pipeline. The returned stats aggregate the static per-block
// numbers (max register usage, total spill ops, total words).
//
// With opts.Workers outside [0, 1] the blocks compile concurrently on a
// bounded worker pool; every block works on its own clone of the function
// (see Compile), results are collected by block index, and the emitted
// program is byte-identical to the sequential one.
func CompileFunc(f *ir.Func, m *machine.Config, method Method, opts Options) (*FuncProgram, *Stats, error) {
	fp := &FuncProgram{
		Source:  f,
		Machine: m,
		Method:  method,
		labels:  make(map[string]int, len(f.Blocks)),
	}
	type compiled struct {
		prog *assign.Program
		st   *Stats
	}
	outs, _, err := driver.Map(len(f.Blocks), func(i int) (compiled, error) {
		prog, st, err := Compile(f.Blocks[i], m, method, opts)
		if err != nil {
			return compiled{}, fmt.Errorf("pipeline: block %s: %w", f.Blocks[i].Label, err)
		}
		return compiled{prog, st}, nil
	}, driver.Options{Workers: blockWorkers(opts.Workers), Ctx: opts.Ctx})
	if err != nil {
		return nil, nil, err
	}
	agg := &Stats{Method: method, Machine: m.Name, URSAFits: true}
	for i, b := range f.Blocks {
		fp.labels[b.Label] = i
		st := outs[i].st
		fp.Blocks = append(fp.Blocks, outs[i].prog)
		agg.Words += st.Words
		agg.SpillOps += st.SpillOps
		agg.URSATransforms += st.URSATransforms
		if method == URSA && !st.URSAFits {
			agg.URSAFits = false
		}
		for c := range st.RegsUsed {
			if st.RegsUsed[c] > agg.RegsUsed[c] {
				agg.RegsUsed[c] = st.RegsUsed[c]
			}
		}
	}
	return fp, agg, nil
}

// blockWorkers maps the Options.Workers convention (0/1 sequential, <0
// GOMAXPROCS, n>1 bounded) onto driver.Options.Workers (<=0 GOMAXPROCS).
func blockWorkers(w int) int {
	switch {
	case w == 0 || w == 1:
		return 1
	case w < 0:
		return 0
	default:
		return w
	}
}

// FuncResult reports a whole-function execution.
type FuncResult struct {
	Cycles   int
	Issued   int
	SpillOps int
	State    *ir.State
	BlockXct int // block executions
}

// Run executes the compiled function from its first block against a copy
// of init, chaining block exits, until a return, a fall-off-the-end, or the
// cycle budget is exhausted.
func (fp *FuncProgram) Run(init *ir.State, maxCycles int) (*FuncResult, error) {
	return fp.run(vliwsim.Run, init, maxCycles)
}

// RunInOrder executes the compiled function like Run, but each block's
// instructions issue in linear order on an in-order superscalar core with
// interlocks (vliwsim.RunInOrder) rather than as VLIW words — the §6
// superscalar target. The emitted *order* is what carries the scheduling
// quality.
func (fp *FuncProgram) RunInOrder(init *ir.State, maxCycles int) (*FuncResult, error) {
	return fp.run(vliwsim.RunInOrder, init, maxCycles)
}

func (fp *FuncProgram) run(sim func(*assign.Program, *ir.State) (*vliwsim.Result, error), init *ir.State, maxCycles int) (*FuncResult, error) {
	res := &FuncResult{State: init.Clone()}
	cur := 0
	for {
		if cur >= len(fp.Blocks) {
			return res, nil
		}
		r, err := sim(fp.Blocks[cur], res.State)
		if err != nil {
			return nil, fmt.Errorf("pipeline: block %s: %w", fp.Source.Blocks[cur].Label, err)
		}
		res.State = r.State
		res.Cycles += r.Cycles
		res.Issued += r.Issued
		res.SpillOps += r.SpillOps
		res.BlockXct++
		if res.Cycles > maxCycles {
			return nil, fmt.Errorf("pipeline: cycle budget exceeded (%d)", maxCycles)
		}
		switch r.Exit {
		case "ret":
			return res, nil
		case "":
			cur++
		default:
			next, ok := fp.labels[r.Exit]
			if !ok {
				return nil, fmt.Errorf("pipeline: exit to unknown label %q", r.Exit)
			}
			cur = next
		}
	}
}

// Verify executes the compiled function from init — on the in-order
// superscalar model when inOrder is set, as VLIW words otherwise — and
// checks its non-spill memory against the sequential interpretation of
// ref, the function the program implements (for loop-pipelined code, the
// original unpipelined function). The interpreter's budget is generous
// relative to maxCycles, since it executes one instruction per step.
func (fp *FuncProgram) Verify(ref *ir.Func, init *ir.State, maxCycles int, inOrder bool) (*FuncResult, error) {
	want := init.Clone()
	if _, err := want.Run(ref, maxCycles*8+100_000); err != nil {
		return nil, fmt.Errorf("reference interpretation: %w", err)
	}
	run := fp.Run
	if inOrder {
		run = fp.RunInOrder
	}
	res, err := run(init, maxCycles)
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	if d := ir.MemDiff(want, res.State); d != nil {
		return nil, fmt.Errorf("verification: %w", d)
	}
	return res, nil
}

// RecordRun fills the dynamic statistics from a verified execution.
// SpillOps keeps the static count of the emitted code.
func (s *Stats) RecordRun(res *FuncResult) {
	s.Verified = true
	s.Cycles = res.Cycles
	s.Issued = res.Issued
	if res.Cycles > 0 {
		s.Utilization = float64(res.Issued) / float64(res.Cycles)
	}
}

// EvaluateFunc compiles and executes the whole function, verifies its
// memory effects against the sequential interpreter, and returns dynamic
// statistics.
func EvaluateFunc(f *ir.Func, m *machine.Config, method Method, init *ir.State, maxCycles int, opts Options) (*Stats, error) {
	return evaluateFunc(f, m, method, init, maxCycles, opts, false)
}

// EvaluateFuncInOrder is EvaluateFunc on the in-order superscalar model.
func EvaluateFuncInOrder(f *ir.Func, m *machine.Config, method Method, init *ir.State, maxCycles int, opts Options) (*Stats, error) {
	return evaluateFunc(f, m, method, init, maxCycles, opts, true)
}

func evaluateFunc(f *ir.Func, m *machine.Config, method Method, init *ir.State, maxCycles int, opts Options, inOrder bool) (*Stats, error) {
	fp, st, err := CompileFunc(f, m, method, opts)
	if err != nil {
		return nil, err
	}
	res, err := fp.Verify(f, init, maxCycles, inOrder)
	if err != nil {
		return nil, fmt.Errorf("pipeline %s on %s: %w", method, m.Name, err)
	}
	st.RecordRun(res)
	st.SpillOps = res.SpillOps // dynamic counts replace static ones
	return st, nil
}
