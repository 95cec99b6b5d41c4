// Package pipeline assembles complete compilation pipelines from the
// substrates, realizing both URSA and the phase orderings the paper argues
// against (§1):
//
//   - URSA: unified allocation (measure + transform) before assignment.
//   - Prepass: schedule first ignoring registers, then patch spill code
//     into the schedule during assignment.
//   - Postpass: graph-coloring register allocation first; the reuse-induced
//     anti/output dependences then restrict the list scheduler.
//   - IntegratedList: register-pressure-sensitive list scheduling in the
//     spirit of Goodman & Hsu's DAG-driven allocation [GoH88] — integrated,
//     but still a one-pass list scheduler with no spill mechanism.
//
// Every pipeline ends in executable VLIW code that Evaluate verifies
// against the sequential interpreter before reporting statistics.
package pipeline

import (
	"context"
	"errors"
	"fmt"

	"ursa/internal/assign"
	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/exact"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/opt"
	"ursa/internal/regalloc"
	"ursa/internal/sched"
	"ursa/internal/store"
	"ursa/internal/target"
	"ursa/internal/vliwsim"
)

// Method selects a compilation pipeline.
type Method uint8

// Pipelines.
const (
	URSA Method = iota
	Prepass
	Postpass
	IntegratedList
	// Exact is the optimal lane: a branch-and-bound solver proves the
	// minimum resource-feasible schedule length and emits it. It only
	// accepts blocks of at most exact.NodeLimit instructions (Compile
	// returns exact.ErrTooLarge beyond that), so it is listed in
	// AllMethods, not in the unguarded Methods the benchmarks sweep.
	Exact
)

// Methods lists the heuristic pipelines in presentation order; every
// block they accept compiles, so benchmarks and experiments sweep them
// freely.
var Methods = []Method{URSA, Prepass, Postpass, IntegratedList}

// AllMethods additionally lists the node-count-guarded Exact lane; it is
// the full set servable by ursad and checkable by the oracles.
var AllMethods = []Method{URSA, Prepass, Postpass, IntegratedList, Exact}

// String returns the pipeline name.
func (m Method) String() string {
	switch m {
	case URSA:
		return "ursa"
	case Prepass:
		return "prepass"
	case Postpass:
		return "postpass"
	case IntegratedList:
		return "integrated-list"
	case Exact:
		return "exact"
	}
	return fmt.Sprintf("method(%d)", uint8(m))
}

// Options configures a pipeline run.
type Options struct {
	// Core tunes the URSA driver (ignored by the baselines). The Machine
	// field is overridden.
	Core core.Options
	// Optimize runs the block-local scalar optimizations (constant
	// folding, copy propagation, CSE, DCE) before compilation.
	Optimize bool
	// Workers bounds the number of basic blocks CompileFunc compiles
	// concurrently. Zero or one compiles sequentially; negative means
	// GOMAXPROCS. Results are collected by block index, so the emitted
	// program and statistics are identical at every worker count.
	Workers int
	// Ctx, when non-nil, cancels multi-block compilation between blocks:
	// once done, CompileFunc stops dispatching the remaining blocks and
	// returns Ctx.Err(). Cancellation is cooperative — a block already
	// compiling runs to completion.
	Ctx context.Context
	// Results, when non-nil, is the tiered compile-result cache consulted
	// by CompileFuncCached: whole-function listings and statistics keyed
	// by CacheKey survive process restarts (disk tier) and are shared
	// across a fleet (peer tier). Plain Compile/CompileFunc ignore it.
	Results *store.TieredCache
}

// Stats reports one compilation (and, after Evaluate, its execution).
type Stats struct {
	Method  Method
	Machine string
	// Static properties of the emitted code.
	Words    int // issue slots (schedule length in words)
	SpillOps int // spill stores + reloads in the final code
	RegsUsed [ir.NumClasses]int
	// URSA-only.
	URSATransforms int
	URSAFits       bool
	// Dynamic properties (set by Evaluate).
	Cycles      int
	Issued      int
	Utilization float64
	Verified    bool
}

// Row renders the stats as a fixed-width table row.
func (s *Stats) Row() string {
	return fmt.Sprintf("%-16s %-12s %7d %7d %7d %7d %9.2f",
		s.Method, s.Machine, s.Cycles, s.SpillOps, s.RegsUsed[ir.ClassInt], s.RegsUsed[ir.ClassFP], s.Utilization)
}

// RowHeader is the header matching Row.
const RowHeader = "method           machine       cycles  spills  intreg   fpreg  util(ipc)"

// Compile runs the selected pipeline on a straight-line block and returns
// the emitted program plus static statistics.
func Compile(b *ir.Block, m *machine.Config, method Method, opts Options) (*assign.Program, *Stats, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	if err := target.Supports(method.String(), m); err != nil {
		// target.ErrUnsupported, detectable via target.Unsupported: sweeps
		// skip the method on this machine rather than failing the run.
		return nil, nil, fmt.Errorf("pipeline: %w", err)
	}
	// Compile against a private clone of the containing function: spill
	// transformations allocate fresh virtual registers in the function's
	// tables, and cloning keeps the caller's function intact and makes
	// concurrent compilations of the same function race-free.
	nf := b.Func.Clone()
	b = nf.Block(b.Label)
	if opts.Optimize {
		opt.Block(b)
	}
	if ins := ir.LiveIns(b); len(ins) > 0 {
		// Pipelines emit code over a fresh physical register space, so a
		// region's inputs must arrive through memory, not registers.
		return nil, nil, fmt.Errorf("pipeline: block has register live-ins (%s); load inputs from memory",
			b.Func.NameOf(ins[0]))
	}
	if m.Clusters > 1 {
		// Partition the block's instructions over the clusters and insert
		// explicit inter-cluster copies; from here on the copies are ordinary
		// instructions, so URSA's reduction loop prices the transfer bus and
		// the copies' destination registers like any other resource.
		if _, err := target.Clusterize(b, m); err != nil {
			return nil, nil, err
		}
	}
	st := &Stats{Method: method, Machine: m.Name}
	var prog *assign.Program

	switch method {
	case URSA:
		g, err := dag.Build(b)
		if err != nil {
			return nil, nil, err
		}
		copts := opts.Core
		copts.Machine = m
		rep, err := core.Run(g, copts)
		if err != nil {
			return nil, nil, err
		}
		st.URSATransforms = rep.Iterations
		st.URSAFits = rep.Fits
		if prog = rep.Program; prog == nil {
			return nil, nil, rep.EmitErr
		}

	case Prepass:
		g, err := dag.Build(b)
		if err != nil {
			return nil, nil, err
		}
		prog, _, err = assign.Emit(g, m, sched.Options{})
		if err != nil {
			return nil, nil, err
		}

	case Postpass:
		ra, err := regalloc.Color(b, m, ir.LiveOuts(b))
		if err != nil {
			return nil, nil, err
		}
		g, err := dag.BuildScheduling(ra.Block)
		if err != nil {
			return nil, nil, err
		}
		s, err := sched.List(g, m, sched.Options{})
		if err != nil {
			return nil, nil, err
		}
		prog = assign.FromSchedule(s, m, ra.OutMap, ra.Spills)

	case IntegratedList:
		g, err := dag.Build(b)
		if err != nil {
			return nil, nil, err
		}
		s, err := sched.List(g, m, sched.Options{
			RegLimit: m.Regs[ir.ClassInt],
			RegClass: ir.ClassInt,
		})
		if err != nil {
			if errors.Is(err, sched.ErrBuffer) {
				// The worst-case buffer demand genuinely exceeds the
				// exposed-datapath capacity; degrade to buffer-eviction
				// emission like the URSA and prepass lanes do.
				prog, err = assign.EmitWithBufferSpills(g, m)
				if err != nil {
					return nil, nil, err
				}
				break
			}
			return nil, nil, err
		}
		prog, err = assign.Registers(s, m)
		if err != nil {
			// [GoH88] has no spill mechanism; fall back to patching like
			// the prepass pipeline so code is still emitted.
			prog, err = assign.EmitWithSpills(s, m)
			if err != nil {
				return nil, nil, err
			}
		}

	case Exact:
		g, err := dag.Build(b)
		if err != nil {
			return nil, nil, err
		}
		// The solver enforces the exact.NodeLimit node-count guard and
		// honors opts.Ctx, so an adversarial block cancels promptly.
		s, err := exact.Makespan(g, m, exact.Options{Ctx: opts.Ctx})
		if err != nil {
			return nil, nil, fmt.Errorf("pipeline: exact: %w", err)
		}
		prog, err = assign.Registers(s, m)
		if err != nil {
			// The length-optimal schedule may need more registers than
			// the machine has; patch spills like the prepass pipeline so
			// code is still emitted (words then exceed the bound).
			prog, err = assign.EmitWithSpills(s, m)
			if err != nil {
				return nil, nil, err
			}
		}

	default:
		return nil, nil, fmt.Errorf("pipeline: unknown method %v", method)
	}

	st.Words = len(prog.Words)
	st.RegsUsed = prog.RegsUsed
	for _, in := range prog.Instrs() {
		if in.Op == ir.SpillStore || in.Op == ir.SpillLoad {
			st.SpillOps++
		}
	}
	return prog, st, nil
}

// Evaluate compiles the block with the given pipeline, executes the result
// on the simulator, verifies it against the sequential interpretation of
// the block starting from init, and returns the full statistics.
func Evaluate(b *ir.Block, m *machine.Config, method Method, init *ir.State, opts Options) (*Stats, error) {
	prog, st, err := Compile(b, m, method, opts)
	if err != nil {
		return nil, err
	}
	res, err := vliwsim.Verify(prog, b, init)
	if err != nil {
		return nil, fmt.Errorf("pipeline %s on %s: %w", method, m.Name, err)
	}
	if m.BufferDepth > 0 && prog.Spills == 0 {
		// Cleanly emitted exposed-datapath code must respect the output
		// buffers; assignment-phase spill patching packs with no buffer
		// model, so only unpatched programs are audited.
		if err := vliwsim.AuditBuffers(prog); err != nil {
			return nil, fmt.Errorf("pipeline %s on %s: %w", method, m.Name, err)
		}
	}
	st.Verified = true
	st.Cycles = res.Cycles
	st.Issued = res.Issued
	st.Utilization = res.Utilization()
	return st, nil
}
