// Package ursa is the public API of this reproduction of
//
//	Berson, Gupta, Soffa: "URSA: A Unified ReSource Allocator for
//	Registers and Functional Units in VLIW Architectures" (1993).
//
// URSA replaces the classic register-allocation/instruction-scheduling
// phase ordering with unified resource allocation: it measures, on a
// dependence DAG, the maximum number of functional units and registers any
// schedule could demand (minimum chain decompositions of per-resource reuse
// partial orders — Dilworth's theorem realized by bipartite matching), then
// applies DAG transformations — functional-unit sequencing, register
// sequencing, and spilling — until the worst case fits the target machine,
// and only then assigns concrete resources and emits VLIW code.
//
// The package exposes the full pipeline plus the baselines the paper argues
// against (prepass scheduling, postpass scheduling after graph coloring,
// and register-sensitive integrated list scheduling), a parameterizable
// VLIW machine model and simulator, a small kernel language front end,
// Fisher-style trace scheduling, and the paper's software-pipelining
// extension. See DESIGN.md for the system inventory and EXPERIMENTS.md for
// the reproduced results.
//
// Quickstart:
//
//	f := ursa.MustParseIR(src)             // three-address code
//	g, _ := ursa.BuildDAG(f.Blocks[0])     // dependence DAG
//	m := ursa.VLIW(2, 4)                   // 2 FUs, 4 registers per file
//	rep, _ := ursa.Allocate(g, m)          // URSA: measure + transform
//	prog, _ := ursa.Emit(g, m)             // assign + emit VLIW words
//	res, _ := ursa.Simulate(prog, init)    // run on the machine model
package ursa

import (
	"io"
	"time"

	"ursa/internal/assign"
	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/frontend"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/measure"
	"ursa/internal/modsched"
	"ursa/internal/opt"
	"ursa/internal/pipeline"
	"ursa/internal/reuse"
	"ursa/internal/sched"
	"ursa/internal/store"
	"ursa/internal/target"
	"ursa/internal/vliwsim"
	"ursa/internal/workload"
)

// Core types, aliased so callers work directly with the library's data
// structures.
type (
	// Machine describes a target VLIW configuration.
	Machine = machine.Config
	// Func is a function of three-address IR.
	Func = ir.Func
	// Block is a basic block.
	Block = ir.Block
	// Instr is one instruction.
	Instr = ir.Instr
	// State is an interpreter/simulator machine state.
	State = ir.State
	// Addr is a symbolic memory address.
	Addr = ir.Addr
	// Graph is a dependence DAG under allocation.
	Graph = dag.Graph
	// Program is emitted VLIW code.
	Program = assign.Program
	// FuncProgram is a whole compiled function (one Program per block).
	FuncProgram = pipeline.FuncProgram
	// Report describes a URSA allocation run.
	Report = core.Report
	// Stats reports a pipeline compilation/execution.
	Stats = pipeline.Stats
	// SimResult reports a simulation.
	SimResult = vliwsim.Result
	// Method selects a compilation pipeline.
	Method = pipeline.Method
	// Kernel is a named benchmark program.
	Kernel = workload.Kernel
	// AllocOptions tunes the URSA driver.
	AllocOptions = core.Options
	// Policy selects how register and FU transformations interleave.
	Policy = core.Policy
	// CompileOptions configures a pipeline run (optimization, URSA driver
	// tuning, and the worker count for per-block parallel compilation).
	CompileOptions = pipeline.Options
	// Job is one independent compilation work item for RunJobs.
	Job = pipeline.Job
	// JobResult carries one job's outputs.
	JobResult = pipeline.JobResult
	// ResultCache is the tiered compile-result cache (memory → disk →
	// peer) consulted by CompileFuncCached via CompileOptions.Results.
	ResultCache = store.TieredCache
	// CachedFunc is a compile that went through the result cache: the
	// serving tier, the (possibly cache-served) listings, and — when this
	// process compiled — the in-memory program.
	CachedFunc = pipeline.CachedFunc
)

// Compilation pipelines.
const (
	// URSA is the paper's unified allocator.
	URSA = pipeline.URSA
	// Prepass schedules first and patches spill code in afterwards.
	Prepass = pipeline.Prepass
	// Postpass colors registers first, then schedules around the reuse
	// dependences.
	Postpass = pipeline.Postpass
	// IntegratedList is register-pressure-sensitive list scheduling in the
	// style of Goodman & Hsu.
	IntegratedList = pipeline.IntegratedList
	// Exact runs the branch-and-bound optimal solver; it refuses blocks
	// over its node limit, so it is excluded from Methods sweeps and
	// listed only in AllMethods.
	Exact = pipeline.Exact
)

// Transformation-interleaving policies (paper §5).
const (
	// Integrated scores register and FU transformations together.
	Integrated = core.Integrated
	// RegistersFirst runs the register phase before the FU phase.
	RegistersFirst = core.RegistersFirst
	// FUsFirst runs the FU phase first (for ablations).
	FUsFirst = core.FUsFirst
)

// Methods lists all heuristic pipelines in presentation order.
var Methods = pipeline.Methods

// AllMethods additionally includes the node-count-guarded Exact lane.
var AllMethods = pipeline.AllMethods

// VLIW returns the paper's homogeneous machine model: width functional
// units, regs registers in each register file, unit latencies.
func VLIW(width, regs int) *Machine { return machine.VLIW(width, regs) }

// Heterogeneous returns a machine with per-class functional units.
func Heterogeneous(ialu, falu, mem, br, intRegs, fpRegs int) *Machine {
	return machine.Heterogeneous(ialu, falu, mem, br, intRegs, fpRegs)
}

// RealisticLatency is a multi-cycle latency model (mul 2, div 4, memory 2)
// assignable to Machine.Latency.
func RealisticLatency(op ir.Op) int { return machine.RealisticLatency(op) }

// Preset is a named machine configuration from the target catalog — the
// paper's evaluation range plus the clustered, wide-superscalar, and
// exposed-datapath families.
type Preset = target.Preset

// Presets lists the target catalog in presentation order.
func Presets() []Preset { return target.Presets() }

// PresetByName returns the named preset, or nil.
func PresetByName(name string) *Preset { return target.ByName(name) }

// ParseMachineSpec parses a JSON machine spec (the /v1/machines wire form)
// into a validated configuration.
func ParseMachineSpec(data []byte) (*Machine, error) { return machine.ParseSpec(data) }

// MarshalMachineSpec renders a configuration as canonical JSON, the
// inverse of ParseMachineSpec.
func MarshalMachineSpec(m *Machine) ([]byte, error) { return machine.MarshalSpec(m) }

// ParseIR parses textual three-address IR (see internal/ir's format).
func ParseIR(src string) (*Func, error) { return ir.Parse(src) }

// MustParseIR is ParseIR that panics on error.
func MustParseIR(src string) *Func { return ir.MustParse(src) }

// ParseKernel compiles a kernel-language program (see internal/frontend)
// to IR, unrolling constant-trip `for` loops by the given factor (0 or 1
// disables unrolling).
func ParseKernel(src string, unroll int) (*Func, error) {
	u, err := frontend.Compile(src, frontend.Options{Unroll: unroll})
	if err != nil {
		return nil, err
	}
	return u.Func, nil
}

// NewState returns an empty machine state for interpretation or simulation.
func NewState() *State { return ir.NewState() }

// BuildDAG constructs the dependence DAG of a straight-line
// single-assignment block.
func BuildDAG(b *Block) (*Graph, error) { return dag.Build(b) }

// Allocate runs URSA's unified allocation on the DAG (mutating it) against
// the machine, with default options.
func Allocate(g *Graph, m *Machine) (*Report, error) {
	return core.Run(g, core.Options{Machine: m})
}

// AllocateOpts runs URSA with explicit options (policy, trace writer,
// transformation restrictions). The Machine field of opts is overridden.
func AllocateOpts(g *Graph, m *Machine, opts AllocOptions) (*Report, error) {
	opts.Machine = m
	return core.Run(g, opts)
}

// Requirements measures the DAG's current worst-case demand for every
// resource of the machine (paper §3), without transforming anything.
func Requirements(g *Graph, m *Machine) map[string]int {
	out := map[string]int{}
	for _, r := range core.Resources(g, m) {
		out[r.Name] = measure.Measure(r.Build(g)).Width
	}
	return out
}

// FURequirement measures the DAG's worst-case demand for homogeneous
// functional units.
func FURequirement(g *Graph) int {
	return measure.Measure(reuse.FU(g, reuse.AllFUs)).Width
}

// RegRequirement measures the DAG's worst-case demand for integer
// registers.
func RegRequirement(g *Graph) int {
	return measure.Measure(reuse.Reg(g, ir.ClassInt)).Width
}

// Emit schedules the (transformed) DAG and assigns physical registers,
// returning executable VLIW code. If the schedule's pressure exceeds the
// machine (URSA left residual excess, or Allocate was skipped), spill code
// is patched in.
func Emit(g *Graph, m *Machine) (*Program, error) {
	prog, _, err := assign.Emit(g, m, sched.Options{})
	return prog, err
}

// Simulate executes a program on the machine model from a copy of init.
func Simulate(p *Program, init *State) (*SimResult, error) {
	return vliwsim.Run(p, init.Clone())
}

// CompileBlock runs one complete pipeline (URSA or a baseline) on a block.
func CompileBlock(b *Block, m *Machine, method Method) (*Program, *Stats, error) {
	return pipeline.Compile(b, m, method, pipeline.Options{})
}

// EvaluateBlock compiles a block, executes it, verifies the result against
// the sequential interpreter, and returns statistics.
func EvaluateBlock(b *Block, m *Machine, method Method, init *State) (*Stats, error) {
	return pipeline.Evaluate(b, m, method, init, pipeline.Options{})
}

// CompileFunc compiles every block of a function through the pipeline.
func CompileFunc(f *Func, m *Machine, method Method) (*FuncProgram, *Stats, error) {
	return pipeline.CompileFunc(f, m, method, pipeline.Options{})
}

// CompileFuncOpts is CompileFunc with explicit options. Setting
// opts.Workers compiles the function's blocks concurrently; the emitted
// program is identical at every worker count.
func CompileFuncOpts(f *Func, m *Machine, method Method, opts CompileOptions) (*FuncProgram, *Stats, error) {
	return pipeline.CompileFunc(f, m, method, opts)
}

// CacheConfig assembles a tiered compile-result cache for
// OpenResultCacheConfig. The zero value is a memory-only cache with the
// default budget.
type CacheConfig struct {
	// Dir, when non-empty, adds a persistent content-addressed disk tier
	// under that directory.
	Dir string
	// MemBudget bounds the memory tier in bytes (<= 0: 64 MiB).
	MemBudget int64
	// DiskBudget bounds the disk tier in bytes (<= 0: 1 GiB).
	DiskBudget int64
	// PeerURL, when non-empty, adds a remote ursad peer tier
	// ("http://host:8347") consulted on local misses.
	PeerURL string
	// PeerTimeout bounds one peer round-trip (<= 0:
	// store.DefaultPeerTimeout, 2s). Raise it for high-latency links,
	// lower it when a local recompile is cheaper than a slow peer.
	PeerTimeout time.Duration
}

// OpenResultCacheConfig assembles a tiered compile-result cache
// (memory → disk → peer) from cfg. Set the result on
// CompileOptions.Results and compile with CompileFuncCached; see
// docs/CACHE.md.
func OpenResultCacheConfig(cfg CacheConfig) (*ResultCache, error) {
	var disk *store.Store
	if cfg.Dir != "" {
		var err error
		if disk, err = store.Open(cfg.Dir, cfg.DiskBudget); err != nil {
			return nil, err
		}
	}
	var peer *store.PeerClient
	if cfg.PeerURL != "" {
		var err error
		if peer, err = store.NewPeer(cfg.PeerURL, cfg.PeerTimeout); err != nil {
			return nil, err
		}
	}
	return store.NewTiered(cfg.MemBudget, disk, peer), nil
}

// OpenResultCache is OpenResultCacheConfig with positional arguments and
// the default peer timeout, kept for existing callers.
func OpenResultCache(dir string, memBudget, diskBudget int64, peerURL string) (*ResultCache, error) {
	return OpenResultCacheConfig(CacheConfig{
		Dir: dir, MemBudget: memBudget, DiskBudget: diskBudget, PeerURL: peerURL,
	})
}

// CompileFuncCached is CompileFuncOpts behind the tiered result cache in
// opts.Results: a warm key returns the previously emitted listings and
// statistics (byte-identical to the cold compile) without running the
// allocator. The returned CachedFunc names the serving tier; its Prog
// field is non-nil only when this process actually compiled.
func CompileFuncCached(f *Func, m *Machine, method Method, opts CompileOptions) (*CachedFunc, *Stats, error) {
	return pipeline.CompileFuncCached(f, m, method, opts)
}

// RunJobs compiles (and, for jobs with an Init state, executes and
// verifies) a batch of independent function × method jobs across the given
// number of workers (0 or negative: GOMAXPROCS; 1: inline). Results arrive
// in submission order regardless of the worker count; the batch is
// fail-fast, and a panic in one job is captured as that job's error.
func RunJobs(jobs []Job, workers int) ([]JobResult, error) {
	return pipeline.RunJobs(jobs, workers)
}

// EvaluateFunc compiles and runs a whole function, verifying its memory
// effects against the interpreter. maxCycles bounds execution.
func EvaluateFunc(f *Func, m *Machine, method Method, init *State, maxCycles int) (*Stats, error) {
	return pipeline.EvaluateFunc(f, m, method, init, maxCycles, pipeline.Options{})
}

// Loop pipelining (iterative modulo scheduling driven by URSA's kernel
// measurement; see docs/LOOPS.md).
type (
	// LoopResult is the outcome of software-pipelining a function: the
	// transformed IR plus one LoopReport per pipelined loop.
	LoopResult = modsched.Result
	// LoopReport describes one pipelined loop — achieved initiation
	// interval against the resMII/recMII lower bounds, the modulo
	// variable expansion unroll factor, and kernel size.
	LoopReport = modsched.LoopReport
	// LoopOptions tunes the II and unroll search.
	LoopOptions = modsched.Options
)

// ErrNoLoop reports that a function contains no canonical counted loop the
// modulo scheduler can pipeline.
var ErrNoLoop = modsched.ErrNoLoop

// PipelineLoops software-pipelines every canonical counted loop in f for
// machine m: it computes MII = max(resMII, recMII) from the loop-carried
// dependence graph, searches upward for the smallest initiation interval
// with a feasible modulo schedule, picks a modulo-variable-expansion unroll
// whose flattened kernel URSA can allocate spill-free, and emits
// guard/kernel/remainder blocks as ordinary IR. The input is not mutated.
func PipelineLoops(f *Func, m *Machine) (*LoopResult, error) {
	return modsched.Pipeline(f, m, modsched.Options{})
}

// CompileLoopFunc software-pipelines f's loops (PipelineLoops) and then
// compiles the transformed function with the requested method, returning
// the per-loop reports alongside the program.
func CompileLoopFunc(f *Func, m *Machine, method Method, opts CompileOptions) (*FuncProgram, *Stats, *LoopResult, error) {
	return pipeline.CompileLoopFunc(f, m, method, opts)
}

// CompileLoopFuncCached is CompileLoopFunc behind the tiered result cache
// in opts.Results, under a cache key domain-separated from the straight
// compile's so the two artifact families never collide.
func CompileLoopFuncCached(f *Func, m *Machine, method Method, opts CompileOptions) (*CachedFunc, *Stats, *LoopResult, error) {
	return pipeline.CompileLoopCached(f, m, method, opts)
}

// OptStats counts the rewrites Optimize performed.
type OptStats = opt.Stats

// Optimize runs the block-local scalar optimizations (constant folding,
// copy propagation, CSE, dead code elimination) on every block of the
// function, in place, and returns the rewrite counts. Semantics are
// preserved exactly.
func Optimize(f *Func) OptStats { return opt.Func(f) }

// Kernels returns the built-in benchmark suite.
func Kernels() []*Kernel { return workload.Kernels() }

// KernelByName returns a built-in kernel, or nil.
func KernelByName(name string) *Kernel { return workload.KernelByName(name) }

// PaperExample returns the paper's Figure 2 block (store=true appends the
// consuming store), and PaperInit its canonical input.
func PaperExample(store bool) *Func { return workload.PaperExample(store) }

// PaperInit returns the canonical input state for PaperExample.
func PaperInit() *State { return workload.PaperInit() }

// Dot renders a DAG in Graphviz format.
func Dot(g *Graph, title string) string { return g.Dot(title) }

// ReuseDotFU renders the functional-unit Reuse DAG (paper §3, Def. 4).
func ReuseDotFU(g *Graph, title string) string {
	return reuse.FU(g, reuse.AllFUs).Dot(title)
}

// ReuseDotReg renders the integer-register Reuse DAG with each value's
// selected kill (paper §3.2).
func ReuseDotReg(g *Graph, title string) string {
	return reuse.Reg(g, ir.ClassInt).Dot(title)
}

// TraceWriter is accepted by AllocOptions.Trace.
type TraceWriter = io.Writer
