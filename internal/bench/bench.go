// Package bench defines the repo's reduction-loop benchmark suite and the
// machine-readable timing format behind BENCH_core.json — the perf
// trajectory the incremental remeasurement engine is held against.
//
// The same suite runs two ways: `go test -bench` via the wrappers in
// bench_test.go (CI runs them under -race with -benchtime=1x as a smoke
// test), and `ursabench -benchjson <path>`, which executes every benchmark
// through testing.Benchmark and writes the results as JSON so successive
// commits can be compared mechanically.
package bench

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"

	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/frontend"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/measure"
	"ursa/internal/modsched"
	"ursa/internal/pipeline"
	"ursa/internal/reuse"
	"ursa/internal/target"
	"ursa/internal/workload"
)

// An Entry is one benchmark's measured timing in BENCH_core.json.
type Entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns/op"`
	AllocsPerOp int64   `json:"allocs/op"`
	BytesPerOp  int64   `json:"bytes/op"`
}

// A Named pairs a benchmark body with its canonical name.
type Named struct {
	Name  string
	Bench func(b *testing.B)
}

// pickBestGraph builds the large ScoreCandidates workload: a wide layered
// block whose FU and register demand both far exceed the target machine, so
// one evaluation round scores a full candidate slate.
func pickBestGraph() (*dag.Graph, *machine.Config) {
	return workload.MustBuild(workload.LayeredBlock(12, 6)), machine.VLIW(4, 6)
}

// reduceGraph builds the BenchmarkReduceLarge workload: big enough that the
// reduction loop runs many iterations.
func reduceGraph() (*dag.Graph, *machine.Config) {
	return workload.MustBuild(workload.LayeredBlock(12, 6)), machine.VLIW(4, 8)
}

// benchScore times one candidate-evaluation round (the work pickBest
// triggers per reduction iteration).
func benchScore(g *dag.Graph, m *machine.Config, opts core.Options) func(b *testing.B) {
	return func(b *testing.B) {
		opts.Machine = m
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.ScoreCandidates(g, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchReduce times a full allocation run (every style retry included).
func benchReduce(g *dag.Graph, m *machine.Config, opts core.Options) func(b *testing.B) {
	return func(b *testing.B) {
		opts.Machine = m
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cl := g.Clone()
			cl.Func = g.Func.Clone()
			if _, err := core.Run(cl, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// layerOrder returns one candidate's measurement input on the ReduceLarge
// graph: the integer register order after a sequencing edge that leaves the
// kills as they were, the committed measurement of the order before the
// edge (a valid warm start, since the order only gained pairs), and the
// graph's nesting levels. The edge is the first such pair of independent
// instructions in node order, so the fixture is deterministic.
func layerOrder() (prev *measure.Result, next *reuse.Reuse, levels []int) {
	g, _ := reduceGraph()
	prev = measure.Measure(reuse.Reg(g, ir.ClassInt))
	reach := g.Reach()
	ins := g.InstrNodes()
	for _, u := range ins {
		for _, v := range ins {
			if u == v || reach.Has(u, v) || reach.Has(v, u) {
				continue
			}
			cl := g.Clone()
			cl.AddEdge(u, v, dag.EdgeSeq)
			r := reuse.Reg(cl, ir.ClassInt)
			if slices.Equal(r.Kill, prev.R.Kill) && r.Rel.Pairs() > prev.R.Rel.Pairs() {
				return prev, r, g.NestLevels(g.Hammocks())
			}
		}
	}
	panic("bench: no kill-preserving sequencing edge in the ReduceLarge graph")
}

// benchWidth times the candidate scorer's width primitive on one reuse
// order: a cold matching (the spill and kill-shift path) and a matching
// warm-started from the committed measurement (the sequencing path).
func benchWidth(b *testing.B) {
	prev, r, _ := layerOrder()
	var s measure.DeltaScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measure.Width(nil, r, &s)
		measure.Width(prev, r, &s)
	}
}

// benchChains times the committed measurement's matching: the
// hammock-prioritized minimum chain decomposition of the same order.
func benchChains(b *testing.B) {
	_, r, levels := layerOrder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measure.Chains(r, levels)
	}
}

// benchKills times one cold register build on the ReduceLarge graph:
// item collection, use lists, kill selection by greedy minimum cover and
// the CanReuse pairs, into a builder whose storage is warm.
func benchKills(b *testing.B) {
	g, _ := reduceGraph()
	reach, depths := g.Reach(), g.Depths()
	spec := reuse.RegSpec(ir.ClassInt)
	var rb reuse.Builder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.Build(g, &spec, reach, depths, nil, nil)
	}
}

// benchExcess times the excess-set search candidate generation runs on
// the ReduceLarge graph's committed integer register measurement at the
// machine's register limit: the innermost and the outermost excessive
// chain set.
func benchExcess(b *testing.B) {
	g, m := reduceGraph()
	res := measure.Measure(reuse.Reg(g, ir.ClassInt))
	hs := g.Hammocks()
	limit := m.Regs[ir.ClassInt]
	var s measure.ExcessScratch
	if inner, _ := measure.InnerOuter(res, hs, limit, &s); inner == nil {
		b.Fatal("no excessive chain set in the ReduceLarge graph")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measure.InnerOuter(res, hs, limit, &s)
	}
}

// A simRun is one compiled function and the input state it runs from.
type simRun struct {
	fp   *pipeline.FuncProgram
	init *ir.State
}

// simRuns compiles the Layer/simulate workload once: four suite kernels
// unrolled twice and the modulo-scheduled saxpy loop, URSA on vliw4x8,
// each with its seed-1 input state.
var simRuns = sync.OnceValue(func() []simRun {
	m := target.ByName("vliw4x8").Config
	compile := func(name string, unroll int, loop bool) simRun {
		k := workload.KernelByName(name)
		u, err := k.Unit(unroll)
		var fp *pipeline.FuncProgram
		if err == nil && loop {
			fp, _, _, err = pipeline.CompileLoopFunc(u.Func, m, pipeline.URSA, pipeline.Options{})
		} else if err == nil {
			fp, _, err = pipeline.CompileFunc(u.Func, m, pipeline.URSA, pipeline.Options{})
		}
		if err != nil {
			panic(fmt.Sprintf("bench: %s: %v", name, err))
		}
		return simRun{fp, k.State(1)}
	}
	return []simRun{compile("fir8", 2, false), compile("dot", 2, false), compile("hydro", 2, false),
		compile("maxloc", 2, false), compile("saxpy", 1, true)}
})

// benchSimulate times the simulate layer: FuncProgram.Run, which every
// run request, Evaluate and the diffexec oracle go through, over the
// simRuns functions.
func benchSimulate(b *testing.B) {
	runs := simRuns()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range runs {
			if _, err := r.fp.Run(r.init, 10_000_000); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// spillBlock returns the spill-commit workload: the first of the largest
// blocks of the matmul4 kernel unrolled four times, on the vliw2x4 preset
// the compile-vliw benchmark pairs it with. Its reduction commits several
// spills.
func spillBlock() (*dag.Graph, *machine.Config) {
	unit, err := workload.KernelByName("matmul4").Unit(4)
	if err != nil {
		panic(err)
	}
	var blk *ir.Block
	for _, bl := range unit.Func.Blocks {
		if blk == nil || len(bl.Instrs) > len(blk.Instrs) {
			blk = bl
		}
	}
	g, err := dag.Build(blk)
	if err != nil {
		panic(err)
	}
	return g, target.ByName("vliw2x4").Config
}

// benchLoopPipeline times the whole modulo-scheduling transform of one
// kernel — recognition, MII bounds, the II × blocking-factor search with
// URSA's kernel measurement in the acceptance loop, and emission.
func benchLoopPipeline(kernelName string, m *machine.Config) func(b *testing.B) {
	return func(b *testing.B) {
		k := workload.KernelByName(kernelName)
		u, err := frontend.Compile(k.Source, frontend.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := modsched.Pipeline(u.Func, m, modsched.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchTargetCompile times an end-to-end pipeline.Compile of a layered
// block on one extended-family preset — clusterization, inter-cluster copy
// pricing, buffer auditing, and every fallback lane included — so the
// committed baseline tracks what the target-diversity families cost on top
// of the classic VLIW path.
func benchTargetCompile(preset string, width, depth int) func(b *testing.B) {
	return func(b *testing.B) {
		p := target.ByName(preset)
		if p == nil {
			b.Fatalf("preset %s missing from the catalog", preset)
		}
		f := workload.LayeredBlock(width, depth)
		blk := f.Blocks[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := pipeline.Compile(blk, p.Config, pipeline.URSA, pipeline.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Suite returns the reduction-loop benchmarks in canonical order.
func Suite() []Named {
	pg, pm := pickBestGraph()
	rg, rm := reduceGraph()
	sg, sm := spillBlock()
	return []Named{
		{"PickBest/incremental", benchScore(pg, pm, core.Options{Workers: 1})},
		{"ReduceLarge/incremental", benchReduce(rg, rm, core.Options{Workers: 1})},
		{"Layer/width", benchWidth},
		{"Layer/chains", benchChains},
		{"Layer/kills", benchKills},
		{"Layer/excess", benchExcess},
		{"Layer/simulate", benchSimulate},
		{"Spill/run-matmul4-vliw2x4", benchReduce(sg, sm, core.Options{Workers: 1})},
		{"Loop/pipeline-saxpy", benchLoopPipeline("saxpy", machine.VLIW(4, 12))},
		{"Loop/pipeline-stencil3", benchLoopPipeline("stencil3", machine.VLIW(4, 12))},
		{"Target/clustered-clus2x2x4", benchTargetCompile("clus2x2x4", 8, 4)},
		{"Target/clustered-clus4x2x4", benchTargetCompile("clus4x2x4", 8, 4)},
		{"Target/superscalar-suprax12", benchTargetCompile("suprax12", 8, 4)},
		{"Target/edp-edp4x8b2", benchTargetCompile("edp4x8b2", 8, 4)},
		{"Target/edp-evict-edp2x6b1", benchTargetCompile("edp2x6b1", 8, 4)},
	}
}

// runsPerRow is how many testing.Benchmark runs each row takes. The row
// records the run with the median ns/op, so one run slowed by a neighbour
// on a shared host does not move the ledger.
const runsPerRow = 3

// Run executes every benchmark runsPerRow times through testing.Benchmark
// and returns, in suite order, each benchmark's median-ns/op run.
func Run(suite []Named) []Entry {
	entries := make([]Entry, 0, len(suite))
	runs := make([]Entry, runsPerRow)
	for _, n := range suite {
		for i := range runs {
			r := testing.Benchmark(n.Bench)
			runs[i] = Entry{
				Name:        n.Name,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			}
		}
		entries = append(entries, medianRun(runs))
	}
	return entries
}

// medianRun returns the run with the median ns/op, reordering runs.
func medianRun(runs []Entry) Entry {
	slices.SortFunc(runs, func(a, b Entry) int { return cmp.Compare(a.NsPerOp, b.NsPerOp) })
	return runs[len(runs)/2]
}

// WriteJSON writes the entries to path in the BENCH_core.json schema:
// a JSON array of {name, ns/op, allocs/op, bytes/op} objects, indented and
// newline-terminated so committed baselines diff cleanly.
func WriteJSON(path string, entries []Entry) error {
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// String renders one entry for human consumption.
func (e Entry) String() string {
	return fmt.Sprintf("%-32s %12.0f ns/op %8d B/op %6d allocs/op",
		e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
}
