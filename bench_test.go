// Benchmarks: one testing.B target per reproduced table and figure (see
// DESIGN.md's experiment index). Each BenchmarkFx/BenchmarkTx regenerates
// its experiment end to end; run `go test -bench . -benchtime 1x` for one
// full regeneration of everything, or use cmd/ursabench to print the
// tables. The Micro benchmarks isolate the allocator's hot paths.
package ursa_test

import (
	"testing"

	"ursa"
	"ursa/internal/experiments"
	"ursa/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	e := experiments.ByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run()
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + tbl.String())
		}
	}
}

// Paper figures.

func BenchmarkFig2Measurement(b *testing.B)     { benchExperiment(b, "F2") }
func BenchmarkFig3Transformations(b *testing.B) { benchExperiment(b, "F3") }
func BenchmarkURSAConvergence(b *testing.B)     { benchExperiment(b, "F1") }

// Constructed evaluation tables.

func BenchmarkT1PhaseOrdering(b *testing.B)        { benchExperiment(b, "T1") }
func BenchmarkT2RegisterSweep(b *testing.B)        { benchExperiment(b, "T2") }
func BenchmarkT3FUSweep(b *testing.B)              { benchExperiment(b, "T3") }
func BenchmarkT4MeasurementScaling(b *testing.B)   { benchExperiment(b, "T4") }
func BenchmarkT5TransformOrdering(b *testing.B)    { benchExperiment(b, "T5") }
func BenchmarkT6SpillVsSequence(b *testing.B)      { benchExperiment(b, "T6") }
func BenchmarkT7SoftwarePipelining(b *testing.B)   { benchExperiment(b, "T7") }
func BenchmarkT8ResourceClasses(b *testing.B)      { benchExperiment(b, "T8") }
func BenchmarkT9TraceScheduling(b *testing.B)      { benchExperiment(b, "T9") }
func BenchmarkT10PipelinedUnits(b *testing.B)      { benchExperiment(b, "T10") }
func BenchmarkT11OptimizerAblation(b *testing.B)   { benchExperiment(b, "T11") }
func BenchmarkT12SuperscalarInOrder(b *testing.B)  { benchExperiment(b, "T12") }
func BenchmarkT13PrioritizedMatching(b *testing.B) { benchExperiment(b, "T13") }

// Micro-benchmarks on the allocator's hot paths.

func BenchmarkMicroMeasurePaper(b *testing.B) {
	f := ursa.PaperExample(false)
	g, err := ursa.BuildDAG(f.Blocks[0])
	if err != nil {
		b.Fatal(err)
	}
	m := ursa.VLIW(2, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ursa.Requirements(g, m)
	}
}

func BenchmarkMicroAllocatePaper(b *testing.B) {
	f := ursa.PaperExample(true)
	m := ursa.VLIW(2, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := ursa.BuildDAG(f.Blocks[0])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ursa.Allocate(g, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroCompileKernel(b *testing.B) {
	k := ursa.KernelByName("dot")
	f, err := ursa.ParseKernel(k.Source, 2)
	if err != nil {
		b.Fatal(err)
	}
	m := ursa.VLIW(4, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ursa.CompileFunc(f, m, ursa.URSA); err != nil {
			b.Fatal(err)
		}
	}
}

// Parallel-driver benchmarks: the whole kernel suite × every pipeline as
// one job batch, at different worker counts. Compare SuiteCompileJ1 with
// SuiteCompileJ4/J8 for the driver's wall-clock speedup; the compiled
// output is identical at every worker count.

func suiteJobs(b *testing.B) []ursa.Job {
	b.Helper()
	entries, err := workload.Suite(2)
	if err != nil {
		b.Fatal(err)
	}
	m := ursa.VLIW(4, 6)
	var jobs []ursa.Job
	for _, e := range entries {
		for _, method := range ursa.Methods {
			jobs = append(jobs, ursa.Job{
				Name: e.Kernel.Name, Func: e.Func, Machine: m, Method: method,
			})
		}
	}
	return jobs
}

func benchSuiteCompile(b *testing.B, workers int) {
	jobs := suiteJobs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ursa.RunJobs(jobs, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteCompileJ1(b *testing.B) { benchSuiteCompile(b, 1) }
func BenchmarkSuiteCompileJ4(b *testing.B) { benchSuiteCompile(b, 4) }
func BenchmarkSuiteCompileJ8(b *testing.B) { benchSuiteCompile(b, 8) }

// BenchmarkMicroAllocateLayered times URSA allocation of a
// register-pressured block: every retry style, reduced to the machine.
func BenchmarkMicroAllocateLayered(b *testing.B) {
	f := workload.LayeredBlock(8, 3)
	m := ursa.VLIW(4, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := ursa.BuildDAG(f.Blocks[0])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ursa.Allocate(g, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroSimulate(b *testing.B) {
	k := ursa.KernelByName("dot")
	f, err := ursa.ParseKernel(k.Source, 2)
	if err != nil {
		b.Fatal(err)
	}
	m := ursa.VLIW(4, 8)
	fp, _, err := ursa.CompileFunc(f, m, ursa.URSA)
	if err != nil {
		b.Fatal(err)
	}
	init := k.State(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fp.Run(init.Clone(), 10_000_000); err != nil {
			b.Fatal(err)
		}
	}
}
