package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/measure"
	"ursa/internal/metrics"
	"ursa/internal/target"
)

// runVariant compiles a private clone of f under opts and returns the
// report. Each variant gets its own Func and cache so spill-reload register
// names and memoized measurements cannot leak between the runs being
// compared. On clustered machines the block is partitioned first, as the
// pipeline does, so inter-cluster copies and copy-spill candidates exist.
func runVariant(t *testing.T, f *ir.Func, opts Options, style scoreStyle) *Report {
	t.Helper()
	cl := f.Clone()
	if _, err := target.Clusterize(cl.Blocks[0], opts.Machine); err != nil {
		t.Fatalf("Clusterize: %v", err)
	}
	g, err := dag.Build(cl.Blocks[0])
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	opts.Cache = measure.NewCache()
	rep, err := runOnce(g, opts, style)
	if err != nil {
		t.Fatalf("runOnce: %v", err)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("invalid graph after run: %v", err)
	}
	return rep
}

func reportsEqual(a, b *Report) string {
	if !reflect.DeepEqual(a.Applied, b.Applied) {
		return fmt.Sprintf("applied sequence diverged:\n got %+v\nwant %+v", b.Applied, a.Applied)
	}
	if a.Iterations != b.Iterations || a.SpillsInserted != b.SpillsInserted {
		return fmt.Sprintf("iters/spills diverged: %d/%d vs %d/%d",
			b.Iterations, b.SpillsInserted, a.Iterations, a.SpillsInserted)
	}
	if !reflect.DeepEqual(a.FinalWidths, b.FinalWidths) {
		return fmt.Sprintf("final widths diverged: %v vs %v", b.FinalWidths, a.FinalWidths)
	}
	if a.Fits != b.Fits || a.ScheduleClean != b.ScheduleClean {
		return fmt.Sprintf("fit verdict diverged: fits=%v clean=%v vs fits=%v clean=%v",
			b.Fits, b.ScheduleClean, a.Fits, a.ScheduleClean)
	}
	return ""
}

// TestFreshVsPooledEvaluator: over 500 fuzzed blocks, machines, and
// tie-break styles, the pooled incremental evaluator (persistent scratch
// arenas, slab relations, warm-started matchers) commits exactly the same
// transformation sequence as the fresh clone-per-candidate reference path
// (DisableIncremental). This is the contract that lets every pool reset
// protocol change land without re-auditing the reduction loop: any missed
// reset or stale arena state shows up as a diverged Applied sequence. The
// machines span every target family the evaluator serves — classic,
// clustered (per-cluster register files, the copy bus, copy-spills), and
// buffered exposed datapath.
func TestFreshVsPooledEvaluator(t *testing.T) {
	trials := 500
	if testing.Short() || raceEnabled {
		trials = 60
	}
	rng := rand.New(rand.NewSource(11))
	machines := []*machine.Config{
		machine.VLIW(1, 3), machine.VLIW(1, 4), machine.VLIW(2, 3),
		machine.VLIW(2, 4), machine.VLIW(3, 4), machine.VLIW(4, 6),
		machine.Clustered(2, 1, 3, 1), machine.Clustered(2, 2, 4, 1), machine.Clustered(4, 1, 3, 2),
		machine.ExposedDatapath(2, 4, 1), machine.ExposedDatapath(2, 6, 1), machine.ExposedDatapath(4, 6, 2),
	}
	styles := []scoreStyle{styleDefault, styleAggressive, styleSpillFirst}
	for trial := 0; trial < trials; trial++ {
		f := randomBlock(rng, 6+rng.Intn(16))
		m := machines[rng.Intn(len(machines))]
		style := styles[trial%len(styles)]

		fresh := runVariant(t, f, Options{Machine: m, Workers: 1, DisableIncremental: true}, style)
		pooled := runVariant(t, f, Options{Machine: m, Workers: 1}, style)
		if diff := reportsEqual(fresh, pooled); diff != "" {
			t.Fatalf("trial %d (%s, style %d): %s", trial, m.Name, style, diff)
		}
	}
}

// TestSpeculationDeterminismAcrossWorkers: with speculation actually
// engaged (workers > 1 requires GOMAXPROCS > 1, which this test forces),
// the applied sequence at -j 4 and -j 8 is identical to -j 1, where
// speculation is structurally off. Run under -race this also sweeps the
// speculating goroutines — scratch arenas, the shared iteration state, and
// the measurement cache's flight coalescing — for data races.
func TestSpeculationDeterminismAcrossWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	trials := 12
	if testing.Short() {
		trials = 4
	}
	specBefore := metrics.SpeculativeEvals()
	rng := rand.New(rand.NewSource(17))
	machines := []*machine.Config{machine.VLIW(1, 3), machine.VLIW(2, 3), machine.VLIW(1, 4)}
	for trial := 0; trial < trials; trial++ {
		f := randomBlock(rng, 14+rng.Intn(12))
		m := machines[trial%len(machines)]
		for _, style := range []scoreStyle{styleDefault, styleSpillFirst} {
			ref := runVariant(t, f, Options{Machine: m, Workers: 1}, style)
			for _, w := range []int{4, 8} {
				rep := runVariant(t, f, Options{Machine: m, Workers: w}, style)
				if diff := reportsEqual(ref, rep); diff != "" {
					t.Fatalf("trial %d (%s, style %d, -j %d): %s", trial, m.Name, style, w, diff)
				}
			}
		}
	}
	if metrics.SpeculativeEvals() == specBefore {
		t.Error("sweep never engaged speculation; workload needs retuning")
	}
}
