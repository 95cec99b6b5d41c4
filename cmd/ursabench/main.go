// Command ursabench regenerates every table and figure of the evaluation
// (see DESIGN.md's experiment index and EXPERIMENTS.md for the recorded
// outputs). Each experiment recomputes its results from scratch: the paper
// figures are checked exactly, and the constructed tables compare URSA
// against the phase-ordered baselines.
//
// Usage:
//
//	ursabench                        # run everything
//	ursabench -j 8                   # fan each experiment's jobs over 8 workers
//	ursabench T1 T2                  # run selected experiments
//	ursabench -list                  # list experiment ids
//	ursabench -benchjson BENCH_core.json
//	                                 # run the reduction-loop benchmarks
//	                                 # instead and write timings as JSON
//	ursabench -benchjson /tmp/now.json -baseline BENCH_core.json
//	                                 # ...then gate against the committed
//	                                 # baseline: exit 1 on any >15% ns/op
//	                                 # regression (-maxregress to adjust)
//	ursabench -compare /tmp/now.json -baseline BENCH_core.json
//	                                 # gate a previous -benchjson run
//	                                 # without re-running the suite
//
// Tables go to stdout and are byte-identical at every -j setting; timing
// lines go to stderr.
//
// -benchjson runs internal/bench's suite (BenchmarkPickBest,
// BenchmarkReduceLarge; full vs incremental modes) three times each through
// testing.Benchmark and writes one {name, ns/op, allocs/op, bytes/op}
// object per benchmark, from its median-ns/op run — the repo's perf trajectory. The committed baseline
// lives at BENCH_core.json; regenerate it on perf-relevant changes and let
// the diff tell the story.
//
// -baseline (with -benchjson) compares the fresh run against a committed
// baseline after writing it: every pairing is printed to stderr, and the
// process exits 1 if any benchmark regressed past its gate — ns/op by more
// than -maxregress percent (default 15), allocs/op by more than
// -maxallocregress (default 10), bytes/op by more than -maxbytesregress
// (default 15; negative disables a gate) — or a baseline benchmark is
// missing from the run. Wall time is noisy on shared runners; allocs/op is
// deterministic, so it carries the tighter default gate. CI's
// bench-regression job is exactly this invocation; an intentional slowdown
// lands by regenerating BENCH_core.json in the same change (see
// docs/PERF.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ursa/internal/bench"
	"ursa/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	jobs := flag.Int("j", 0, "workers per experiment (0: all cores, 1: sequential)")
	benchJSON := flag.String("benchjson", "", "run the reduction-loop benchmarks and write JSON timings to this path")
	compare := flag.String("compare", "", "gate a previously written -benchjson file against -baseline instead of re-running the suite")
	baseline := flag.String("baseline", "", "with -benchjson or -compare: gate the run against this committed baseline (exit 1 on regression)")
	maxRegress := flag.Float64("maxregress", 15, "with -baseline: max tolerated ns/op regression, percent (negative disables)")
	maxAllocRegress := flag.Float64("maxallocregress", 10, "with -baseline: max tolerated allocs/op regression, percent (negative disables)")
	maxBytesRegress := flag.Float64("maxbytesregress", 15, "with -baseline: max tolerated bytes/op regression, percent (negative disables)")
	flag.Parse()
	experiments.SetParallelism(*jobs)

	if *benchJSON != "" || *compare != "" {
		var entries []bench.Entry
		if *compare != "" {
			// Compare-only: gate an earlier run's JSON without paying for
			// the suite again (CI runs once, then gates ns and allocs in
			// separate named steps).
			if *baseline == "" {
				fmt.Fprintln(os.Stderr, "ursabench: -compare requires -baseline")
				os.Exit(1)
			}
			var err error
			if entries, err = bench.ReadJSON(*compare); err != nil {
				fmt.Fprintf(os.Stderr, "ursabench: %v\n", err)
				os.Exit(1)
			}
		} else {
			entries = bench.Run(bench.Suite())
			for _, e := range entries {
				fmt.Fprintln(os.Stderr, e)
			}
			if err := bench.WriteJSON(*benchJSON, entries); err != nil {
				fmt.Fprintf(os.Stderr, "ursabench: %v\n", err)
				os.Exit(1)
			}
		}
		if *baseline != "" {
			base, err := bench.ReadJSON(*baseline)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ursabench: %v\n", err)
				os.Exit(1)
			}
			gate := bench.Gate{
				MaxNsPct:     *maxRegress,
				MaxAllocsPct: *maxAllocRegress,
				MaxBytesPct:  *maxBytesRegress,
			}
			deltas, regressions, missing := bench.Compare(base, entries, gate)
			fmt.Fprintf(os.Stderr, "vs %s (gates: ns +%.0f%%, allocs +%.0f%%, bytes +%.0f%%):\n",
				*baseline, *maxRegress, *maxAllocRegress, *maxBytesRegress)
			for _, d := range deltas {
				fmt.Fprintln(os.Stderr, d)
			}
			for _, name := range missing {
				fmt.Fprintf(os.Stderr, "ursabench: baseline benchmark %q missing from this run\n", name)
			}
			if len(regressions) > 0 || len(missing) > 0 {
				for _, d := range regressions {
					fmt.Fprintf(os.Stderr, "ursabench: REGRESSION %s: %s\n", d.Name, strings.Join(d.Why, "; "))
				}
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "ursabench: no regressions")
		}
		return
	}
	if *baseline != "" {
		fmt.Fprintln(os.Stderr, "ursabench: -baseline requires -benchjson")
		os.Exit(1)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Println(e.ID)
		}
		return
	}

	selected := experiments.All()
	if flag.NArg() > 0 {
		selected = selected[:0]
		for _, id := range flag.Args() {
			e := experiments.ByID(id)
			if e == nil {
				fmt.Fprintf(os.Stderr, "ursabench: unknown experiment %q\n", id)
				os.Exit(1)
			}
			selected = append(selected, *e)
		}
	}

	failed := 0
	for _, e := range selected {
		start := time.Now()
		tbl, err := e.Run()
		if tbl != nil {
			fmt.Println(tbl)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ursabench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		// Timing goes to stderr: stdout must be byte-identical across -j
		// settings and runs.
		fmt.Fprintf(os.Stderr, "(%s in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
		fmt.Println()
	}
	if failed > 0 {
		os.Exit(1)
	}
}
