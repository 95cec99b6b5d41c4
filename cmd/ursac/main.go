// Command ursac is the compiler driver: it reads a program — textual
// three-address IR (.tac) or the kernel language (.k) — compiles it with a
// selected pipeline onto a configurable VLIW machine, and prints the
// resulting instruction words, allocation report, and (optionally) the
// result of executing the code on the simulator.
//
// Usage:
//
//	ursac -pipeline ursa -width 4 -regs 8 [-j N] [-kernel] [-unroll N]
//	      [-loop] [-cache-dir DIR] [-run] [-dot] file
//
// With no file, a built-in demo (the paper's Figure 2 example) compiles.
// With -loop, canonical counted loops are software-pipelined by iterative
// modulo scheduling before compilation; each loop's achieved initiation
// interval is reported against its resMII/recMII lower bounds, and with
// -run on a kernel-language input the pipelined cycle count is compared
// against a straight unroll sweep.
// With -cache-dir, compile results persist in a content-addressed store:
// a rerun with identical inputs replays the emitted listing (stdout is
// byte-identical) and reports the serving tier on stderr ("# cache: disk").
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"ursa"
	"ursa/internal/ir"
)

func main() {
	var (
		pipelineName = flag.String("pipeline", "ursa", "pipeline: ursa, prepass, postpass, integrated-list")
		width        = flag.Int("width", 4, "functional units (homogeneous)")
		regs         = flag.Int("regs", 8, "registers per register file")
		machineFlag  = flag.String("machine", "", "target: a preset name (see -machine list), a machine-spec JSON file, or inline JSON starting with '{'; overrides -width/-regs")
		kernel       = flag.Bool("kernel", false, "input is kernel language (default: .k files)")
		unroll       = flag.Int("unroll", 0, "unroll factor for kernel-language for loops")
		loop         = flag.Bool("loop", false, "software-pipeline counted loops (modulo scheduling) before compiling")
		run          = flag.Bool("run", false, "execute the compiled code on the simulator")
		dot          = flag.Bool("dot", false, "print the dependence DAG (first block) in DOT instead of compiling")
		trace        = flag.Bool("trace", false, "print the allocator's transformation trace")
		realistic    = flag.Bool("latency", false, "use realistic multi-cycle latencies")
		optimize     = flag.Bool("O", false, "run scalar optimizations (fold/copy/CSE/DCE) before compiling")
		jobs         = flag.Int("j", 0, "compile blocks with N parallel workers (0: all cores, 1: sequential)")
		cacheDir     = flag.String("cache-dir", "", "persistent compile-result cache directory; warm keys skip the allocator (ignored with -run)")
	)
	flag.Parse()

	if *machineFlag == "list" {
		for _, p := range ursa.Presets() {
			fmt.Printf("%-14s %s\n", p.Name, p.Description)
		}
		return
	}

	method, ok := parseMethod(*pipelineName)
	if !ok {
		fatalf("unknown pipeline %q", *pipelineName)
	}
	m, err := resolveMachine(*machineFlag, *width, *regs, *realistic)
	if err != nil {
		fatalf("%v", err)
	}

	f, kernelSrc, err := loadInput(flag.Arg(0), *kernel, *unroll)
	if err != nil {
		fatalf("%v", err)
	}
	if *optimize {
		st := ursa.Optimize(f)
		fmt.Fprintf(os.Stderr, "# optimizer: %s\n", st.String())
	}

	if *dot {
		g, err := ursa.BuildDAG(f.Blocks[0])
		if err != nil {
			fatalf("building DAG: %v", err)
		}
		fmt.Print(ursa.Dot(g, f.Name))
		return
	}

	if *trace && method == ursa.URSA {
		// Show the allocation narrative for the first block before the
		// full compilation.
		g, err := ursa.BuildDAG(f.Blocks[0])
		if err != nil {
			fatalf("building DAG: %v", err)
		}
		if _, err := ursa.AllocateOpts(g, m, ursa.AllocOptions{Trace: os.Stderr}); err != nil {
			fatalf("allocate: %v", err)
		}
	}

	workers := *jobs
	if workers == 0 {
		workers = -1 // pipeline convention: negative means GOMAXPROCS
	}
	opts := ursa.CompileOptions{Workers: workers}
	if *cacheDir != "" && !*run {
		// A cached artifact stores listings, not executable code, so -run
		// always compiles fresh.
		rc, err := ursa.OpenResultCache(*cacheDir, 0, 0, "")
		if err != nil {
			fatalf("cache: %v", err)
		}
		opts.Results = rc
	}
	var (
		cf      *ursa.CachedFunc
		stats   *ursa.Stats
		loopRep *ursa.LoopResult
	)
	if *loop {
		cf, stats, loopRep, err = ursa.CompileLoopFuncCached(f, m, method, opts)
	} else {
		cf, stats, err = ursa.CompileFuncCached(f, m, method, opts)
	}
	if err != nil {
		fatalf("compile: %v", err)
	}
	if opts.Results != nil {
		// On stderr so warm and cold runs stay byte-identical on stdout.
		fmt.Fprintf(os.Stderr, "# cache: %s\n", cf.ServedBy())
	}
	fmt.Printf("# %s: %s pipeline on %s\n", f.Name, method, m)
	fmt.Print(cf.Listing())
	fmt.Printf("# words=%d spill-ops=%d regs-used=%d int / %d fp\n",
		stats.Words, stats.SpillOps, stats.RegsUsed[0], stats.RegsUsed[1])
	if method == ursa.URSA {
		fmt.Printf("# ursa: %d transformations, fits=%v\n", stats.URSATransforms, stats.URSAFits)
	}
	if loopRep != nil {
		for _, l := range loopRep.Loops {
			fmt.Printf("# loop %s: II=%d vs MII=%d (res=%d rec=%d), unroll=%d, kernel=%d words, achieved II=%d\n",
				l.HeadLabel, l.II, l.MII, l.ResMII, l.RecMII, l.Unroll, l.KernelWords, l.AchievedII)
		}
	}

	if *run {
		res, err := cf.Prog.Run(ursa.NewState(), 10_000_000)
		if err != nil {
			fatalf("run: %v", err)
		}
		fmt.Printf("# executed: %d cycles, %d instructions (%.2f ipc), %d spill ops\n",
			res.Cycles, res.Issued, float64(res.Issued)/float64(res.Cycles), res.SpillOps)
		printMem(res.State)
		if *loop && kernelSrc != "" {
			sweepBaseline(kernelSrc, m, method, res.Cycles)
		}
	}
}

// sweepBaseline compiles the kernel source without pipelining at unroll
// factors 1..8 on an empty initial state and prints each cycle count next
// to the modulo-scheduled one, so -loop output shows what the transform
// bought over plain unrolling.
func sweepBaseline(src string, m *ursa.Machine, method ursa.Method, loopCycles int) {
	fmt.Printf("# unroll-sweep baseline (straight %s pipeline):\n", method)
	best := 0
	for _, u := range []int{1, 2, 4, 8} {
		uf, err := ursa.ParseKernel(src, u)
		if err != nil {
			continue
		}
		fp, _, err := ursa.CompileFunc(uf, m, method)
		if err != nil {
			fmt.Printf("#   unroll=%d: compile failed (%v)\n", u, err)
			continue
		}
		res, err := fp.Run(ursa.NewState(), 10_000_000)
		if err != nil {
			fmt.Printf("#   unroll=%d: run failed (%v)\n", u, err)
			continue
		}
		fmt.Printf("#   unroll=%d: %d cycles\n", u, res.Cycles)
		if best == 0 || res.Cycles < best {
			best = res.Cycles
		}
	}
	if best > 0 {
		fmt.Printf("# modulo-scheduled: %d cycles vs best sweep %d (%.2fx)\n",
			loopCycles, best, float64(best)/float64(loopCycles))
	}
}

// printMem dumps the final non-spill memory cells in sorted order.
func printMem(st *ursa.State) {
	type cell struct {
		addr ursa.Addr
		val  int64
	}
	var cells []cell
	for a, w := range st.Mem {
		if ir.IsSpillSlot(a.Sym) {
			continue
		}
		cells = append(cells, cell{a, w.Int()})
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].addr.Sym != cells[j].addr.Sym {
			return cells[i].addr.Sym < cells[j].addr.Sym
		}
		return cells[i].addr.Off < cells[j].addr.Off
	})
	for _, c := range cells {
		fmt.Printf("# mem %s[%d] = %d\n", c.addr.Sym, c.addr.Off, c.val)
	}
}

// resolveMachine turns the -machine flag into a configuration: empty means
// the classic -width/-regs homogeneous VLIW, "{"-prefixed text is an inline
// JSON machine spec, an existing file is read as a JSON spec, and anything
// else must be a preset name from the target catalog. -latency composes
// only with the flag-built machine; presets and specs carry their own
// latency model.
func resolveMachine(sel string, width, regs int, realistic bool) (*ursa.Machine, error) {
	if sel == "" {
		m := ursa.VLIW(width, regs)
		if realistic {
			m.Latency = ursa.RealisticLatency
		}
		return m, nil
	}
	if realistic {
		return nil, fmt.Errorf("-latency conflicts with -machine: the latency model belongs to the preset or spec")
	}
	if len(sel) > 0 && sel[0] == '{' {
		return ursa.ParseMachineSpec([]byte(sel))
	}
	if data, err := os.ReadFile(sel); err == nil {
		return ursa.ParseMachineSpec(data)
	}
	if p := ursa.PresetByName(sel); p != nil {
		return p.Config, nil
	}
	var names []string
	for _, p := range ursa.Presets() {
		names = append(names, p.Name)
	}
	return nil, fmt.Errorf("unknown machine %q (presets: %v; or pass a JSON spec file or inline JSON)", sel, names)
}

func parseMethod(name string) (ursa.Method, bool) {
	for _, m := range ursa.Methods {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

// loadInput reads and parses the program; for kernel-language inputs it
// also returns the source text so -loop can rerun the unroll sweep.
func loadInput(path string, kernel bool, unroll int) (*ursa.Func, string, error) {
	if path == "" {
		fmt.Fprintln(os.Stderr, "# no input file: compiling the paper's Figure 2 example")
		return ursa.PaperExample(true), "", nil
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	if kernel || hasSuffix(path, ".k") {
		f, err := ursa.ParseKernel(string(src), unroll)
		return f, string(src), err
	}
	f, err := ursa.ParseIR(string(src))
	return f, "", err
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ursac: "+format+"\n", args...)
	os.Exit(1)
}
