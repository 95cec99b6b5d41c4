package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"ursa/internal/frontend"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/pipeline"
	"ursa/internal/target"
	"ursa/internal/workload"
)

// The compile workloads are a closed loop with one client: each job is one
// pipeline.CompileFunc(f, m, URSA, default Options) call, and the next job
// starts when the previous one returns. They run with GOMAXPROCS 1, so core
// evaluates candidates on the compiling goroutine. With more Ps every
// reduction iteration waits for its slowest worker goroutine, and on a
// shared host that wait measured the host's scheduler, not the compiler:
// jobs_per_s spread by half between runs of one build.
var (
	classicPresets  = []string{"paper2x3", "vliw2x4", "vliw4x8", "vliw8x12", "hetero-small", "hetero-big"}
	extendedPresets = []string{"clus2x2x4", "clus4x2x4", "clus2x4x6", "edp2x6b1", "edp4x8b2", "suprax12"}
)

const (
	// compileLimit is the per-job latency limit goodput counts against; the
	// slowest job of either design takes under 4 s on a 2-CPU machine.
	compileLimit = 10 * time.Second
	// minJobs is the fewest jobs a run compiles.
	minJobs = 100
	// minPasses is the fewest passes a run makes: each job's median time
	// then ignores one pass the host slowed down.
	minPasses = 3
	// setupRepeats is how many times a run sets up to report set-up time.
	setupRepeats = 41
	// maxCycles bounds one simulated execution.
	maxCycles = 10_000_000
)

func compileVLIW(e *env) (*outcome, error) {
	return runCompile(e, classicPresets, []int{1, 2, 4}, 1)
}

func compileTargets(e *env) (*outcome, error) {
	return runCompile(e, extendedPresets, []int{1, 2}, 5)
}

type job struct {
	kernel *workload.Kernel
	unroll int
	preset string
	m      *machine.Config
	f      *ir.Func
}

func (j *job) String() string { return fmt.Sprintf("%s/u%d/%s", j.kernel.Name, j.unroll, j.preset) }

// drawJobs builds one pass: every kernel of workload.Kernels() at every
// unroll factor exactly once, on the preset (k + rot·u) mod |presets| for
// kernel index k and unroll index u. Each kernel thus meets |unrolls|
// different machines and each machine a mix of block sizes. rot was picked
// so that no single job takes more than a few seconds. The seed shuffles
// the order; the multiset of jobs, and so every code-quality figure, is
// the same for every seed, which keeps runs with different seeds
// comparable.
func drawJobs(seed int64, presets []string, unrolls []int, rot int) ([]*job, error) {
	var jobs []*job
	for k, kern := range workload.Kernels() {
		for u, unroll := range unrolls {
			name := presets[(k+rot*u)%len(presets)]
			p := target.ByName(name)
			if p == nil {
				return nil, fmt.Errorf("unknown preset %q", name)
			}
			unit, err := frontend.Compile(kern.Source, frontend.Options{Unroll: unroll})
			if err != nil {
				return nil, fmt.Errorf("frontend %s: %w", kern.Name, err)
			}
			m := *p.Config
			jobs = append(jobs, &job{kernel: kern, unroll: unroll, preset: name, m: &m, f: unit.Func})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs, nil
}

func runCompile(e *env, presets []string, unrolls []int, rot int) (*outcome, error) {
	runtime.GOMAXPROCS(1)
	e.GOMAXPROCS = 1
	e.LatencyLimit = ms(compileLimit)
	jobs, setupS, err := medianSetup(setupRepeats,
		func() ([]*job, error) { return drawJobs(e.Seed, presets, unrolls, rot) },
		func([]*job) {})
	if err != nil {
		return nil, err
	}
	if e.Trace {
		return traceCompile(e, jobs)
	}

	budget := time.Duration(e.Seconds) * time.Second
	alloc0 := totalAllocMB()
	var compiled, failed int
	var errs []string
	// times[i] holds job i's compile time in ms at nominal host speed, and
	// raw[i] as measured, one entry per pass; passMS and passRawMS sum each
	// pass's times, and refs lists the host-speed samples.
	times := make([][]float64, len(jobs))
	raw := make([][]float64, len(jobs))
	var passMS, passRawMS, refs []float64
	// first[i] is the first pass's program for job i (nil on a compile
	// error) and want[i] its listing. Later passes' programs are compared
	// with it and dropped at once: keeping them grew the live heap pass by
	// pass, and every pass ran slower than the one before.
	first := make([]*pipeline.FuncProgram, len(jobs))
	want := make([]string, len(jobs))
	for passes := 1; ; passes++ {
		passStart := time.Now()
		passMS, passRawMS = append(passMS, 0), append(passRawMS, 0)
		// hostRef collects the previous job's garbage before it samples
		// the host's speed, so a job's time holds only the collections its
		// own allocation triggers. A job is scaled by the mean of the
		// samples just before and just after it.
		ref := hostRef()
		refs = append(refs, ref)
		for i, j := range jobs {
			t0 := time.Now()
			fp, _, err := pipeline.CompileFunc(j.f, j.m, pipeline.URSA, pipeline.Options{})
			d := ms(time.Since(t0))
			next := hostRef()
			refs = append(refs, next)
			scaled := d * refNominalMS / ((ref + next) / 2)
			ref = next
			if err != nil {
				failed++
				errs = append(errs, fmt.Sprintf("%s: %v", j, err))
				continue
			}
			compiled++
			times[i], raw[i] = append(times[i], scaled), append(raw[i], d)
			passMS[len(passMS)-1] += scaled
			passRawMS[len(passRawMS)-1] += d
			// Outside the timed region: every pass must emit the same code.
			if got := listing(j.f, fp.Blocks); first[i] == nil {
				first[i], want[i] = fp, got
			} else if got != want[i] {
				errs = append(errs, fmt.Sprintf("%s: listing differs between passes", j))
				failed++
			}
		}
		// Whole passes only, so every run compiles the same multiset of
		// jobs; as many as fill the measuring time, but at least minPasses
		// and minJobs.
		need := max(minPasses, (minJobs+len(jobs)-1)/len(jobs), int(math.Round(float64(budget)/float64(time.Since(passStart)))))
		if passes >= need {
			break
		}
	}
	allocMB := totalAllocMB() - alloc0
	attempted := compiled + failed

	// Each job counts once, at its median time over the passes, so a pass
	// the host slowed down more than the yardstick shows does not move the
	// figures.
	perJob := func(times [][]float64) (lat []float64, busyS float64, good int) {
		for _, ts := range times {
			if len(ts) == 0 {
				continue
			}
			t := median(ts)
			lat = append(lat, t)
			busyS += t / 1e3
			if t <= ms(compileLimit) {
				good++
			}
		}
		return lat, busyS, good
	}
	lat, busyS, good := perJob(times)
	rawLat, rawBusyS, _ := perJob(raw)

	// Outside the timed region: the code must compute what the interpreter
	// computes.
	code, bad := checkJobs(e.Seed, jobs, [][]*pipeline.FuncProgram{first})
	failed += len(bad)
	errs = append(errs, bad...)

	met := metrics{}
	met.set("setup_s", setupS, "s")
	met.set("jobs_per_s", float64(len(lat))/busyS, "1/s")
	met.set("goodput_rps", float64(good)/busyS, "1/s")
	met.set("latency_p50_ms", quantile(lat, 0.50), "ms")
	met.set("latency_p90_ms", quantile(lat, 0.90), "ms")
	met.set("latency_p99_ms", quantile(lat, 0.99), "ms")
	met.set("code_cycles", code[0], "cycles")
	met.set("code_words", code[1], "words")
	met.set("spill_ops", code[2], "ops")
	met.set("alloc_mb_per_job", allocMB/float64(attempted), "MB")
	return &outcome{
		attempted: attempted,
		failed:    failed,
		metrics:   met,
		code:      code,
		details: map[string]any{
			"jobs_per_pass": len(jobs),
			"passes":        len(passMS),
			"pass_ms":       passMS,
			"samples":       compiled,
			"errors":        errs,
			"unscaled": map[string]any{
				"pass_ms":        passRawMS,
				"jobs_per_s":     float64(len(rawLat)) / rawBusyS,
				"latency_p50_ms": quantile(rawLat, 0.50),
				"latency_p90_ms": quantile(rawLat, 0.90),
				"latency_p99_ms": quantile(rawLat, 0.99),
				"ref_ms":         map[string]float64{"p10": quantile(refs, 0.1), "p50": quantile(refs, 0.5), "p90": quantile(refs, 0.9)},
			},
		},
	}, nil
}

// checkJobs verifies each job's programs: identical listings in every pass,
// and memory equal to the interpreter's on a seeded input and on the fixed
// input 0. It returns the code-quality triple — simulated cycles, static
// words and dynamic spill operations summed over the distinct jobs on
// input 0, which makes it independent of the seed — and one message per
// failed check.
func checkJobs(seed int64, jobs []*job, progs [][]*pipeline.FuncProgram) ([3]float64, []string) {
	var code [3]float64
	var bad []string
	for i, j := range jobs {
		var fp *pipeline.FuncProgram
		want := ""
		for _, pass := range progs {
			if pass[i] == nil {
				continue
			}
			if got := listing(j.f, pass[i].Blocks); fp == nil {
				fp, want = pass[i], got
			} else if got != want {
				bad = append(bad, fmt.Sprintf("%s: listing differs between passes", j))
			}
		}
		if fp == nil {
			continue
		}
		if _, err := verify(fp, j.f, j.kernel.State(seed)); err != nil {
			bad = append(bad, fmt.Sprintf("%s: seed %d: %v", j, seed, err))
			continue
		}
		res, err := verify(fp, j.f, j.kernel.State(0))
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: input 0: %v", j, err))
			continue
		}
		words := 0
		for _, b := range fp.Blocks {
			words += len(b.Words)
		}
		code[0] += float64(res.Cycles)
		code[1] += float64(words)
		code[2] += float64(res.SpillOps)
	}
	return code, bad
}

// verify executes the compiled function and the sequential interpreter on
// the same input and compares their non-spill memory.
func verify(fp *pipeline.FuncProgram, f *ir.Func, init *ir.State) (*pipeline.FuncResult, error) {
	ref := init.Clone()
	if _, err := ref.Run(f, maxCycles*8); err != nil {
		return nil, fmt.Errorf("interpreter: %w", err)
	}
	res, err := fp.Run(init, maxCycles)
	if err != nil {
		return nil, err
	}
	return res, sameMemory(ref.Mem, res.State.Mem)
}

// sameMemory compares two memories, ignoring the spill area.
func sameMemory(want, got map[ir.Addr]ir.Word) error {
	for _, pair := range [2][2]map[ir.Addr]ir.Word{{want, got}, {got, want}} {
		for addr, w := range pair[0] {
			if strings.HasPrefix(addr.Sym, "spill") {
				continue
			}
			if pair[1][addr] != w {
				return fmt.Errorf("memory %s[%d] = %d, interpreter says %d", addr.Sym, addr.Off, got[addr].Int(), want[addr].Int())
			}
		}
	}
	return nil
}

// listing renders a function's blocks the way artifacts and ursac do.
func listing[P fmt.Stringer](f *ir.Func, blocks []P) string {
	var sb strings.Builder
	for i, b := range blocks {
		fmt.Fprintf(&sb, "%s:\n%s", f.Blocks[i].Label, b.String())
	}
	return sb.String()
}
