package pipeline

import (
	"fmt"

	"ursa/internal/driver"
	"ursa/internal/ir"
	"ursa/internal/machine"
)

// A Job is one independent compilation work item: one function compiled
// with one method on one machine — the unit the parallel driver fans out.
//
// Jobs may share a *ir.Func (Compile clones it per block) and an *ir.State
// (evaluation only ever runs on clones of Init), so a batch that compiles
// the same function with every method is race-free without per-job setup.
type Job struct {
	// Name labels the job in error messages (e.g. the kernel name).
	Name    string
	Func    *ir.Func
	Machine *machine.Config
	Method  Method
	Opts    Options
	// Init, when non-nil, asks for full evaluation: compile, execute,
	// and verify against the sequential interpreter. When nil the job
	// compiles only.
	Init *ir.State
	// MaxCycles bounds execution when Init is set; 0 means 50M cycles.
	MaxCycles int
	// InOrder executes on the in-order superscalar model (§6) instead of
	// the VLIW model. Only meaningful with Init set.
	InOrder bool
}

// A JobResult carries one job's outputs. Prog is set for compile-only
// jobs; Stats is always set on success.
type JobResult struct {
	Prog  *FuncProgram
	Stats *Stats
	Err   error
}

// RunJobs runs a batch of jobs across `workers` goroutines (0 or negative
// means GOMAXPROCS; 1 runs inline) and returns per-job results in
// submission order plus the first error by job index. The batch is
// fail-fast: after one job fails, jobs that have not started are skipped
// with driver.ErrSkipped in their Err field. A panic inside one job is
// captured as that job's error and does not disturb the others.
//
// Every observable output is independent of the worker count.
func RunJobs(jobs []Job, workers int) ([]JobResult, error) {
	out := make([]JobResult, len(jobs))
	_, errs, err := driver.Map(len(jobs), func(i int) (struct{}, error) {
		j := &jobs[i]
		max := j.MaxCycles
		if max == 0 {
			max = 50_000_000
		}
		var err error
		switch {
		case j.Init == nil:
			out[i].Prog, out[i].Stats, err = CompileFunc(j.Func, j.Machine, j.Method, j.Opts)
		case j.InOrder:
			out[i].Stats, err = EvaluateFuncInOrder(j.Func, j.Machine, j.Method, j.Init, max, j.Opts)
		default:
			out[i].Stats, err = EvaluateFunc(j.Func, j.Machine, j.Method, j.Init, max, j.Opts)
		}
		if err != nil && j.Name != "" {
			err = fmt.Errorf("%s: %w", j.Name, err)
		}
		return struct{}{}, err
	}, driver.Options{Workers: workers})
	for i := range errs {
		out[i].Err = errs[i]
	}
	return out, err
}
