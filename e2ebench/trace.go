package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ursa/internal/assign"
	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/frontend"
	"ursa/internal/ir"
	"ursa/internal/measure"
	urmetrics "ursa/internal/metrics"
	"ursa/internal/pipeline"
	"ursa/internal/reuse"
	"ursa/internal/sched"
	"ursa/internal/target"
	"ursa/internal/vliwsim"
)

// A span is one call into a layer, recorded by the benchmark around the
// layer's public function. Times are microseconds since the tracer
// started; Parent 0 marks a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Self   float64 `json:"self_us"`
	Label  string  `json:"label,omitempty"`
}

// tracer keeps spans in memory; spans are written out when the run ends.
// It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

func (t *tracer) start(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.now()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = t.now() }

// add records a span whose times were taken elsewhere.
func (t *tracer) add(name string, parent int, start, end time.Time, label string) int {
	us := func(x time.Time) float64 { return float64(x.Sub(t.t0).Nanoseconds()) / 1e3 }
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: us(start), End: us(end), Label: label})
	return len(t.spans)
}

// selfTimes fills each span's self time: its duration minus the part its
// children cover. Children of one span never overlap (calls are
// sequential), so that part is the sum of their durations.
func (t *tracer) selfTimes() {
	covered := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		covered[s.Parent] += s.End - s.Start
	}
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start - covered[t.spans[i].ID]
	}
}

// selfMS sums the self time of every span with the given name, in ms.
func (t *tracer) selfMS(name string) float64 {
	total := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			total += s.Self
		}
	}
	return total / 1e3
}

// write stores the spans as JSON lines, after a header line holding the
// run environment, and prints a self-time table to standard error.
func (t *tracer) write(e *env, part string, summary map[string]any) (string, error) {
	path := filepath.Join(scratchDir, fmt.Sprintf("spans-%s-seed%d-%s.jsonl", e.Workload, e.Seed, part))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"env": e, "summary": summary}); err != nil {
		return "", err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}

	type row struct {
		name  string
		calls int
		self  float64
	}
	byName := map[string]*row{}
	for _, s := range t.spans {
		r := byName[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			byName[s.Name] = r
		}
		r.calls++
		r.self += s.Self
	}
	var rows []*row
	for _, r := range byName {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	fmt.Fprintf(os.Stderr, "%-10s %8s %12s\n", "span", "calls", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "%-10s %8d %12.3f\n", r.name, r.calls, r.self/1e3)
	}
	fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	return path, nil
}

// layerNames lists every per-layer metric with its unit. A metric whose
// layer the workload never reaches reads 0.
var layerNames = [][2]string{
	{"frontend.parse_ms", "ms"},
	{"pipeline.cachekey_ms", "ms"},
	{"target.clusterize_ms", "ms"},
	{"target.xcopies", "count"},
	{"dag.build_ms", "ms"},
	{"dag.nodes", "count"},
	{"order.closure_ms", "ms"},
	{"reuse.build_ms", "ms"},
	{"measure.chains_ms", "ms"},
	{"measure.initial_excess", "count"},
	{"core.run_ms", "ms"},
	{"core.iterations", "count"},
	{"core.candidate_evals", "count"},
	{"core.eval_busy_s", "s"},
	{"core.eval_idle_s", "s"},
	{"core.spec_hit_ratio", "ratio"},
	{"core.fits_ratio", "ratio"},
	{"core.spills_inserted", "count"},
	{"assign.emit_ms", "ms"},
	{"assign.words", "words"},
	{"vliwsim.run_ms", "ms"},
	{"vliwsim.cycles", "cycles"},
	{"store.mem_hit_ratio", "ratio"},
	{"store.disk_hit_ratio", "ratio"},
	{"store.compiled_ratio", "ratio"},
	{"store.artifact_kb", "KB"},
	{"server.elapsed_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.shed_ratio", "ratio"},
	{"cluster.backend_ms", "ms"},
	{"cluster.hop_ms", "ms"},
	{"cluster.hedges", "count"},
	{"cluster.coalesced", "count"},
	{"cluster.spillovers", "count"},
	{"modsched.pipeline_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.accounted_pct", "%"},
}

// layerMetrics returns every per-layer metric at 0, ready to be filled.
func layerMetrics() metrics {
	lm := metrics{}
	for _, n := range layerNames {
		lm.set(n[0], 0, n[1])
	}
	return lm
}

func (ms metrics) put(name string, v float64) {
	m := ms[name]
	m.Value = v
	ms[name] = m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replay holds what a traced compile replay counted, summed over jobs.
type replay struct {
	jobs, blocks, fits                         int
	xcopies, nodes, excess, iterations, spills int
	words, cycles                              int
	evals, specEvals, specHits, busyNS, idleNS uint64
	// untracedMS sums each job's untraced CompileFunc time; the traced
	// compile time is the jobs' self time plus their compile-layer spans.
	untracedMS float64
}

// compileLayers are the spans that make up pipeline.Compile's own work; the
// other spans under a job (frontend, pipeline, order, reuse, measure,
// vliwsim) time calls the untraced job does not make.
var compileLayers = []string{"target", "dag", "core", "assign"}

// traceJob compiles and runs one job layer by layer, in pipeline.Compile's
// order (per block: clone, Clusterize on clustered machines, dag.Build,
// core.Run, assign.Emit), with a span per call under the job's span. After
// dag.Build it also measures every core.Resources entry once from scratch:
// closure (order), reuse structures with kill selection (reuse) and
// matching and chains (measure). It returns the emitted listing, which must
// equal the untraced pipeline.CompileFunc listing.
func traceJob(tr *tracer, rp *replay, j *job, init *ir.State) (string, error) {
	js := tr.start("job", 0)
	tr.spans[js-1].Label = j.String()

	sp := tr.start("frontend", js)
	unit, err := frontend.Compile(j.kernel.Source, frontend.Options{Unroll: j.unroll})
	tr.end(sp)
	if err != nil {
		return "", err
	}
	f := unit.Func
	sp = tr.start("pipeline", js)
	pipeline.CacheKey(f, j.m, pipeline.URSA, pipeline.Options{})
	tr.end(sp)

	progs := make([]*assign.Program, len(f.Blocks))
	for i, b := range f.Blocks {
		blk := b.Func.Clone().Block(b.Label)
		if j.m.Clusters > 1 {
			sp = tr.start("target", js)
			n, err := target.Clusterize(blk, j.m)
			tr.end(sp)
			if err != nil {
				return "", err
			}
			rp.xcopies += n
		}
		sp = tr.start("dag", js)
		g, err := dag.Build(blk)
		tr.end(sp)
		if err != nil {
			return "", err
		}
		rp.nodes += g.NumNodes()

		sp = tr.start("order", js)
		g.Reach()
		tr.end(sp)
		sp = tr.start("reuse", js)
		res := core.Resources(g, j.m)
		rus := make([]*reuse.Reuse, len(res))
		for k, r := range res {
			rus[k] = r.Build(g)
		}
		tr.end(sp)
		sp = tr.start("measure", js)
		for k, r := range res {
			rp.excess += max(measure.Measure(rus[k]).Width-r.Limit, 0)
		}
		tr.end(sp)

		evals, busy, idle := urmetrics.CandidateEvals(), urmetrics.EvalBusyNanos(), urmetrics.EvalIdleNanos()
		specEvals, specHits := urmetrics.SpeculativeEvals(), urmetrics.SpeculativeHits()
		sp = tr.start("core", js)
		rep, err := core.Run(g, core.Options{Machine: j.m})
		tr.end(sp)
		if err != nil {
			return "", err
		}
		rp.evals += urmetrics.CandidateEvals() - evals
		rp.busyNS += urmetrics.EvalBusyNanos() - busy
		rp.idleNS += urmetrics.EvalIdleNanos() - idle
		rp.specEvals += urmetrics.SpeculativeEvals() - specEvals
		rp.specHits += urmetrics.SpeculativeHits() - specHits
		rp.iterations += rep.Iterations
		rp.spills += rep.SpillsInserted
		rp.blocks++
		if rep.Fits {
			rp.fits++
		}

		sp = tr.start("assign", js)
		prog, _, err := assign.Emit(g, j.m, sched.Options{})
		tr.end(sp)
		if err != nil {
			return "", err
		}
		progs[i] = prog
		rp.words += len(prog.Words)
	}

	sp = tr.start("vliwsim", js)
	cycles, err := simulate(f, progs, init)
	tr.end(sp)
	tr.end(js)
	if err != nil {
		return "", err
	}
	rp.cycles += cycles
	rp.jobs++
	return listing(f, progs), nil
}

// simulate runs per-block programs from the first block, chaining block
// exits the way pipeline.FuncProgram.Run does, and returns the cycles.
func simulate(f *ir.Func, progs []*assign.Program, init *ir.State) (int, error) {
	labels := make(map[string]int, len(f.Blocks))
	for i, b := range f.Blocks {
		labels[b.Label] = i
	}
	st := init.Clone()
	cycles := 0
	for cur := 0; cur < len(progs); {
		r, err := vliwsim.Run(progs[cur], st)
		if err != nil {
			return 0, err
		}
		st, cycles = r.State, cycles+r.Cycles
		if cycles > maxCycles {
			return 0, fmt.Errorf("cycle budget exceeded")
		}
		switch r.Exit {
		case "ret":
			return cycles, nil
		case "":
			cur++
		default:
			next, ok := labels[r.Exit]
			if !ok {
				return 0, fmt.Errorf("exit to unknown label %q", r.Exit)
			}
			cur = next
		}
	}
	return cycles, nil
}

// replayJobs times each job untraced with pipeline.CompileFunc and replays
// it under spans, checking that both emit the same listing. Each pair runs
// back to back, so the two timings see the same machine state, and every
// other pair runs the traced replay first, so warming caches for the
// second call favours neither side. It returns the untraced programs by
// job index.
func replayJobs(tr *tracer, rp *replay, jobs []*job) ([]*pipeline.FuncProgram, []string) {
	progs := make([]*pipeline.FuncProgram, len(jobs))
	var bad []string
	for i, j := range jobs {
		var got string
		var terr error
		traced := func() { got, terr = traceJob(tr, rp, j, j.kernel.State(0)) }
		if i%2 == 1 {
			traced()
		}
		t0 := time.Now()
		fp, _, err := pipeline.CompileFunc(j.f, j.m, pipeline.URSA, pipeline.Options{})
		d := time.Since(t0)
		if i%2 == 0 {
			traced()
		}
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", j, err))
			continue
		}
		progs[i] = fp
		rp.untracedMS += ms(d)
		if terr != nil {
			bad = append(bad, fmt.Sprintf("%s: traced: %v", j, terr))
			continue
		}
		if got != listing(j.f, fp.Blocks) {
			bad = append(bad, fmt.Sprintf("%s: traced listing differs from pipeline.CompileFunc", j))
		}
	}
	return progs, bad
}

// fill sets the compile-layer metrics from the spans and the replay's
// counts, each per replayed job, and the tracing overhead: how much longer
// the traced compile took than the untraced one, and how much of the
// untraced time the compile-layer spans' self times account for.
func (rp *replay) fill(tr *tracer, lm metrics) map[string]any {
	n := float64(max(rp.jobs, 1))
	per := func(name string) float64 { return tr.selfMS(name) / n }
	lm.put("frontend.parse_ms", per("frontend"))
	lm.put("pipeline.cachekey_ms", per("pipeline"))
	lm.put("target.clusterize_ms", per("target"))
	lm.put("target.xcopies", float64(rp.xcopies)/n)
	lm.put("dag.build_ms", per("dag"))
	lm.put("dag.nodes", float64(rp.nodes)/n)
	lm.put("order.closure_ms", per("order"))
	lm.put("reuse.build_ms", per("reuse"))
	lm.put("measure.chains_ms", per("measure"))
	lm.put("measure.initial_excess", float64(rp.excess)/n)
	lm.put("core.run_ms", per("core"))
	lm.put("core.iterations", float64(rp.iterations)/n)
	lm.put("core.candidate_evals", float64(rp.evals)/n)
	lm.put("core.eval_busy_s", float64(rp.busyNS)/1e9/n)
	lm.put("core.eval_idle_s", float64(rp.idleNS)/1e9/n)
	lm.put("core.spec_hit_ratio", ratio(float64(rp.specHits), float64(rp.specEvals)))
	lm.put("core.fits_ratio", ratio(float64(rp.fits), float64(rp.blocks)))
	lm.put("core.spills_inserted", float64(rp.spills)/n)
	lm.put("assign.emit_ms", per("assign"))
	lm.put("assign.words", float64(rp.words)/n)
	lm.put("vliwsim.run_ms", per("vliwsim"))
	lm.put("vliwsim.cycles", float64(rp.cycles)/n)

	accounted := 0.0
	for _, name := range compileLayers {
		accounted += tr.selfMS(name)
	}
	traced := accounted + tr.selfMS("job")
	overhead := 100 * (traced - rp.untracedMS) / rp.untracedMS
	lm.put("trace.overhead_pct", overhead)
	lm.put("trace.accounted_pct", 100*accounted/rp.untracedMS)
	return map[string]any{
		"replayed_jobs":      rp.jobs,
		"untraced_ms":        rp.untracedMS,
		"traced_compile_ms":  traced,
		"compile_layer_ms":   accounted,
		"trace_overhead_pct": overhead,
	}
}

// traceCompile is a compile workload's traced run: whole passes of paired
// untraced and traced jobs, as many as fit the measuring time (at least
// one).
func traceCompile(e *env, jobs []*job) (*outcome, error) {
	tr := newTracer()
	rp := &replay{}
	var bad []string
	var progs [][]*pipeline.FuncProgram
	budget := time.Duration(e.Seconds) * time.Second
	start := time.Now()
	for {
		passStart := time.Now()
		pass, pbad := replayJobs(tr, rp, jobs)
		progs = append(progs, pass)
		bad = append(bad, pbad...)
		if time.Since(start)+time.Since(passStart) > budget {
			break
		}
	}
	code, cbad := checkJobs(e.Seed, jobs, progs)
	bad = append(bad, cbad...)
	tr.selfTimes()
	lm := layerMetrics()
	summary := rp.fill(tr, lm)
	summary["errors"] = bad
	path, err := tr.write(e, "jobs", summary)
	if err != nil {
		return nil, err
	}
	summary["spans"] = path
	return &outcome{
		attempted: len(progs) * len(jobs),
		failed:    len(bad),
		metrics:   lm,
		code:      code,
		details:   summary,
	}, nil
}
