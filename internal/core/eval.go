package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"ursa/internal/dag"
	"ursa/internal/driver"
	"ursa/internal/measure"
	"ursa/internal/metrics"
	"ursa/internal/order"
	"ursa/internal/reuse"
	"ursa/internal/transform"
)

// evalOutcome is the measured effect of tentatively applying one candidate:
// the total over-limit width and the critical path of the transformed
// graph. ok is false when the candidate turned out inapplicable (its Apply
// failed), in which case the selection ignores it.
type evalOutcome struct {
	s      scored
	ok     bool
	excess int
	crit   int
}

// iterState is the per-iteration committed state every candidate is
// generated from and scored against: the committed graph's hammocks, node
// depths and measurements. It is derived once per commit (memoized in the
// evaluator) and shared by the main loop and every candidate worker.
type iterState struct {
	hammocks []*dag.Hammock
	depths   []int
	results  map[string]*measure.Result
	excess   int
}

// evaluator scores reduction candidates. One evaluator lives for one
// attempt of Run (run.reduce): it owns the committed graph's transitive
// closure (maintained in place across commits), the memoized iteration
// state of the committed graph, and one reusable scratch per worker, and
// fans candidates out via internal/driver. While the attempt replays
// outcomes an earlier attempt of the same Run stored, the evaluator only
// commits; its state is derived, and its scratches cloned, at the first
// state the attempt scores itself.
//
// Every candidate, of every kind and on every target family, is scored on
// one path: copy the committed closure into the worker's scratch, apply
// the candidate to the worker's scratch graph through a reusable
// transform.UndoLog (transform.Candidate.Apply keeps the closure closed
// through sequencing edges and spill payloads alike), build every
// resource into the worker's pooled reuse.Builder against that closure,
// take its width, and revert. The winner is committed through the same
// Apply, to every worker's scratch graph and then to the committed graph,
// so every scratch stays equal to the committed graph from its first use
// on.
// A score needs only widths, and a width is the item count less a maximum
// matching, so candidates never go through the hammocks or the nesting
// levels: measure.Width is the one scoring primitive. Reachability among
// existing nodes only grows under any candidate, so when the builder finds
// a resource's items and kills unchanged its order only gained pairs, and
// the builder then compares the kill nodes' closure rows under the item
// mask with the committed closure's. When none differs the relation is
// the committed one (reuse.Unchanged): the resource keeps its committed
// width, and neither the pairs nor the matching are derived. When a row
// gained an item, Width is warm-started from the committed measurement
// (reuse.Grown); when the items or kills moved, it runs cold. Depths and
// the critical path come from one topological pass. Per-cluster register
// files and exposed-datapath buffers are ordinary reuse item sets, so they
// take the same path. In steady state an evaluation allocates nothing
// beyond the instructions and registers a payload's Apply creates: graphs,
// closures, relations, matchers, kill-selection heaps and analysis buffers
// all reset in place across candidates and across reduction iterations
// (TestSeqEvalAllocatesNothing, TestSpillEvalAllocatesOnlyApply).
//
// Only the committed graph is measured in full (prioritized chains, for the
// excess sets), once per commit, from the closure, depths and hammocks
// its iteration state already holds. Candidate generation searches it for
// the innermost and outermost excessive set only, trimming through the
// evaluator's excess scratch.
//
// Every score equals the from-scratch definition — clone, apply, measure
// every resource, take the critical path — because a maximum matching is a
// maximum matching however it is reached; the selection is therefore
// bit-identical across worker counts. The delta oracle in internal/check
// holds every ScoreCandidates outcome to that definition on every fuzz
// case.
//
// The evaluator is driven by one goroutine (the reduction loop). The only
// concurrency is evalAll's fan-out of the current iteration's candidates,
// which has joined before evalAll returns.
type evaluator struct {
	g         *dag.Graph
	resources []Resource
	lat       func(*dag.Node) int
	opts      *Options
	workers   int
	scratches []*evalScratch

	reach *order.Relation // committed graph's closure
	topo  dag.Scratch     // the committed depths' storage
	log   transform.UndoLog

	st     *iterState // the committed graph's state; nil until state() derives it
	excess measure.ExcessScratch

	// Candidate dedupe state, reused across iterations.
	keyBuf  []byte
	keyIdx  map[string]int // canonical encoding (AppendKey) -> uniq slot
	slot    []int
	uniq    []int
	batchNs atomic.Int64 // summed per-job busy time of the current batch
}

// evalScratch is one worker's private reusable state: a copy of the
// committed graph (with its own Func) that candidates mutate and revert and
// commits advance, a closure buffer copied from the committed closure
// before each application, the undo log, and one pooled reuse builder per
// resource.
type evalScratch struct {
	g     *dag.Graph
	reach order.Relation
	log   transform.UndoLog
	topo  dag.Scratch
	delta measure.DeltaScratch
	res   []reuse.Builder

	skipped int // resource evaluations that kept the committed width
}

func newEvaluator(g *dag.Graph, resources []Resource, lat func(*dag.Node) int, opts *Options) *evaluator {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Candidate evaluation is pure CPU: more workers than P only adds
	// scheduling overhead without any added throughput, so the pool is
	// capped at GOMAXPROCS regardless of -j.
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	return &evaluator{
		g:         g,
		resources: resources,
		lat:       lat,
		opts:      opts,
		workers:   workers,
		scratches: make([]*evalScratch, workers),
		keyIdx:    make(map[string]int),
		reach:     g.Reach(),
	}
}

// state returns the committed graph's iteration state, computing it at most
// once per commit. Called only from the goroutine driving the evaluator;
// candidate workers receive the result as an argument. Every resource is
// built from the committed closure and depths and prioritized by the
// nesting levels of the committed graph's hammocks.
func (e *evaluator) state() *iterState {
	if e.st != nil {
		return e.st
	}
	st := &iterState{results: make(map[string]*measure.Result, len(e.resources))}
	st.hammocks = e.g.Hammocks()
	st.depths, _ = e.g.PathsInto(nil, &e.topo)
	levels := e.g.NestLevels(st.hammocks)
	for _, r := range e.resources {
		res := measure.Chains(r.Spec.Build(e.g, e.reach, st.depths), levels)
		st.results[r.Name] = res
		if d := res.Width - r.Limit; d > 0 {
			st.excess += d
		}
	}
	e.st = st
	return st
}

// commit applies the candidate through Candidate.Apply to every worker
// scratch, each with its own copy of the committed closure from before the
// commit, then to the committed graph and its closure, and drops the
// memoized iteration state. The replay is exact: each scratch equals the
// committed graph before the commit, Apply numbers new nodes and registers
// in the same order on both (a scored candidate's Revert truncated its own
// away), and it reads no adjacency order — uses come in id order and
// reachability from the closure. A refused commit ends the run with the
// error.
func (e *evaluator) commit(c *transform.Candidate) error {
	for _, sc := range e.scratches {
		if sc == nil {
			continue
		}
		sc.reach.CopyFrom(e.reach)
		if err := c.Apply(sc.g, &sc.reach, &sc.log); err != nil {
			return err
		}
	}
	if err := c.Apply(e.g, e.reach, &e.log); err != nil {
		return err
	}
	e.st = nil
	return nil
}

// scratch returns worker w's scratch state, cloning the committed graph and
// its Func's register tables (Apply reads and allocates registers, never
// the function body) on the worker's first use; commit keeps it current
// from then on.
func (e *evaluator) scratch(w int) *evalScratch {
	sc := e.scratches[w]
	if sc == nil {
		sc = &evalScratch{g: e.g.Clone(), res: make([]reuse.Builder, len(e.resources))}
		sc.g.Func = e.g.Func.CloneRegs()
		e.scratches[w] = sc
	}
	return sc
}

// evalAll scores every candidate and returns the outcomes in candidate
// order. Candidates with identical effect (equal canonical encoding,
// transform.Candidate.AppendKey) are measured once and share the
// measurement; the returned slice still carries one entry per input
// candidate so the selection sort ranks every candidate, ties included.
func (e *evaluator) evalAll(cands []scored) ([]evalOutcome, error) {
	st := e.state()

	if cap(e.slot) < len(cands) {
		e.slot = make([]int, len(cands))
	}
	e.slot = e.slot[:len(cands)]
	e.uniq = e.uniq[:0]
	clear(e.keyIdx)
	for i, s := range cands {
		// Indexing with string(buf) does not allocate; only a first
		// occurrence copies its bytes into a key.
		e.keyBuf = s.cand.AppendKey(e.keyBuf[:0])
		if j, ok := e.keyIdx[string(e.keyBuf)]; ok {
			e.slot[i] = j
			continue
		}
		e.keyIdx[string(e.keyBuf)] = len(e.uniq)
		e.slot[i] = len(e.uniq)
		e.uniq = append(e.uniq, i)
	}

	// outs is indexed by uniq slot.
	outs := make([]evalOutcome, len(e.uniq))
	metrics.AddCandidateEvals(uint64(len(e.uniq)))

	e.batchNs.Store(0)
	start := time.Now()
	_, _, err := driver.MapWorkers(len(e.uniq), func(w, j int) (struct{}, error) {
		t0 := time.Now()
		outs[j] = e.evalIncremental(e.scratch(w), st, cands[e.uniq[j]])
		e.batchNs.Add(int64(time.Since(t0)))
		return struct{}{}, nil
	}, driver.Options{Workers: e.workers, KeepGoing: true})
	if err != nil {
		// Jobs never return errors themselves; this is a recovered panic
		// from a measurement. Propagate it instead of silently dropping
		// candidates.
		return nil, err
	}
	if n := len(e.uniq); n > 0 {
		wall := int64(time.Since(start))
		busy := e.batchNs.Load()
		w := e.workers
		if w > n {
			w = n
		}
		metrics.AddEvalBusyNanos(uint64(busy))
		if idle := int64(w)*wall - busy; idle > 0 {
			metrics.AddEvalIdleNanos(uint64(idle))
		}
	}

	all := make([]evalOutcome, len(cands))
	for i := range cands {
		o := outs[e.slot[i]]
		o.s = cands[i] // each entry keeps its own resource label and Note
		all[i] = o
	}
	return all, nil
}

// evalIncremental scores a candidate on the worker's scratch graph through
// the reusable undo log: apply, take every resource's width, revert. A
// resource whose relation the builder finds unchanged keeps its committed
// width; otherwise its width is warm-started from the committed matching
// when its items and kills held, and matched cold when they did not.
func (e *evaluator) evalIncremental(sc *evalScratch, st *iterState, s scored) evalOutcome {
	sc.reach.CopyFrom(e.reach)
	if err := s.cand.Apply(sc.g, &sc.reach, &sc.log); err != nil {
		return evalOutcome{s: s}
	}
	defer sc.log.Revert()

	depths, crit := sc.g.PathsInto(e.lat, &sc.topo)
	excess := 0
	for ri := range e.resources {
		r := &e.resources[ri]
		committed := st.results[r.Name]
		ru, change := sc.res[ri].Build(sc.g, &r.Spec, &sc.reach, depths, committed.R, e.reach)
		w := committed.Width
		switch change {
		case reuse.Unchanged:
			sc.skipped++
		case reuse.Grown:
			w = measure.Width(committed, ru, &sc.delta)
		default:
			w = measure.Width(nil, ru, &sc.delta)
		}
		if d := w - r.Limit; d > 0 {
			excess += d
		}
	}
	return evalOutcome{s: s, ok: true, excess: excess, crit: crit}
}

// kindRanks returns the §5 kind preference for the style, indexed by
// transform.Kind: at equal impact sequencing beats spilling (no extra
// memory traffic); styleSpillFirst flips this. Copy-spills sort with the
// spills — they add the same memory traffic — but after them, since they
// additionally forfeit a single-cycle bus transfer.
func kindRanks(style scoreStyle) [transform.NumKinds]int {
	if style == styleSpillFirst {
		return [transform.NumKinds]int{
			transform.FUSequence: 3, transform.RegSequence: 2,
			transform.Spill: 0, transform.CopySpill: 1,
		}
	}
	return [transform.NumKinds]int{
		transform.FUSequence: 1, transform.RegSequence: 0,
		transform.Spill: 2, transform.CopySpill: 3,
	}
}
