package core

import (
	"runtime"
	"sync"
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
// failed), in which case the selection ignores it — exactly as the old
// clone-and-apply loop skipped candidates whose Apply errored.
type evalOutcome struct {
	s      scored
	ok     bool
	excess int
	crit   int
}

// iterState is the per-iteration committed state every candidate is scored
// against: the committed graph's hammocks and nest levels plus its
// measurements. It is derived once per committed generation (memoized in
// the evaluator), shared by the main loop and by speculating workers.
type iterState struct {
	hammocks []*dag.Hammock
	levels   []int
	results  map[string]*measure.Result
	excess   int
}

// evaluator scores reduction candidates. One evaluator lives for a whole
// runOnce: it owns the committed graph's transitive closure (maintained in
// place across commits), the memoized per-generation iteration state, and
// one reusable scratch per worker, and fans candidates out via
// internal/driver.
//
// Two evaluation paths exist:
//
//   - The incremental path (the default, on every target family) applies
//     the candidate to the worker's scratch graph through a reusable
//     transform.UndoLog. Sequencing-only candidates then update the scratch
//     copy of the closure with order.Relation.AddClosureEdge, rederive each
//     resource's reuse pairs into pooled relation storage
//     (reuse.Reuse.UpdateClosureInto), and warm-start the matching from the
//     committed measurement with a pooled matcher
//     (measure.ChainsDeltaWidth); a register resource whose kill selection
//     shifted is remeasured from scratch instead. Per-cluster register
//     files and exposed-datapath buffers are ordinary reuse item sets, so
//     they take the same delta. Spill and copy-spill payloads — which add
//     nodes and rewrite operands or opcodes, so no cheap delta exists — are
//     measured from scratch through the cache and reverted via the same
//     undo log. On sequencing candidates the path allocates nothing in
//     steady state: graphs, closures, relations, matchers, and analysis
//     buffers all reset in place across candidates and across reduction
//     iterations. The delta oracle in internal/check runs these same
//     functions against from-scratch measurements on every fuzz case.
//   - Options.DisableIncremental selects the pre-engine reference path:
//     clone the graph per candidate, apply, re-measure everything from
//     scratch. It is kept only as the reference that the delta oracle's
//     selection check and TestFreshVsPooledEvaluator compare emitted code
//     and picks against, and as the baseline of the full-path benchmarks.
//
// Both paths produce the same widths (a maximum matching is a maximum
// matching however it is reached), so the selection is bit-identical across
// paths and across worker counts.
//
// Between a commit and the next iteration's evaluation, workers the main
// thread is not using may speculatively pre-score this iteration's
// surviving candidates against the just-committed graph (speculate); the
// next evalAll first joins the speculation and then reuses every completed
// outcome whose candidate key reappears, evaluating only the rest.
type evaluator struct {
	g         *dag.Graph
	resources []Resource
	lat       func(*dag.Node) int
	opts      *Options
	workers   int
	scratches []*evalScratch

	// gen counts committed transformations; it tags which graph state the
	// memoized iteration state, the closure, and each scratch describe.
	gen   int
	reach *order.Relation // committed graph's closure (incremental mode)
	// commits[i] records the transformation that moved generation i to i+1,
	// so stale scratches can replay instead of re-cloning.
	commits []commitRec

	stOnce *sync.Once
	st     *iterState

	// Candidate dedupe state, reused across iterations.
	keyBuf  []byte
	keyIdx  map[transform.CandKey]int
	keys    []transform.CandKey
	slot    []int
	uniq    []int
	batchNs atomic.Int64 // summed per-job busy time of the current batch

	// Speculation state. specOuts[i]/specDone[i] are written by exactly one
	// worker; wg.Wait() publishes them to the main thread.
	specActive bool
	specGen    int
	specCands  []scored
	specKeys   []transform.CandKey
	specIdx    map[transform.CandKey]int
	specOuts   []evalOutcome
	specDone   []bool
	specNext   atomic.Int64
	specCancel atomic.Bool
	specWG     sync.WaitGroup
}

// commitRec describes one committed transformation for scratch replay.
type commitRec struct {
	spill bool
	edges [][2]int
}

// evalScratch is one worker's private reusable state: a clone of the
// committed graph (with a cloned Func) that candidates mutate and revert, a
// closure buffer reset from the committed closure per candidate, the undo
// log, and the per-resource measurement scratch.
type evalScratch struct {
	g     *dag.Graph
	gen   int // generation sc.g matches
	reach *order.Relation
	log   transform.UndoLog
	topo  dag.Scratch
	delta measure.DeltaScratch
	res   []scratchRes
}

// scratchRes is one worker's per-resource measurement scratch: the pooled
// relation UpdateClosureInto fills, the reuse value wrapping it, and the
// kill-selection scratch with its per-generation use-list tag.
type scratchRes struct {
	rel     *order.Relation
	ru      reuse.Reuse
	ks      reuse.KillScratch
	usesGen int
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
	e := &evaluator{
		g:         g,
		resources: resources,
		lat:       lat,
		opts:      opts,
		workers:   workers,
		scratches: make([]*evalScratch, workers),
		stOnce:    new(sync.Once),
		keyIdx:    make(map[transform.CandKey]int),
	}
	if !opts.DisableIncremental {
		e.reach = g.Reach()
	}
	return e
}

// state returns the committed iteration state for the current generation,
// computing it at most once per generation. Safe for concurrent use by the
// main loop and speculating workers; the measurement cache's flight
// coalescing already makes the underlying measurements single-flight, and
// the once makes the hammock analysis so too.
func (e *evaluator) state() *iterState {
	e.stOnce.Do(func() {
		st := &iterState{results: make(map[string]*measure.Result, len(e.resources))}
		st.hammocks = e.g.Hammocks()
		st.levels = e.g.NestLevels(st.hammocks)
		for _, r := range e.resources {
			res := e.opts.Cache.Measure(e.g, r.Name, r.Build)
			st.results[r.Name] = res
			if d := res.Width - r.Limit; d > 0 {
				st.excess += d
			}
		}
		e.st = st
	})
	return e.st
}

// commit records that the candidate was just applied to the committed
// graph: it joins any running speculation beforehand (the speculating
// workers read e.g), advances the generation, invalidates the memoized
// iteration state, and updates the closure — in place for sequencing
// commits, recomputed for spills (which add nodes).
//
// The caller must call commit after every Candidate.Apply on e.g and
// before the next state or evalAll.
func (e *evaluator) commit(c *transform.Candidate) {
	e.drainSpec()
	rec := commitRec{spill: !c.SeqOnly()}
	if !rec.spill {
		rec.edges = c.Edges
	}
	e.commits = append(e.commits, rec)
	e.gen++
	e.stOnce = new(sync.Once)
	e.st = nil
	if e.reach != nil {
		if rec.spill {
			e.reach = e.g.Reach()
		} else {
			for _, ed := range rec.edges {
				e.reach.AddClosureEdge(ed[0], ed[1])
			}
		}
	}
}

// close joins any outstanding speculation. Must be called before the
// committed graph escapes the evaluator's control.
func (e *evaluator) close() { e.drainSpec() }

// scratch returns worker w's scratch state, building it on first use and
// bringing its graph up to the committed generation: sequencing commits are
// replayed as plain edge insertions; a spill commit (which restructures
// instructions) forces a fresh clone. Iterations whose candidates all take
// the full path never pay for clones.
func (e *evaluator) scratch(w int) *evalScratch {
	sc := e.scratches[w]
	if sc == nil {
		sc = &evalScratch{res: make([]scratchRes, len(e.resources))}
		sc.gen = -1
		e.scratches[w] = sc
	}
	if sc.gen != e.gen {
		rebuild := sc.g == nil
		for gi := sc.gen; !rebuild && gi < e.gen; gi++ {
			if gi < 0 || e.commits[gi].spill {
				rebuild = true
			}
		}
		if rebuild {
			sc.g = e.g.Clone()
			sc.g.Func = e.g.Func.Clone()
			for i := range sc.res {
				sc.res[i].usesGen = -1
			}
		} else {
			for gi := sc.gen; gi < e.gen; gi++ {
				for _, ed := range e.commits[gi].edges {
					sc.g.AddEdge(ed[0], ed[1], dag.EdgeSeq)
				}
			}
		}
		sc.gen = e.gen
	}
	return sc
}

// evalAll scores every candidate and returns the outcomes in candidate
// order. Candidates with identical effect (equal transform.Candidate key)
// are measured once and share the measurement; the returned slice still
// carries one entry per input candidate so the selection sort ranks exactly
// the sequence the pre-engine code ranked, ties included. Completed
// speculative outcomes for the current generation are consumed instead of
// re-evaluated.
func (e *evaluator) evalAll(cands []scored) ([]evalOutcome, error) {
	e.drainSpec()
	st := e.state()

	if cap(e.slot) < len(cands) {
		e.slot = make([]int, len(cands))
		e.keys = make([]transform.CandKey, 0, len(cands))
	}
	e.slot = e.slot[:len(cands)]
	e.uniq = e.uniq[:0]
	e.keys = e.keys[:0]
	clear(e.keyIdx)
	for i, s := range cands {
		var k transform.CandKey
		k, e.keyBuf = s.cand.FixedKey(e.keyBuf)
		if j, ok := e.keyIdx[k]; ok {
			e.slot[i] = j
			continue
		}
		e.keyIdx[k] = len(e.uniq)
		e.slot[i] = len(e.uniq)
		e.uniq = append(e.uniq, i)
		e.keys = append(e.keys, k)
	}

	// Harvest completed speculation for keys that reappeared this
	// generation. outs is indexed by uniq slot; -1 marks "evaluate".
	outs := make([]evalOutcome, len(e.uniq))
	todo := e.uniq[:0:0]
	todoSlot := make([]int, 0, len(e.uniq))
	hits := 0
	for j, i := range e.uniq {
		if o, ok := e.specLookup(e.keys[j]); ok {
			o.s = cands[i]
			outs[j] = o
			hits++
			continue
		}
		todo = append(todo, i)
		todoSlot = append(todoSlot, j)
	}
	if hits > 0 {
		metrics.AddSpeculativeHits(uint64(hits))
	}
	metrics.AddCandidateEvals(uint64(len(todo)))

	e.batchNs.Store(0)
	start := time.Now()
	_, _, err := driver.MapWorkers(len(todo), func(w, j int) (struct{}, error) {
		t0 := time.Now()
		s := cands[todo[j]]
		if e.opts.DisableIncremental {
			outs[todoSlot[j]] = e.evalFull(s)
		} else {
			outs[todoSlot[j]] = e.evalIncremental(e.scratch(w), st, s)
		}
		e.batchNs.Add(int64(time.Since(t0)))
		return struct{}{}, nil
	}, driver.Options{Workers: e.workers, KeepGoing: true})
	if err != nil {
		// Jobs never return errors themselves; this is a recovered panic
		// from a measurement, which the old inline loop would have
		// propagated. Do the same instead of silently dropping candidates.
		return nil, err
	}
	if n := len(todo); n > 0 {
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
// the reusable undo log: apply, measure, revert. Sequencing-only candidates
// are measured by pooled closure update plus warm-started matching; spill
// and copy-spill payloads (and register resources whose kill selection
// shifted) fall back to a full from-scratch measurement through the cache.
func (e *evaluator) evalIncremental(sc *evalScratch, st *iterState, s scored) evalOutcome {
	if err := s.cand.ApplyLog(sc.g, &sc.log); err != nil {
		return evalOutcome{s: s}
	}
	defer sc.log.Revert()

	excess := 0
	if s.cand.SeqOnly() {
		if sc.reach == nil || sc.reach.Size() != e.reach.Size() {
			sc.reach = order.NewRelation(e.reach.Size())
		}
		sc.reach.CopyFrom(e.reach)
		for _, ed := range sc.log.Added() {
			sc.reach.AddClosureEdge(ed[0], ed[1])
		}
		depths := sc.g.DepthsInto(&sc.topo)
		for ri := range e.resources {
			r := &e.resources[ri]
			prev := st.results[r.Name]
			rs := &sc.res[ri]
			n := prev.R.NumItems()
			if rs.rel == nil || rs.rel.Size() != n {
				rs.rel = order.NewRelation(n)
			} else {
				rs.rel.Reset()
			}
			if r.IsRegister && rs.usesGen != e.gen {
				rs.ks.PrecomputeUses(sc.g, prev.R.Items)
				rs.usesGen = e.gen
			}
			rs.ru.Rel = rs.rel
			var w int
			if prev.R.UpdateClosureInto(sc.g, sc.reach, depths, &rs.ks, &rs.ru) {
				w = measure.ChainsDeltaWidth(prev, &rs.ru, st.levels, &sc.delta)
			} else {
				// Kill selection shifted: the old matching may no longer be
				// a matching of the new order. Full rebuild for this
				// resource.
				w = e.opts.Cache.Measure(sc.g, r.Name, r.Build).Width
			}
			if d := w - r.Limit; d > 0 {
				excess += d
			}
		}
	} else {
		// Spills and copy-spills restructure values — they add nodes and
		// rewrite uses or opcodes — so no cheap delta exists; re-measure every resource from scratch
		// through the cache, which still collapses repeats of the same
		// transformed state across styles and plateau scans.
		for ri := range e.resources {
			r := &e.resources[ri]
			res := e.opts.Cache.Measure(sc.g, r.Name, r.Build)
			if d := res.Width - r.Limit; d > 0 {
				excess += d
			}
		}
	}
	crit := sc.g.CriticalPathLen(e.lat, &sc.topo)
	return evalOutcome{s: s, ok: true, excess: excess, crit: crit}
}

// evalFull scores a candidate the pre-engine way: clone, apply, re-measure
// everything from scratch. Kept as the reference implementation for the
// differential delta oracle and the full-path benchmarks.
func (e *evaluator) evalFull(s scored) evalOutcome {
	cl := e.g.Clone()
	cl.Func = e.g.Func.Clone()
	if err := s.cand.Apply(cl); err != nil {
		return evalOutcome{s: s}
	}
	excess := 0
	for _, r := range e.resources {
		res := e.opts.Cache.Measure(cl, r.Name, r.Build)
		if d := res.Width - r.Limit; d > 0 {
			excess += d
		}
	}
	crit := cl.CriticalPath(e.lat)
	return evalOutcome{s: s, ok: true, excess: excess, crit: crit}
}

// speculate pre-scores the sequencing-only candidates that were not just
// committed against the just-committed graph, on the workers the main
// thread leaves idle while it remeasures the committed graph and generates
// the next iteration's candidates. Speculative results are tagged with the
// generation they were computed for; evalAll consumes the completed ones
// whose keys reappear and the rest are discarded. Evaluation on a scratch
// graph with the committed state as input is deterministic, so a consumed
// speculative outcome is bit-identical to what evalAll would have computed.
//
// cands and keyed are the just-evaluated iteration's candidates with their
// slot mapping (evalAll's dedupe state is still current when runOnce calls
// this), committed is the applied candidate. Speculation requires at least
// two workers and the incremental path.
func (e *evaluator) speculate(cands []scored, committed *transform.Candidate) {
	if e.workers <= 1 || e.opts.DisableIncremental || e.specActive {
		return
	}
	var ck transform.CandKey
	ck, e.keyBuf = committed.FixedKey(e.keyBuf)

	e.specCands = e.specCands[:0]
	e.specKeys = e.specKeys[:0]
	if e.specIdx == nil {
		e.specIdx = make(map[transform.CandKey]int)
	}
	clear(e.specIdx)
	for _, s := range cands {
		if !s.cand.SeqOnly() {
			continue
		}
		var k transform.CandKey
		k, e.keyBuf = s.cand.FixedKey(e.keyBuf)
		if k == ck {
			continue
		}
		if _, dup := e.specIdx[k]; dup {
			continue
		}
		e.specIdx[k] = len(e.specCands)
		e.specCands = append(e.specCands, s)
		e.specKeys = append(e.specKeys, k)
	}
	if len(e.specCands) == 0 {
		return
	}
	if cap(e.specOuts) < len(e.specCands) {
		e.specOuts = make([]evalOutcome, len(e.specCands))
		e.specDone = make([]bool, len(e.specCands))
	}
	e.specOuts = e.specOuts[:len(e.specCands)]
	e.specDone = e.specDone[:len(e.specCands)]
	for i := range e.specDone {
		e.specDone[i] = false
	}
	e.specGen = e.gen
	e.specNext.Store(0)
	e.specCancel.Store(false)
	e.specActive = true

	// Leave one worker's worth of CPU for the main thread's own remeasure
	// and candidate generation.
	nw := e.workers - 1
	if nw > len(e.specCands) {
		nw = len(e.specCands)
	}
	e.specWG.Add(nw)
	for w := 1; w <= nw; w++ {
		go func(worker int) {
			defer e.specWG.Done()
			st := e.state()
			sc := e.scratch(worker)
			for {
				if e.specCancel.Load() {
					return
				}
				i := int(e.specNext.Add(1)) - 1
				if i >= len(e.specCands) {
					return
				}
				e.specOuts[i] = e.evalIncremental(sc, st, e.specCands[i])
				e.specDone[i] = true
				metrics.AddSpeculativeEvals(1)
			}
		}(w)
	}
}

// drainSpec stops in-progress speculation and waits for the workers to
// finish their current jobs. Completed outcomes stay available to
// specLookup until the next commit invalidates them.
func (e *evaluator) drainSpec() {
	if !e.specActive {
		return
	}
	e.specCancel.Store(true)
	e.specWG.Wait()
	e.specActive = false
}

// specLookup returns the completed speculative outcome for the key, if one
// was computed for the current generation. Only valid after drainSpec.
func (e *evaluator) specLookup(k transform.CandKey) (evalOutcome, bool) {
	if e.specGen != e.gen || len(e.specKeys) == 0 {
		return evalOutcome{}, false
	}
	if i, ok := e.specIdx[k]; ok && e.specDone[i] {
		return e.specOuts[i], true
	}
	return evalOutcome{}, false
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
