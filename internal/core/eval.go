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

// iterState is the per-iteration committed state every candidate is scored
// against: the committed graph's hammocks and nest levels plus its
// measurements. It is derived once per committed generation (memoized in
// the evaluator) and shared by the main loop and every candidate worker.
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
// Every candidate, on every target family, is applied to the worker's
// scratch graph through a reusable transform.UndoLog, measured, and
// reverted. Sequencing-only candidates update the scratch copy of the
// closure with order.Relation.AddClosureEdge, rederive each resource's
// reuse pairs into pooled relation storage (reuse.Reuse.UpdateClosureInto),
// and warm-start the matching from the committed measurement with a pooled
// matcher (measure.ChainsDeltaWidth); a register resource whose kill
// selection shifted is remeasured from scratch instead. Per-cluster
// register files and exposed-datapath buffers are ordinary reuse item sets,
// so they take the same delta. Spill and copy-spill payloads — which add
// nodes and rewrite operands or opcodes, so no cheap delta exists — are
// measured from scratch through the cache. On sequencing candidates the
// evaluator allocates nothing in steady state: graphs, closures, relations,
// matchers, and analysis buffers all reset in place across candidates and
// across reduction iterations.
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

	// gen counts committed transformations; it tags which graph state the
	// memoized iteration state, the closure, and each scratch describe.
	gen   int
	reach *order.Relation // committed graph's closure
	// commits[i] records the transformation that moved generation i to i+1,
	// so stale scratches can replay instead of re-cloning.
	commits []commitRec

	st *iterState // memoized state for gen; nil until state() derives it

	// Candidate dedupe state, reused across iterations.
	keyBuf  []byte
	keyIdx  map[transform.CandKey]int
	slot    []int
	uniq    []int
	batchNs atomic.Int64 // summed per-job busy time of the current batch
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
	return &evaluator{
		g:         g,
		resources: resources,
		lat:       lat,
		opts:      opts,
		workers:   workers,
		scratches: make([]*evalScratch, workers),
		keyIdx:    make(map[transform.CandKey]int),
		reach:     g.Reach(),
	}
}

// state returns the committed iteration state for the current generation,
// computing it at most once per generation. Called only from the goroutine
// driving the evaluator; candidate workers receive the result as an
// argument.
func (e *evaluator) state() *iterState {
	if e.st != nil {
		return e.st
	}
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
	return st
}

// commit records that the candidate was just applied to the committed
// graph: it advances the generation, invalidates the memoized iteration
// state, and updates the closure — in place for sequencing commits,
// recomputed for spills (which add nodes).
//
// The caller must call commit after every Candidate.Apply on e.g and
// before the next state or evalAll.
func (e *evaluator) commit(c *transform.Candidate) {
	rec := commitRec{spill: !c.SeqOnly()}
	if !rec.spill {
		rec.edges = c.Edges
	}
	e.commits = append(e.commits, rec)
	e.gen++
	e.st = nil
	if rec.spill {
		e.reach = e.g.Reach()
		return
	}
	for _, ed := range rec.edges {
		e.reach.AddClosureEdge(ed[0], ed[1])
	}
}

// scratch returns worker w's scratch state, building it on first use and
// bringing its graph up to the committed generation: sequencing commits are
// replayed as plain edge insertions; a spill commit (which restructures
// instructions) forces a fresh clone.
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
// carries one entry per input candidate so the selection sort ranks every
// candidate, ties included.
func (e *evaluator) evalAll(cands []scored) ([]evalOutcome, error) {
	st := e.state()

	if cap(e.slot) < len(cands) {
		e.slot = make([]int, len(cands))
	}
	e.slot = e.slot[:len(cands)]
	e.uniq = e.uniq[:0]
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
