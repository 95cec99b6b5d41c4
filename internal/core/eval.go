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
// depths and measurements. It is derived once per committed generation
// (memoized in the evaluator) and shared by the main loop and every
// candidate worker.
type iterState struct {
	hammocks []*dag.Hammock
	depths   []int
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
// scratch graph through a reusable transform.UndoLog, scored, and reverted;
// the winner is applied to the committed graph through the same
// transform.Candidate.Apply.
// A score needs only widths, and a width is the item count less a maximum
// matching, so candidates never go through the measurement cache, the
// fingerprint, the hammocks or the nesting levels: measure.Width is the one
// scoring primitive. Each application tests its sequencing edges against a
// scratch copy of the committed closure and keeps that copy closed
// (order.Relation.AddClosureEdge); sequencing-only candidates then
// rederive each resource's reuse pairs into pooled relation storage,
// reading the closure rows a 64-bit word at a time under the resource's
// item mask (reuse.Reuse.UpdateClosureInto). The matching runs on that
// relation's bit rows, with no adjacency lists (matching.Matcher): it is
// warm-started from the committed measurement when the resource's kill
// vector is unchanged, and runs cold on the relation already filled when a
// kill shifted. Per-cluster register files and exposed-datapath buffers
// are ordinary reuse item sets, so they take the same path. Spill and
// copy-spill payloads — which add nodes and rewrite operands or opcodes,
// so no cheap delta exists — rebuild each resource's reuse structure and
// match it cold. On sequencing candidates the evaluator allocates nothing
// in steady state: graphs, closures, relations, matchers, and analysis
// buffers all reset in place across candidates and across reduction
// iterations (TestSeqEvalAllocatesNothing).
//
// Only the committed graph is measured in full (prioritized chains, for the
// excess sets), through Options.Cache: it serves the repeats across a Run's
// attempts and, in ursad, across requests.
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
	log   transform.UndoLog
	// commits[i] records the transformation that moved generation i to i+1,
	// so stale scratches can replay instead of re-cloning.
	commits []commitRec

	st *iterState // memoized state for gen; nil until state() derives it

	// Candidate dedupe state, reused across iterations.
	keyBuf  []byte
	keyIdx  map[string]int // canonical encoding (AppendKey) -> uniq slot
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
// closure buffer copied from the committed closure before each
// application, the undo log, and the per-resource measurement scratch.
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

// update fills rs.ru with prev's reuse structure rederived on the
// candidate graph g, whose closure is reach and node depths depths, and
// reports whether prev's kills held (see reuse.Reuse.UpdateClosureInto).
// gen is the committed generation g was cloned or replayed from: use lists
// are recomputed once per generation.
func (rs *scratchRes) update(g *dag.Graph, reach *order.Relation, depths []int, prev *reuse.Reuse, gen int) bool {
	n := prev.NumItems()
	if rs.rel == nil || rs.rel.Size() != n {
		rs.rel = order.NewRelation(n)
	} else {
		rs.rel.Reset()
	}
	if prev.IsReg && rs.usesGen != gen {
		rs.ks.PrecomputeUses(g, prev.Items)
		rs.usesGen = gen
	}
	rs.ru.Rel = rs.rel
	return prev.UpdateClosureInto(g, reach, depths, &rs.ks, &rs.ru)
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
	st.depths = e.g.Depths()
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

// commit applies the candidate to the committed graph and records it: it
// advances the generation and invalidates the memoized iteration state.
// Apply keeps the closure current across sequencing edges; a spill or
// copy-spill adds nodes, so the closure is recomputed after one. A refused
// commit leaves the closure stale, and the run ends with the error.
func (e *evaluator) commit(c *transform.Candidate) error {
	if err := c.Apply(e.g, e.reach, &e.log); err != nil {
		return err
	}
	rec := commitRec{spill: !c.SeqOnly()}
	if !rec.spill {
		rec.edges = c.Edges
	}
	e.commits = append(e.commits, rec)
	e.gen++
	e.st = nil
	if rec.spill {
		e.reach = e.g.Reach()
	}
	return nil
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
// the reusable undo log: apply, take every resource's width, revert. Each
// width comes from one of two sources: a sequencing candidate's pooled
// closure update, warm-started from the committed matching while the kills
// hold, or, for spills and copy-spills, a cold rebuild of the resource.
func (e *evaluator) evalIncremental(sc *evalScratch, st *iterState, s scored) evalOutcome {
	if sc.reach == nil || sc.reach.Size() != e.reach.Size() {
		sc.reach = order.NewRelation(e.reach.Size())
	}
	sc.reach.CopyFrom(e.reach)
	if err := s.cand.Apply(sc.g, sc.reach, &sc.log); err != nil {
		return evalOutcome{s: s}
	}
	defer sc.log.Revert()

	seq := s.cand.SeqOnly()
	var depths []int
	if seq {
		depths = sc.g.DepthsInto(&sc.topo)
	}
	excess := 0
	for ri := range e.resources {
		r := &e.resources[ri]
		var warm *measure.Result // nil: match cold
		var ru *reuse.Reuse
		if seq {
			rs := &sc.res[ri]
			warm = st.results[r.Name]
			if !rs.update(sc.g, sc.reach, depths, warm.R, e.gen) {
				// A kill shifted: the committed matching may not be a
				// matching of the new order.
				warm = nil
			}
			ru = &rs.ru
		} else {
			ru = r.Build(sc.g)
		}
		if d := measure.Width(warm, ru, &sc.delta) - r.Limit; d > 0 {
			excess += d
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
