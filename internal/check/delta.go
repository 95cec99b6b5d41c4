package check

import (
	"fmt"
	"slices"

	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/machine"
	"ursa/internal/measure"
	"ursa/internal/order"
	"ursa/internal/reuse"
	"ursa/internal/transform"
)

// deltaCandidateLimit bounds how many sequencing candidates the delta
// oracle replays per case (each replay measures every resource twice:
// incrementally and from scratch).
const deltaCandidateLimit = 16

// deltaSpillLimit bounds the spill and copy-spill replays per case. It is
// a budget of its own, so the sequencing replays cannot starve them.
const deltaSpillLimit = 8

// deltaSpillReplays is the Exercised sub-count of spill and copy-spill
// replays, so a campaign shows the spill path was actually replayed.
const deltaSpillReplays = OracleDelta + ".spills"

// deltaSpillWarm is the Exercised sub-count of spill and copy-spill
// replays in which at least one resource kept its items and kills, so a
// campaign shows the warm start was taken after a spill.
const deltaSpillWarm = OracleDelta + ".spill_warm"

// deltaSkipped is the Exercised sub-count of replayed resource builds the
// builder reported unchanged, so a campaign shows the skip was taken and
// checked against a rebuild.
const deltaSkipped = OracleDelta + ".skipped"

// checkDelta holds the reduction loop's candidate scorer to the
// from-scratch definition of a score:
//
//   - every core.ScoreCandidates outcome — sequencing, spill and copy-spill
//     alike — equals clone, Apply, Measure every resource, CriticalPath;
//   - replayed candidates, sequencing and, on their own budget, spill and
//     copy-spill: the closure Apply kept, each resource's pooled build
//     (items, kills and relation) and the width equal from-scratch
//     rebuilds, kill shifts included, and the report of unchanged items
//     and kills, and of an unchanged relation, is exact
//     (checkDeltaCandidate);
//   - replayed spill and copy-spill candidates yield a valid graph whose
//     spill wiring matches the from-scratch closure of the result
//     (checkSpillCandidate);
//   - a refused application leaves the graph, its node count and its
//     register count unchanged, and every UndoLog.Revert restores them,
//     since the evaluator reuses one scratch graph across a worker's
//     candidates;
//   - core.Run emits identical code at one and at four workers.
//
// Every target family is covered: clustered register files and
// exposed-datapath buffers are reuse item sets like any other.
func checkDelta(rep *Report, c *Case) {
	m := c.Mach.Config()
	g := buildGraph(rep, OracleDelta, c)
	if g == nil {
		return
	}
	resources := core.Resources(g, m)
	checkDeltaScores(rep, g, m, resources)

	hammocks := g.Hammocks()
	baseReach := g.Reach()
	depths := g.Depths()
	reach := order.NewRelation(baseReach.Size())
	base := make(map[string]*measure.Result, len(resources))
	for _, r := range resources {
		base[r.Name] = measure.Measure(r.Build(g))
	}

	var log transform.UndoLog
	sc := deltaScratch{res: make([]reuse.Builder, len(resources))}
	seqs, spills := 0, 0
	for _, r := range resources {
		res := base[r.Name]
		limits := []int{r.Limit}
		if res.Width-1 >= 1 && res.Width-1 != r.Limit {
			limits = append(limits, res.Width-1)
		}
		for _, limit := range limits {
			for _, set := range measure.FindExcess(res, hammocks, limit) {
				var cands []*transform.Candidate
				if r.Spec.Values {
					cands = append(transform.RegSeqCandidates(g, baseReach, depths, res, set),
						transform.SpillCandidates(g, depths, res, set)...)
				} else {
					cands = transform.FUCandidates(g, baseReach, depths, res, set)
				}
				if m.Clusters > 1 {
					cands = append(cands, transform.CopySpillCandidates(g, res, set)...)
				}
				for _, cand := range cands {
					replayed, maxReplays := &seqs, deltaCandidateLimit
					if !cand.SeqOnly() {
						replayed, maxReplays = &spills, deltaSpillLimit
					}
					if *replayed >= maxReplays {
						continue
					}
					before, nodes, regs := g.Clone(), g.NumNodes(), g.Func.NumRegs()
					changed := func() error {
						if n := g.Func.NumRegs(); n != regs {
							return fmt.Errorf("%d registers, was %d", n, regs)
						}
						return g.Diff(before)
					}
					var uses []int
					if cand.Spill != nil {
						uses = g.UseNodes(cand.Spill.Reg)
					}
					reach.CopyFrom(baseReach)
					if err := cand.Apply(g, reach, &log); err != nil {
						if err := changed(); err != nil {
							rep.failf(OracleDelta, "%s: refused application left the graph changed: %v", cand, err)
							return
						}
						continue // inapplicable candidates are allowed to refuse
					}
					*replayed++
					rep.tick(OracleDelta)
					warm := checkDeltaCandidate(rep, g, resources, base, baseReach, reach, cand, &sc)
					if !cand.SeqOnly() {
						rep.tick(deltaSpillReplays)
						if warm {
							rep.tick(deltaSpillWarm)
						}
						checkSpillCandidate(rep, g, cand, nodes, uses)
					}
					log.Revert()
					if err := changed(); err != nil {
						rep.failf(OracleDelta, "%s: revert did not restore the graph: %v", cand, err)
						return
					}
				}
			}
		}
	}

	checkDeltaSelection(rep, g, m)
}

// checkDeltaScores compares every score core.ScoreCandidates returns with
// the from-scratch score of the same candidate on a clone of g.
func checkDeltaScores(rep *Report, g *dag.Graph, m *machine.Config, resources []core.Resource) {
	scores, err := core.ScoreCandidates(g, core.Options{Machine: m, Workers: 1})
	if err != nil {
		rep.failf(OracleDelta, "core.ScoreCandidates: %v", err)
		return
	}
	lat := func(n *dag.Node) int { return m.LatencyOf(n.Instr.Op) }
	for _, s := range scores {
		rep.tick(OracleDelta)
		cl := g.Clone()
		cl.Func = g.Func.Clone()
		err := s.Candidate.Apply(cl, cl.Reach(), new(transform.UndoLog))
		if s.OK != (err == nil) {
			rep.failf(OracleDelta, "%s: scored ok=%v, but Apply on a clone returned %v", s.Candidate, s.OK, err)
			continue
		}
		if err != nil {
			continue
		}
		excess := 0
		for _, r := range resources {
			if d := measure.Measure(r.Build(cl)).Width - r.Limit; d > 0 {
				excess += d
			}
		}
		if crit := cl.CriticalPath(lat); s.Excess != excess || s.Crit != crit {
			rep.failf(OracleDelta, "%s: scored excess %d crit %d, from scratch excess %d crit %d",
				s.Candidate, s.Excess, s.Crit, excess, crit)
		}
	}
}

// deltaScratch is the oracle's counterpart of an evaluator worker's
// measurement scratch, reused across every candidate: one pooled builder
// per resource.
type deltaScratch struct {
	topo  dag.Scratch
	res   []reuse.Builder
	delta measure.DeltaScratch
}

// checkDeltaCandidate compares, on the already-transformed graph g, the
// closure Apply kept (inc) and the per-resource builds against their
// from-scratch references: inc equals Graph.Reach, each pooled build's
// items, kills and relation equal Resource.Build's, and its report is
// exact: not Rebuilt exactly when the rebuild's items and kills equal the
// committed ones, and Unchanged exactly when the rebuild's relation is
// the committed one too. The width the evaluator takes — the committed
// one when unchanged, warm-started when grown, cold otherwise — equals the
// measured width of the rebuild. base holds the committed measurements,
// built from the committed closure baseReach. It reports whether any
// resource warm-started or kept its width.
func checkDeltaCandidate(rep *Report, g *dag.Graph, resources []core.Resource,
	base map[string]*measure.Result, baseReach, inc *order.Relation,
	cand *transform.Candidate, sc *deltaScratch) bool {

	full := g.Reach()
	if inc.Size() != full.Size() {
		rep.failf(OracleDelta, "%s: incremental closure over %d nodes, graph has %d", cand, inc.Size(), full.Size())
		return false
	}
	for a := 0; a < full.Size(); a++ {
		for b := 0; b < full.Size(); b++ {
			if inc.Has(a, b) != full.Has(a, b) {
				rep.failf(OracleDelta, "%s: incremental closure disagrees at (%d,%d): inc=%v full=%v",
					cand, a, b, inc.Has(a, b), full.Has(a, b))
				return false
			}
		}
	}

	depths, _ := g.PathsInto(nil, &sc.topo)
	anyWarm := false
	for ri, r := range resources {
		prev := base[r.Name]
		fresh := r.Build(g)
		ru, change := sc.res[ri].Build(g, &r.Spec, inc, depths, prev.R, baseReach)
		want := reuse.Rebuilt
		if slices.Equal(fresh.Items, prev.R.Items) && slices.Equal(fresh.Kill, prev.R.Kill) {
			want = reuse.Grown
			if relationsEqual(fresh.Rel, prev.R.Rel) {
				want = reuse.Unchanged
			}
		}
		if change != want {
			rep.failf(OracleDelta, "%s %s: build reported %s, rebuild says %s", r.Name, cand, change, want)
			continue
		}
		if !slices.Equal(ru.Items, fresh.Items) {
			rep.failf(OracleDelta, "%s %s: built items %v, rebuild %v", r.Name, cand, ru.Items, fresh.Items)
			continue
		}
		if !slices.Equal(ru.Kill, fresh.Kill) {
			rep.failf(OracleDelta, "%s %s: built kills %v, rebuild %v", r.Name, cand, ru.Kill, fresh.Kill)
			continue
		}
		if ru.Rel.Size() != fresh.Rel.Size() {
			rep.failf(OracleDelta, "%s %s: built relation over %d items, rebuild %d",
				r.Name, cand, ru.Rel.Size(), fresh.Rel.Size())
			continue
		}
		for i := 0; i < fresh.Rel.Size(); i++ {
			got, want := ru.Rel.Row(i), fresh.Rel.Row(i)
			if !got.SubsetOf(want) || !want.SubsetOf(got) {
				rep.failf(OracleDelta, "%s %s: built relation row %d is %v, rebuild %v",
					r.Name, cand, i, got, want)
				break
			}
		}
		var got int
		switch change {
		case reuse.Unchanged:
			rep.tick(deltaSkipped)
			anyWarm = true
			got = prev.Width
		case reuse.Grown:
			anyWarm = true
			got = measure.Width(prev, ru, &sc.delta)
		default:
			got = measure.Width(nil, ru, &sc.delta)
		}
		if want := measure.Measure(fresh).Width; got != want {
			rep.failf(OracleDelta, "%s %s: width %d (%s), from scratch %d", r.Name, cand, got, change, want)
		}
	}
	return anyWarm
}

// relationsEqual reports whether two relations hold the same pairs over
// the same items.
func relationsEqual(a, b *order.Relation) bool {
	if a.Size() != b.Size() {
		return false
	}
	for i := 0; i < a.Size(); i++ {
		if !a.Row(i).SubsetOf(b.Row(i)) || !b.Row(i).SubsetOf(a.Row(i)) {
			return false
		}
	}
	return true
}

// checkSpillCandidate holds the graph g a spill or copy-spill was just
// applied to — nodes is g's node count before, uses the spilled value's
// readers before — to the definition of the transformation, read off the
// from-scratch closure of the result rather than the pre-apply closure
// Apply answers its questions from. The graph must stay a valid hammock;
// for a spill of store st and reload ld, every barrier must reach ld, st
// must precede exactly the pre-roots that are not the definition or its
// ancestors, and a use must keep the old register exactly when it reaches
// ld (a use that could not wait for the reload).
func checkSpillCandidate(rep *Report, g *dag.Graph, cand *transform.Candidate, nodes int, uses []int) {
	if err := g.Check(); err != nil {
		rep.failf(OracleDelta, "%s left an invalid graph: %v", cand, err)
		return
	}
	sp := cand.Spill
	if sp == nil {
		return
	}
	st, ld := nodes, nodes+1
	full := g.Reach()
	for _, b := range sp.Barrier {
		if !full.Has(b, ld) {
			rep.failf(OracleDelta, "%s: barrier %d does not reach the reload", cand, b)
		}
	}
	for _, r := range sp.PreRoots {
		if want := r != sp.Def && !full.Has(r, sp.Def); g.HasEdge(st, r) != want {
			rep.failf(OracleDelta, "%s: store->pre-root %d edge %v, want %v", cand, r, !want, want)
		}
	}
	for _, u := range uses {
		in := g.Nodes[u].Instr
		kept := in.Index == sp.Reg || slices.Contains(in.Args, sp.Reg)
		if kept != full.Has(u, ld) {
			rep.failf(OracleDelta, "%s: use %d kept the old register %v, reaches the reload %v",
				cand, u, kept, full.Has(u, ld))
		}
	}
}

// checkDeltaSelection runs the full reduction loop inline and across
// worker counts and requires byte-identical emitted code and identical
// iteration counts.
func checkDeltaSelection(rep *Report, g *dag.Graph, m *machine.Config) {
	var refCode string
	var refIters int
	for i, workers := range []int{1, 4} {
		cl := g.Clone()
		cl.Func = g.Func.Clone()
		runRep, err := core.Run(cl, core.Options{Machine: m, Workers: workers})
		if err != nil {
			rep.failf(OracleDelta, "core.Run (-j%d): %v", workers, err)
			return
		}
		code := ""
		if runRep.Program != nil {
			code = runRep.Program.String()
		}
		rep.tick(OracleDelta)
		if i == 0 {
			refCode, refIters = code, runRep.Iterations
			continue
		}
		if code != refCode {
			rep.failf(OracleDelta, "core.Run (-j%d) emitted different code than (-j1)", workers)
		}
		if runRep.Iterations != refIters {
			rep.failf(OracleDelta, "core.Run (-j%d) took %d iterations, (-j1) took %d",
				workers, runRep.Iterations, refIters)
		}
	}
}
