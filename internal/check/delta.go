package check

import (
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

// checkDelta holds the incremental remeasurement engine to account against
// the from-scratch reference it replaces. Three layers are cross-checked on
// every case:
//
//  1. Closure maintenance: after applying a sequencing candidate's edges,
//     the closure maintained in place by order.Relation.AddClosureEdge must
//     equal the closure recomputed from the transformed graph.
//  2. Measurement: for every resource, the warm-started delta measurement
//     (reuse.Reuse.UpdateClosureInto + measure.ChainsDeltaWidth, seeded
//     with the committed matching and the pre-candidate hammock levels,
//     through scratch reused across candidates and resources, exactly as an
//     evaluator worker runs it) must report the width of a full
//     from-scratch Measure of the transformed graph, and the updated
//     relation and kill vector must equal a from-scratch rebuild's. When
//     UpdateClosureInto declines (register kills shifted), the fallback
//     must be justified: the recomputed kill vector must actually differ.
//  3. Selection: a full core.Run with the engine enabled must emit code
//     byte-identical to a run with Options.DisableIncremental (the
//     pre-engine reference path), at several worker counts.
//
// Candidates are replayed through transform.Candidate.ApplyLog and
// UndoLog.Revert — the apply/revert cycle the engine runs on its scratch
// graphs — and every revert must restore the graph fingerprint, since the
// engine reuses one scratch graph across all of a worker's candidates. On
// clustered machines the copy-spill candidates are replayed too: the
// from-scratch measurement of the log-applied graph must match a
// clone+Apply of the same candidate.
//
// Every target family is covered: clustered register files and
// exposed-datapath buffers are reuse item sets like any other, and core.Run
// scores their candidates on the same incremental path.
func checkDelta(rep *Report, c *Case) {
	m := c.Mach.Config()
	g := buildGraph(rep, OracleDelta, c)
	if g == nil {
		return
	}
	resources := core.Resources(g, m)
	hammocks := g.Hammocks()
	levels := g.NestLevels(hammocks)
	baseReach := g.Reach()
	base := make(map[string]*measure.Result, len(resources))
	for _, r := range resources {
		base[r.Name] = measure.Measure(r.Build(g))
	}

	var log transform.UndoLog
	var sc deltaScratch
	applied := 0
	for _, r := range resources {
		res := base[r.Name]
		limits := []int{r.Limit}
		if res.Width-1 >= 1 && res.Width-1 != r.Limit {
			limits = append(limits, res.Width-1)
		}
		for _, limit := range limits {
			for _, set := range measure.FindExcess(res, hammocks, limit) {
				var cands []*transform.Candidate
				if r.IsRegister {
					cands = transform.RegSeqCandidates(g, res, set)
				} else {
					cands = transform.FUCandidates(g, res, set)
				}
				if m.Clusters > 1 {
					cands = append(cands, transform.CopySpillCandidates(g, res, set)...)
				}
				for _, cand := range cands {
					if applied >= deltaCandidateLimit {
						break
					}
					before := g.Fingerprint()
					var ref *dag.Graph
					if !cand.SeqOnly() {
						ref = g.Clone()
						ref.Func = g.Func.Clone()
					}
					if err := cand.ApplyLog(g, &log); err != nil {
						if g.Fingerprint() != before {
							rep.failf(OracleDelta, "%s: refused application left the graph changed", cand)
							return
						}
						continue // inapplicable candidates are allowed to refuse
					}
					applied++
					rep.tick(OracleDelta)
					if cand.SeqOnly() {
						checkDeltaCandidate(rep, g, resources, base, baseReach, levels, cand, log.Added(), &sc)
					} else {
						checkCopySpillCandidate(rep, g, ref, resources, cand)
					}
					log.Revert()
					if g.Fingerprint() != before {
						rep.failf(OracleDelta, "%s: revert did not restore the graph", cand)
						return
					}
				}
			}
		}
	}

	checkDeltaSelection(rep, g, m)
}

// deltaScratch is the oracle's counterpart of an evaluator worker's
// measurement scratch, reused across every candidate and resource.
type deltaScratch struct {
	topo  dag.Scratch
	kills reuse.KillScratch
	delta measure.DeltaScratch
}

// checkDeltaCandidate compares, on the already-transformed graph g, the
// incremental closure and per-resource delta measurements against their
// from-scratch references.
func checkDeltaCandidate(rep *Report, g *dag.Graph, resources []core.Resource,
	base map[string]*measure.Result, baseReach *order.Relation, levels []int,
	cand *transform.Candidate, added [][2]int, sc *deltaScratch) {

	inc := baseReach.Clone()
	for _, e := range added {
		inc.AddClosureEdge(e[0], e[1])
	}
	full := g.Reach()
	for a := 0; a < full.Size(); a++ {
		for b := 0; b < full.Size(); b++ {
			if inc.Has(a, b) != full.Has(a, b) {
				rep.failf(OracleDelta, "%s: incremental closure disagrees at (%d,%d): inc=%v full=%v",
					cand, a, b, inc.Has(a, b), full.Has(a, b))
				return
			}
		}
	}

	depths := g.DepthsInto(&sc.topo)
	for _, r := range resources {
		prev := base[r.Name]
		fresh := r.Build(g)
		if r.IsRegister {
			sc.kills.PrecomputeUses(g, prev.R.Items)
		}
		ru := reuse.Reuse{Rel: order.NewRelation(prev.R.NumItems())}
		if !prev.R.UpdateClosureInto(g, inc, depths, &sc.kills, &ru) {
			// The engine would fall back to a full rebuild here; the refusal
			// must be justified by an actual kill shift.
			if slices.Equal(fresh.Kill, prev.R.Kill) {
				rep.failf(OracleDelta, "%s %s: UpdateClosureInto declined but kills are unchanged", r.Name, cand)
			}
			continue
		}
		if got, want := measure.ChainsDeltaWidth(prev, &ru, levels, &sc.delta), measure.Measure(fresh).Width; got != want {
			rep.failf(OracleDelta, "%s %s: delta width %d, from-scratch %d", r.Name, cand, got, want)
			continue
		}
		// The updated relation and kills must match a from-scratch rebuild.
		if !slices.Equal(ru.Kill, fresh.Kill) {
			rep.failf(OracleDelta, "%s %s: delta kills %v, rebuild %v", r.Name, cand, ru.Kill, fresh.Kill)
			continue
		}
		if ru.Rel.Size() != fresh.Rel.Size() {
			rep.failf(OracleDelta, "%s %s: delta relation over %d items, rebuild %d",
				r.Name, cand, ru.Rel.Size(), fresh.Rel.Size())
			continue
		}
		for i := 0; i < fresh.Rel.Size(); i++ {
			got, want := ru.Rel.Row(i), fresh.Rel.Row(i)
			if !got.SubsetOf(want) || !want.SubsetOf(got) {
				rep.failf(OracleDelta, "%s %s: delta relation row %d is %v, rebuild %v",
					r.Name, cand, i, got, want)
				break
			}
		}
	}
}

// checkCopySpillCandidate compares the graph g a copy-spill was just
// applied to through the undo log against ref, a clone of the pre-apply
// graph, after applying the same candidate to ref with Apply — the commit
// path. Both must yield the same graph and the same from-scratch
// measurement of every resource.
func checkCopySpillCandidate(rep *Report, g, ref *dag.Graph, resources []core.Resource, cand *transform.Candidate) {
	if err := cand.Apply(ref); err != nil {
		rep.failf(OracleDelta, "%s: Apply on a clone failed after ApplyLog succeeded: %v", cand, err)
		return
	}
	if g.Fingerprint() != ref.Fingerprint() {
		rep.failf(OracleDelta, "%s: ApplyLog and clone+Apply produced different graphs", cand)
		return
	}
	for _, r := range resources {
		got := measure.Measure(r.Build(g))
		want := measure.Measure(r.Build(ref))
		if got.Width != want.Width || len(got.Chains) != len(want.Chains) {
			rep.failf(OracleDelta, "%s %s: log-applied width %d (%d chains), clone+Apply %d (%d chains)",
				r.Name, cand, got.Width, len(got.Chains), want.Width, len(want.Chains))
		}
	}
}

// checkDeltaSelection runs the full reduction loop with and without the
// incremental engine (and across worker counts) and requires byte-identical
// emitted code and identical reports.
func checkDeltaSelection(rep *Report, g *dag.Graph, m *machine.Config) {
	type variant struct {
		name string
		opts core.Options
	}
	variants := []variant{
		{"full", core.Options{Machine: m, DisableIncremental: true, Workers: 1}},
		{"incremental-j1", core.Options{Machine: m, Workers: 1}},
		{"incremental-j4", core.Options{Machine: m, Workers: 4}},
	}
	var refCode string
	var refIters int
	for i, v := range variants {
		cl := g.Clone()
		cl.Func = g.Func.Clone()
		runRep, err := core.Run(cl, v.opts)
		if err != nil {
			rep.failf(OracleDelta, "core.Run (%s): %v", v.name, err)
			return
		}
		code := ""
		if runRep.Program != nil {
			code = runRep.Program.String()
		}
		if i == 0 {
			refCode, refIters = code, runRep.Iterations
			rep.tick(OracleDelta)
			continue
		}
		if code != refCode {
			rep.failf(OracleDelta, "core.Run (%s) emitted different code than (%s)", v.name, variants[0].name)
		}
		if runRep.Iterations != refIters {
			rep.failf(OracleDelta, "core.Run (%s) took %d iterations, (%s) took %d",
				v.name, runRep.Iterations, variants[0].name, refIters)
		}
		rep.tick(OracleDelta)
	}
}
