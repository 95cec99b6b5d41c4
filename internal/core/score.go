package core

import (
	"fmt"

	"ursa/internal/dag"
	"ursa/internal/measure"
)

// ScoreCandidates runs a single candidate-evaluation round on the graph:
// measure every resource, generate the current iteration's reduction
// candidates, and score each one exactly as the reduction loop would
// (incrementally or, with Options.DisableIncremental, by clone and full
// remeasure). It returns the number of candidates scored and commits
// nothing — tentative applications happen on scratch state only.
//
// This is the hook behind the BenchmarkPickBest perf-trajectory benchmark:
// it times precisely the per-iteration work the incremental engine
// replaces, without the variable number of iterations a full Run adds on
// top. It is also a convenient probe for how many moves the allocator is
// choosing from on a given graph.
func ScoreCandidates(g *dag.Graph, opts Options) (int, error) {
	m := opts.Machine
	if m == nil {
		return 0, fmt.Errorf("core: no machine configured")
	}
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if opts.Cache == nil {
		opts.Cache = measure.NewCache()
	}
	resources := Resources(g, m)
	lat := func(n *dag.Node) int { return m.LatencyOf(n.Instr.Op) }

	ev := newEvaluator(g, resources, lat, &opts)
	st := ev.state()
	cands := collectCandidates(g, resources, st.results, opts, st.hammocks)
	if len(cands) == 0 {
		return 0, nil
	}
	outs, err := ev.evalAll(cands)
	if err != nil {
		return 0, err
	}
	pickBest(outs, st.excess, styleDefault)
	return len(cands), nil
}
