package core

import (
	"fmt"

	"ursa/internal/dag"
	"ursa/internal/transform"
)

// A CandidateScore is the reduction loop's verdict on one candidate: the
// total over-limit width and the critical path of the graph the candidate
// produces. OK is false when the candidate refused to apply, in which case
// the selection ignores it.
type CandidateScore struct {
	Candidate *transform.Candidate
	Resource  string // the over-limit resource the candidate was generated for
	OK        bool
	Excess    int
	Crit      int
}

// ScoreCandidates runs a single candidate-evaluation round on the graph:
// measure every resource, generate the current iteration's reduction
// candidates, and score each one exactly as the reduction loop would. It
// returns the scores in candidate order and commits nothing — tentative
// applications happen on scratch state only.
//
// This is the hook behind the BenchmarkPickBest perf-trajectory benchmark:
// it times precisely the per-iteration work of the reduction loop, without
// the variable number of iterations a full Run adds on top. The delta
// oracle in internal/check holds every score it returns to the
// from-scratch definition.
func ScoreCandidates(g *dag.Graph, opts Options) ([]CandidateScore, error) {
	m := opts.Machine
	if m == nil {
		return nil, fmt.Errorf("core: no machine configured")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	resources := Resources(g, m)
	lat := func(n *dag.Node) int { return m.LatencyOf(n.Instr.Op) }

	ev := newEvaluator(g, resources, lat, &opts)
	st := ev.state()
	cands := ev.collectCandidates(st, resources)
	if len(cands) == 0 {
		return nil, nil
	}
	outs, err := ev.evalAll(cands)
	if err != nil {
		return nil, err
	}
	pickBest(outs, st.excess, styleDefault)
	scores := make([]CandidateScore, len(outs))
	for i, o := range outs {
		scores[i] = CandidateScore{Candidate: o.s.cand, Resource: o.s.resource, OK: o.ok, Excess: o.excess, Crit: o.crit}
	}
	return scores, nil
}
