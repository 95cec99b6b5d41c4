// Package exact computes provably optimal baselines for the small
// straight-line blocks the fuzzer generates: the true minimum register
// pressure any legal schedule of a dependence DAG can achieve (per
// register class), and the true minimum resource-feasible schedule
// length under a machine's functional-unit limits. URSA's §4 sequence is
// a heuristic — width by bipartite matching, greedy kill selection,
// greedy reduction — with no bound on its distance from optimal; these
// solvers supply the ground truth the gap oracle and the gap telemetry
// measure against.
//
// Both solvers are exponential in the worst case (minimum-register
// scheduling is NP-complete; the paper's Theorem 2 shows even choosing
// kills exactly is), so they accept at most NodeLimit instruction nodes
// and abandon the search — returning ErrBudget — once a state budget is
// spent. Within those limits results are exact and deterministic: the
// search iterates nodes in ascending order, never depends on map
// iteration order, and prefers the earlier incumbent on ties.
package exact

import (
	"context"
	"errors"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/sched"
)

// NodeLimit is the largest number of instruction nodes the solvers
// accept; beyond it Solve and Makespan return ErrTooLarge. Thirty nodes
// keeps the downset masks in one uint64 word and bounds worst-case
// search well under the fuzzer's budget.
const NodeLimit = 30

// DefaultBudget is the per-solver cap on explored search states when
// Options.Budget is zero. Random fuzzer-sized DAGs stay far below it;
// adversarial wide DAGs hit it and report ErrBudget instead of hanging.
const DefaultBudget = 1 << 20

// Solver refusals. Both are expected outcomes on oversized or
// adversarial inputs, not bugs; Skippable folds them (plus context
// cancellation) into one test.
var (
	ErrTooLarge = errors.New("exact: block exceeds solver node limit")
	ErrBudget   = errors.New("exact: search budget exhausted")
)

// Skippable reports whether err is an expected solver refusal — the
// block is too large, the search ran out of budget, or the caller's
// context ended — rather than a finding.
func Skippable(err error) bool {
	return errors.Is(err, ErrTooLarge) || errors.Is(err, ErrBudget) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Options tunes a solver run.
type Options struct {
	// Ctx, when non-nil, cancels the search cooperatively: the solver
	// polls it periodically and returns its error.
	Ctx context.Context
	// Budget caps explored search states per sub-solver; zero means
	// DefaultBudget.
	Budget int
}

func (o Options) budget() int {
	if o.Budget > 0 {
		return o.Budget
	}
	return DefaultBudget
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Result reports the optimal baselines for one DAG on one machine.
type Result struct {
	// Nodes is the number of instruction nodes solved over.
	Nodes int
	// MinWords is the minimum schedule length (in issue words) any
	// dependence- and resource-respecting schedule achieves in the strict
	// model sched.List and sched.Validate enforce, where every edge waits
	// the full latency of its source.
	MinWords int
	// MinWordsProg is the minimum word count in the looser program model
	// emitted code obeys: a branch may share the final word with the last
	// operation, and a store may issue the cycle after a load it
	// overwrites. Every compiled program of the block — any method,
	// spilled or not — has Words ≥ MinWordsProg, whereas MinWords (≥
	// MinWordsProg) bounds only strict-model schedules.
	MinWordsProg int
	// MinPressure[c] is the minimum number of class-c registers any
	// legal sequential ordering of the block needs — the best case over
	// schedules, where URSA's measured width is the worst case.
	MinPressure [ir.NumClasses]int
	// Schedule realizes MinWords (Schedule.Cycles == MinWords).
	Schedule *sched.Schedule
}

// Solve computes both optimal baselines for the DAG on the machine. The
// graph is not modified.
func Solve(g *dag.Graph, m *machine.Config, opts Options) (*Result, error) {
	s, err := Makespan(g, m, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Nodes: len(g.InstrNodes()), MinWords: s.Cycles, MinWordsProg: s.Cycles, Schedule: s}
	if needsProgModel(g, m) {
		mw, err := minWordsProg(g, m, s.Cycles, opts)
		if err != nil {
			return nil, err
		}
		res.MinWordsProg = mw
	}
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		p, err := MinPressure(g, c, opts)
		if err != nil {
			return nil, err
		}
		res.MinPressure[c] = p
	}
	return res, nil
}

// needsProgModel reports whether the program model can beat the strict
// one on this block: it has a branch (which may share the final word),
// or a store anti-ordered after a multi-cycle load (which may issue
// before the load completes). When false, MinWordsProg == MinWords and
// the second search is skipped.
func needsProgModel(g *dag.Graph, m *machine.Config) bool {
	for _, id := range g.InstrNodes() {
		in := g.Nodes[id].Instr
		if in.IsBranch() {
			return true
		}
		if in.IsMem() && !in.IsStore() && m.LatencyOf(in.Op) > 1 {
			for _, sc := range g.Succs(id) {
				if isWARedge(g, id, sc) {
					return true
				}
			}
		}
	}
	return false
}

// instrTopo returns the instruction nodes in topological order.
func instrTopo(g *dag.Graph) []int {
	var topo []int
	for _, n := range g.TopoOrder() {
		if g.Nodes[n].Instr != nil {
			topo = append(topo, n)
		}
	}
	return topo
}
