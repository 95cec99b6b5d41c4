// Package core implements the top-level URSA algorithm (paper Figure 1):
// measure the requirements of every resource, locate the regions with
// excess, and repeatedly apply the reduction transformation that best
// combines requirement reduction with minimal critical-path growth, until
// the dependence DAG's worst-case requirements fit the target machine.
//
// Per §5, transformations for different resources can be applied in an
// integrated manner (every candidate for every over-subscribed resource is
// scored each round) or in phases (registers first, then functional units —
// the ordering §5 argues for — or the reverse, provided for ablation).
package core

import (
	"fmt"
	"io"
	"sort"

	"ursa/internal/assign"
	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/measure"
	"ursa/internal/metrics"
	"ursa/internal/reuse"
	"ursa/internal/sched"
	"ursa/internal/transform"
)

// Policy selects how transformations for different resources interleave.
type Policy uint8

// Policies.
const (
	// Integrated scores all candidates for all over-limit resources
	// together every round (§5's integrated application).
	Integrated Policy = iota
	// RegistersFirst reduces register excess to fit, then functional
	// units: the phase ordering §5 recommends.
	RegistersFirst
	// FUsFirst reduces functional-unit excess first; provided for the
	// transformation-ordering ablation.
	FUsFirst
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Integrated:
		return "integrated"
	case RegistersFirst:
		return "registers-first"
	case FUsFirst:
		return "fus-first"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Options configures a URSA run.
type Options struct {
	Machine *machine.Config
	Policy  Policy
	// Trace, when non-nil, receives a line per measurement and applied
	// transformation.
	Trace io.Writer
	// DisableSpills restricts reduction to sequencing transformations
	// (for the spill-vs-sequence ablation).
	DisableSpills bool
	// DisableSequencing restricts register reduction to spills.
	DisableSequencing bool
	// Workers bounds the concurrent candidate evaluations per reduction
	// iteration (driver semantics: zero or negative means GOMAXPROCS, one
	// evaluates inline). Results are bit-identical across worker counts —
	// outcomes are collected by candidate index and ranked by a
	// deterministic sort.
	Workers int
}

// A Resource pairs an item spec with its machine limit. A value spec
// (Spec.Values) is a register resource — a register file, or an
// exposed-datapath output buffer whose items span both register classes —
// reduced by sequencing value lifetimes or spilling; Spec.Class is its
// register class.
type Resource struct {
	Name  string
	Limit int
	// Spec selects the resource's items; the evaluator builds it into
	// pooled storage against the closure it keeps.
	Spec reuse.Spec
}

// Build returns the resource's reuse structure on g, built from scratch.
func (r Resource) Build(g *dag.Graph) *reuse.Reuse { return r.Spec.Build(g, g.Reach(), g.Depths()) }

// Resources derives the resource list for a graph on a machine: one
// functional-unit resource per FU class (a single one for homogeneous
// machines, replicated per cluster on clustered machines, plus the shared
// inter-cluster transfer bus), one register resource per register class
// used by the code (per cluster on clustered machines), one output-buffer
// resource per FU class on buffered exposed-datapath machines, and a
// machine-wide issue resource when the machine caps total issue width.
func Resources(g *dag.Graph, m *machine.Config) []Resource {
	var rs []Resource
	nc := m.NumClusters()
	if m.Homogeneous && nc == 1 {
		rs = append(rs, Resource{
			Name:  "fu",
			Limit: m.Units[machine.ANY],
			Spec:  reuse.FUSpec(reuse.AllFUs),
		})
	} else {
		for _, cl := range m.FUClasses() {
			if cl == machine.XFER {
				// The transfer bus is machine-wide, and its instructions
				// are exactly the inter-cluster copies.
				rs = append(rs, Resource{
					Name:  "fu.xfer",
					Limit: m.Units.Get(machine.XFER),
					Spec:  reuse.FUSpec(func(n *dag.Node) bool { return n.Instr.IsCopy() }),
				})
				continue
			}
			kinds := m.KindsOf(cl)
			member := func(n *dag.Node) bool {
				for _, k := range kinds {
					if n.Instr.Kind() == k {
						return true
					}
				}
				return false
			}
			if nc == 1 {
				rs = append(rs, Resource{
					Name:  "fu." + cl.String(),
					Limit: m.Units[cl],
					Spec:  reuse.FUSpec(member),
				})
				continue
			}
			for k := 0; k < nc; k++ {
				name := fmt.Sprintf("fu.c%d", k)
				if !m.Homogeneous {
					name = fmt.Sprintf("fu.%s.c%d", cl, k)
				}
				rs = append(rs, Resource{
					Name:  name,
					Limit: m.Units[cl],
					Spec: reuse.FUSpec(func(n *dag.Node) bool {
						return int(n.Instr.Cluster) == k && member(n)
					}),
				})
			}
		}
	}
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		if !classUsed(g, c) {
			continue
		}
		if nc == 1 {
			rs = append(rs, Resource{
				Name:  "reg." + c.String(),
				Limit: m.Regs[c],
				Spec:  reuse.RegSpec(c),
			})
			continue
		}
		for k := 0; k < nc; k++ {
			spec := reuse.RegSpec(c)
			spec.Member = func(g *dag.Graph, n *dag.Node) bool {
				return int(n.Instr.Cluster) == k && g.Func.ClassOf(n.Instr.Dst) == c
			}
			if k != 0 {
				// Live-in values arrive in cluster 0's file (the clustered
				// pipelines reject live-ins upstream, so this is a
				// core-level convention, not a hot path).
				spec.LiveIn = nil
			}
			rs = append(rs, Resource{
				Name:  fmt.Sprintf("reg.%s.c%d", c, k),
				Limit: m.Regs[c],
				Spec:  spec,
			})
		}
	}
	if m.BufferDepth > 0 {
		for _, cl := range m.FUClasses() {
			name := "buf"
			if !m.Homogeneous {
				name = "buf." + cl.String()
			}
			rs = append(rs, Resource{
				Name:  name,
				Limit: m.BufferCap(cl),
				// A buffer slot holds every non-live-out value its class
				// produces — either register class — from issue until the
				// worst-case kill reader issues; live-outs stream to the
				// register file at writeback and hold no slot.
				Spec: reuse.Spec{Values: true, Class: ir.ClassInt,
					Member: func(g *dag.Graph, n *dag.Node) bool {
						return !g.LiveOut[n.Instr.Dst] && m.ClassFor(n.Instr.Kind()) == cl
					}},
			})
		}
	}
	if m.IssueWidth > 0 {
		rs = append(rs, Resource{
			Name:  "issue",
			Limit: m.IssueWidth,
			Spec:  reuse.FUSpec(reuse.AllFUs),
		})
	}
	return rs
}

func classUsed(g *dag.Graph, c ir.Class) bool {
	for _, n := range g.Nodes {
		if n.Instr == nil {
			continue
		}
		if n.Instr.Dst != ir.NoReg && g.Func.ClassOf(n.Instr.Dst) == c {
			return true
		}
		for _, u := range n.Instr.Uses() {
			if g.Func.ClassOf(u) == c {
				return true
			}
		}
	}
	return false
}

// Applied records one committed transformation.
type Applied struct {
	Resource string
	Kind     transform.Kind
	Note     string
	// Excess totals (sum over resources of width minus limit, clamped at
	// zero) before and after the application.
	ExcessBefore, ExcessAfter int
}

// Report summarizes a URSA run.
type Report struct {
	Machine       string
	Policy        Policy
	Iterations    int
	Applied       []Applied
	InitialWidths map[string]int
	FinalWidths   map[string]int
	Limits        map[string]int
	// Fits is true when every final width is within its limit; when false
	// the assignment phase must absorb the residue (§2).
	Fits bool
	// ScheduleClean is true when the chosen option's emitted schedule
	// needed no assignment-phase spill patching — the operational goal
	// even when the worst-case widths (Fits) still exceed the machine.
	ScheduleClean bool
	// Program is the chosen option's emitted code, exactly what
	// assign.Emit produces on the returned graph. It is nil when emission
	// failed, and EmitErr says why.
	Program *assign.Program
	EmitErr error
	// CritBefore/CritAfter are critical-path lengths under the machine's
	// latencies.
	CritBefore, CritAfter int
	SpillsInserted        int
}

// TotalExcess sums the over-limit amounts of the final widths.
func (r *Report) TotalExcess() int {
	total := 0
	for name, w := range r.FinalWidths {
		if d := w - r.Limits[name]; d > 0 {
			total += d
		}
	}
	return total
}

// Run executes URSA's allocation phase on the graph, mutating it, and
// returns the report. The graph afterwards encodes, through its added
// sequence edges and spill code, a program whose worst-case resource
// demands (usually) fit the machine. Run emits every option it considers
// to rank it, so the report carries the chosen graph's program: callers
// need not run assignment and code generation again.
//
// The transformation-selection heuristic is greedy, so a first attempt can
// occasionally strand itself with residual excess; Run then retries from
// the untransformed graph with the aggressive and spill-first tie-breaks
// and keeps the best outcome, before leaving any remaining excess to the
// assignment phase (§2). The styles differ only in their tie-break, so
// until their picks diverge a retry walks committed states an earlier
// attempt already scored: the attempts share one memo of scored states,
// and a retry picks from the stored outcomes instead of generating and
// scoring them again (see memo). Every attempt allocates registers from
// the table g.Func held on entry, so equal commits name equal registers in
// every attempt; on return g.Func holds exactly the chosen attempt's
// registers.
func Run(g *dag.Graph, opts Options) (*Report, error) {
	r, err := newRun(g, opts)
	if err != nil {
		return nil, err
	}
	// §1: "The allocation option that has the best overall effect can then
	// be selected." The untransformed DAG is itself an option: when the
	// list scheduler's own choice of schedule stays within the registers,
	// the worst-case excess never materializes and transformation would
	// only lengthen the schedule. When it already fits, no reduction has
	// anything to commit.
	if _, err := r.attempt(styleDefault, 0); err != nil {
		return nil, err
	}
	for _, style := range r.styles() {
		if r.best.Fits {
			break
		}
		if _, err := r.attempt(style, iterBound(g)); err != nil {
			return nil, err
		}
	}
	return r.finish(), nil
}

// A run is one Run call: what its attempts share — the resources, their
// limits and policy phases, the untransformed critical path, the memo of
// scored states — and the best option so far.
type run struct {
	g          *dag.Graph
	opts       Options
	resources  []Resource
	phases     [][]Resource
	lat        func(*dag.Node) int
	limits     map[string]int
	critBefore int
	memo       memo

	// regs is g.Func's register count on entry. Each attempt truncates the
	// table back to it before it starts; bestRegs saves the best attempt's
	// registers from regs on when a later attempt is about to truncate
	// them, and lastBest says the attempt that ran last is the best one.
	regs     int
	bestRegs ir.RegTail
	lastBest bool
	bestG    *dag.Graph
	best     *Report
}

func newRun(g *dag.Graph, opts Options) (*run, error) {
	m := opts.Machine
	if m == nil {
		return nil, fmt.Errorf("core: no machine configured")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	r := &run{
		g:         g,
		opts:      opts,
		resources: Resources(g, m),
		lat:       func(n *dag.Node) int { return m.LatencyOf(n.Instr.Op) },
		limits:    map[string]int{},
		regs:      g.Func.NumRegs(),
	}
	for _, res := range r.resources {
		r.limits[res.Name] = res.Limit
	}
	// The resource groups to attack in order under the configured policy.
	switch opts.Policy {
	case RegistersFirst:
		r.phases = [][]Resource{filterRes(r.resources, true), filterRes(r.resources, false)}
	case FUsFirst:
		r.phases = [][]Resource{filterRes(r.resources, false), filterRes(r.resources, true)}
	default:
		r.phases = [][]Resource{r.resources}
	}
	r.critBefore = g.CriticalPath(r.lat)
	return r, nil
}

// styles returns the reducing attempts' tie-breaks, in the order Run tries
// them until one fits.
func (r *run) styles() []scoreStyle {
	if r.opts.DisableSpills {
		return []scoreStyle{styleDefault, styleAggressive}
	}
	return []scoreStyle{styleDefault, styleAggressive, styleSpillFirst}
}

// attempt reduces a clone of the untransformed graph under the style,
// emits it, and keeps it when it beats the best option so far. It returns
// the attempt's report.
func (r *run) attempt(style scoreStyle, maxIters int) (*Report, error) {
	f := r.g.Func
	if r.lastBest {
		r.bestRegs = f.RegsFrom(r.regs)
	}
	f.TruncateRegs(r.regs)
	cl := r.g.Clone()
	rep, err := r.reduce(cl, style, maxIters)
	if err != nil {
		return nil, err
	}
	rep.Program, _, rep.EmitErr = assign.Emit(cl, r.opts.Machine, sched.Options{})
	r.lastBest = r.best == nil || betterOption(rep, r.best)
	if r.lastBest {
		r.bestG, r.best = cl, rep
	}
	return rep, nil
}

// finish installs the best option: its registers in g.Func and its graph
// in g.
func (r *run) finish() *Report {
	if !r.lastBest {
		r.g.Func.SetRegsFrom(r.regs, r.bestRegs)
	}
	r.g.ReplaceWith(r.bestG)
	r.best.ScheduleClean = r.best.Program != nil && r.best.Program.Spills == 0
	return r.best
}

// betterOption reports whether allocation outcome a has a better overall
// effect than b: primarily a shorter emitted schedule, then fewer
// assignment-phase spill stores (memory traffic), then worst-case widths
// that fit. An outcome that failed to emit loses to any that emitted.
func betterOption(a, b *Report) bool {
	if (a.Program == nil) != (b.Program == nil) {
		return a.Program != nil
	}
	if a.Program != nil {
		if la, lb := len(a.Program.Words), len(b.Program.Words); la != lb {
			return la < lb
		}
		if a.Program.Spills != b.Program.Spills {
			return a.Program.Spills < b.Program.Spills
		}
	}
	return a.Fits && !b.Fits
}

// scoreStyle selects the tie-breaking order used when comparing candidate
// transformations of equal excess reduction.
type scoreStyle uint8

const (
	// styleDefault: minimal critical-path growth, then the §5 kind order
	// (sequencing before spilling).
	styleDefault scoreStyle = iota
	// styleAggressive: the largest move (most sequence edges) first —
	// escapes states where the locally-cheapest move strands the search.
	styleAggressive
	// styleSpillFirst: spills before sequencing at equal excess.
	styleSpillFirst
)

// iterBound is the reduction loop's iteration bound for a graph: 8·N+16
// where N is the node count. Residual excess after the bound is left for
// the assignment phase, as §2 allows.
func iterBound(g *dag.Graph) int { return 8*len(g.Nodes) + 16 }

// memo records the committed states one Run's attempts reached, as a trie
// over their commit sequences. Node 0 is the untransformed graph; a node's
// children are the states one commit from it leads to, each keyed by the
// committed candidate itself. Per policy phase a node holds the outcomes
// of that phase's iteration at its state, or none when the phase found no
// candidates there; it also holds the state's total excess.
//
// Replay is exact. Candidates name nodes and registers by id and
// Candidate.Apply is deterministic, so equal commit sequences from the
// same graph and register table give equal graphs, and equal graphs give
// equal candidates and outcomes. The child key is the committed candidate
// rather than its AppendKey: attempts at a node pick from the same stored
// outcomes, so a shared commit is the same candidate, and no two
// candidates that merely encode alike (with differing notes or edge order)
// are taken for one another.
type memo struct {
	nodes   []memoNode
	initial map[string]int // the untransformed widths: every attempt's InitialWidths
}

type memoNode struct {
	excess      int
	cand        *transform.Candidate // the commit from the parent node
	child, next int32                // first child, next sibling; 0 for none
	scored      [2]bool              // per phase: its iteration here has run
	outs        [2][]evalOutcome     // per phase: that iteration's outcomes
}

// root returns the untransformed graph's node, measuring the graph through
// ev on first use.
func (m *memo) root(ev *evaluator) int32 {
	if len(m.nodes) == 0 {
		st := ev.state()
		m.initial = make(map[string]int, len(st.results))
		for name, res := range st.results {
			m.initial[name] = res.Width
		}
		m.nodes = append(m.nodes, memoNode{excess: st.excess})
	}
	return 0
}

// child returns the node that committing c at node n leads to. On first
// use it adds the node with the excess of ev's committed state, which must
// be the state the commit produced.
func (m *memo) child(n int32, c *transform.Candidate, ev *evaluator) int32 {
	for k := m.nodes[n].child; k != 0; k = m.nodes[k].next {
		if m.nodes[k].cand == c {
			return k
		}
	}
	k := int32(len(m.nodes))
	m.nodes = append(m.nodes, memoNode{excess: ev.state().excess, cand: c, next: m.nodes[n].child})
	m.nodes[n].child = k
	return k
}

// reduce measures the graph and commits at most maxIters reductions under
// the style's tie-break; maxIters 0 is a measurement-only run (the
// untransformed baseline option). g must equal r.g with g.Func's register
// table at its entry state. While the attempt's commits follow a path in
// the memo it replays: it picks from the stored outcomes with its own
// style and commits the pick through the evaluator, which keeps the graph
// and its closure current, but it generates and scores nothing. From its
// first state off the path on it scores, and records what it scored.
func (r *run) reduce(g *dag.Graph, style scoreStyle, maxIters int) (*Report, error) {
	opts := &r.opts
	rep := &Report{
		Machine:     opts.Machine.Name,
		Policy:      opts.Policy,
		FinalWidths: map[string]int{},
		Limits:      r.limits,
		CritBefore:  r.critBefore,
	}

	// One evaluator for the whole attempt: its scratch graphs, closures,
	// and measurement buffers persist across reduction iterations.
	ev := newEvaluator(g, r.resources, r.lat, opts)
	node := r.memo.root(ev)
	rep.InitialWidths = r.memo.initial
	excess := r.memo.nodes[node].excess
	tracef(opts.Trace, "ursa: %s initial widths %v excess %d", opts.Machine.Name, rep.InitialWidths, excess)

	var scored, replayed uint64
	for pi, phase := range r.phases {
		// Plateau moves: when no candidate strictly reduces total excess, a
		// bounded number of excess-preserving transformations may still be
		// committed — the paper notes a single application often cannot
		// remove all excess, and the follow-up candidates only appear on
		// the transformed DAG.
		plateau := 4
		for rep.Iterations < maxIters && excess > 0 {
			nd := &r.memo.nodes[node]
			outs := nd.outs[pi]
			if nd.scored[pi] {
				replayed++
			} else {
				scored++
				// One Hammocks and one Depths pass per iteration (memoized
				// in the evaluator until the next commit), shared by
				// excess-set location and every candidate generator.
				st := ev.state()
				if cands := ev.collectCandidates(st, phase); len(cands) > 0 {
					var err error
					if outs, err = ev.evalAll(cands); err != nil {
						return nil, err
					}
				}
				nd.scored[pi], nd.outs[pi] = true, outs
			}
			if len(outs) == 0 {
				break
			}
			best, bestExcess, improved := pickBest(outs, excess, style)
			if !improved {
				if plateau == 0 {
					break
				}
				best, bestExcess, improved = pickPlateau(outs, excess)
				if !improved {
					break
				}
				plateau--
			}
			if err := ev.commit(best.cand); err != nil {
				// The scratch applied cleanly, so the real graph must too.
				return nil, fmt.Errorf("core: committing %s: %v", best.cand, err)
			}
			rep.Iterations++
			if best.cand.Kind == transform.Spill || best.cand.Kind == transform.CopySpill {
				rep.SpillsInserted++
			}
			rep.Applied = append(rep.Applied, Applied{
				Resource:     best.resource,
				Kind:         best.cand.Kind,
				Note:         best.cand.Note,
				ExcessBefore: excess,
				ExcessAfter:  bestExcess,
			})
			tracef(opts.Trace, "ursa: applied %s (%s): excess %d -> %d",
				best.cand.Kind, best.cand.Note, excess, bestExcess)
			node = r.memo.child(node, best.cand, ev)
			excess = r.memo.nodes[node].excess
		}
	}
	metrics.AddReduceIterations(scored, replayed)

	for name, res := range ev.state().results {
		rep.FinalWidths[name] = res.Width
	}
	rep.Fits = rep.TotalExcess() == 0
	rep.CritAfter = g.CriticalPath(r.lat)
	tracef(opts.Trace, "ursa: final widths %v fits=%v crit %d -> %d",
		rep.FinalWidths, rep.Fits, rep.CritBefore, rep.CritAfter)
	return rep, nil
}

func filterRes(rs []Resource, registers bool) []Resource {
	var out []Resource
	for _, r := range rs {
		if r.Spec.Values == registers {
			out = append(out, r)
		}
	}
	return out
}

type scored struct {
	cand     *transform.Candidate
	resource string
}

// collectCandidates generates reduction candidates on the committed graph
// for every over-limit resource in the group, using the innermost and
// outermost excessive sets. The generators read the committed closure and
// st, the committed graph's hammocks, depths and measurements. The innermost
// and outermost sets (and different generators) routinely emit candidates
// with identical effect; those are kept in place — the selection ranks the
// exact historical sequence — but the evaluator canonicalizes them by
// transform.Candidate.AppendKey and measures each distinct effect once.
func (e *evaluator) collectCandidates(st *iterState, group []Resource) []scored {
	g, reach, opts := e.g, e.reach, e.opts
	var out []scored
	for _, r := range group {
		res := st.results[r.Name]
		if res == nil || res.Width <= r.Limit {
			continue
		}
		inner, outer := measure.InnerOuter(res, st.hammocks, r.Limit, &e.excess)
		for _, set := range [2]*measure.ExcessSet{inner, outer} {
			if set == nil {
				continue
			}
			if r.Spec.Values {
				if !opts.DisableSequencing {
					for _, c := range transform.RegSeqCandidates(g, reach, st.depths, res, set) {
						out = append(out, scored{c, r.Name})
					}
				}
				if !opts.DisableSpills {
					for _, c := range transform.SpillCandidates(g, st.depths, res, set) {
						out = append(out, scored{c, r.Name})
					}
				}
			} else {
				for _, c := range transform.FUCandidates(g, reach, st.depths, res, set) {
					out = append(out, scored{c, r.Name})
				}
			}
			if opts.Machine.Clusters > 1 && !opts.DisableSpills {
				// Any inter-cluster copy caught in an excess set — holding
				// the bus, or holding the register its destination defines —
				// can alternatively go through memory.
				for _, c := range transform.CopySpillCandidates(g, res, set) {
					out = append(out, scored{c, r.Name})
				}
			}
		}
	}
	return out
}

// pickBest ranks the evaluated outcomes and returns the candidate
// minimizing (total excess, critical path, kind rank). improved is false
// when no candidate strictly reduces total excess. The tentative
// application and measurement happen beforehand in evaluator.evalAll —
// concurrently, on per-worker scratch graphs — but the ranking here sees
// the outcomes in candidate order, so the winner does not depend on the
// worker count.
func pickBest(evals []evalOutcome, curExcess int, style scoreStyle) (scored, int, bool) {
	type outcome struct {
		s      scored
		excess int
		crit   int
		rank   int
		size   int // number of edges the move adds
	}
	kindRank := kindRanks(style)
	var outs []outcome
	for _, o := range evals {
		if !o.ok {
			continue
		}
		outs = append(outs, outcome{o.s, o.excess, o.crit, kindRank[o.s.cand.Kind], len(o.s.cand.Edges)})
	}
	if len(outs) == 0 {
		return scored{}, curExcess, false
	}
	sort.Slice(outs, func(i, j int) bool {
		if outs[i].excess != outs[j].excess {
			return outs[i].excess < outs[j].excess
		}
		switch style {
		case styleAggressive:
			if outs[i].size != outs[j].size {
				return outs[i].size > outs[j].size
			}
			if outs[i].crit != outs[j].crit {
				return outs[i].crit < outs[j].crit
			}
		case styleSpillFirst:
			if outs[i].rank != outs[j].rank {
				return outs[i].rank < outs[j].rank
			}
			if outs[i].crit != outs[j].crit {
				return outs[i].crit < outs[j].crit
			}
		default:
			if outs[i].crit != outs[j].crit {
				return outs[i].crit < outs[j].crit
			}
		}
		if outs[i].rank != outs[j].rank {
			return outs[i].rank < outs[j].rank
		}
		return outs[i].s.cand.Note < outs[j].s.cand.Note
	})
	best := outs[0]
	if best.excess >= curExcess {
		return scored{}, curExcess, false
	}
	return best.s, best.excess, true
}

// pickPlateau returns the best candidate whose total excess equals the
// current one (an excess-preserving move), preferring spills — they change
// the DAG's value structure and open reductions sequencing cannot reach.
// It reuses the iteration's outcomes rather than re-applying and
// re-measuring the spill candidates.
func pickPlateau(evals []evalOutcome, curExcess int) (scored, int, bool) {
	type outcome struct {
		s      scored
		excess int
		crit   int
	}
	var outs []outcome
	for _, o := range evals {
		if o.s.cand.Kind != transform.Spill && o.s.cand.Kind != transform.CopySpill {
			// Sequencing-only plateau moves just narrow the DAG without
			// changing its value structure; restrict plateaus to spills
			// (copy-spills restructure values the same way).
			continue
		}
		if !o.ok || o.excess > curExcess {
			continue
		}
		outs = append(outs, outcome{o.s, o.excess, o.crit})
	}
	if len(outs) == 0 {
		return scored{}, curExcess, false
	}
	sort.Slice(outs, func(i, j int) bool {
		if outs[i].excess != outs[j].excess {
			return outs[i].excess < outs[j].excess
		}
		if outs[i].crit != outs[j].crit {
			return outs[i].crit < outs[j].crit
		}
		return outs[i].s.cand.Note < outs[j].s.cand.Note
	})
	best := outs[0]
	return best.s, best.excess, true
}

func tracef(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
