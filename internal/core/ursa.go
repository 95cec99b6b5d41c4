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
	// Cache, when non-nil, memoizes measurements across the run (and, if
	// the caller shares one, across runs). Widths are independent of the
	// machine's limits, so a shared cache is sound across register-file and
	// FU-count sweeps; it must not be shared between machines that map the
	// same resource name onto different instruction sets. When nil, Run
	// creates a private cache for its internal re-measurements.
	Cache *measure.Cache
	// Workers bounds the concurrent candidate evaluations per reduction
	// iteration (driver semantics: zero or negative means GOMAXPROCS, one
	// evaluates inline). Results are bit-identical across worker counts —
	// outcomes are collected by candidate index and ranked by a
	// deterministic sort.
	Workers int
	// DisableIncremental reverts candidate scoring to the pre-engine
	// behavior: clone the graph per candidate and re-measure every
	// resource from scratch. Kept as the reference implementation for the
	// differential delta oracle and as the baseline the reduction-loop
	// benchmarks compare against.
	DisableIncremental bool
}

// A Resource pairs a reuse-structure builder with its machine limit.
type Resource struct {
	Name       string
	Limit      int
	IsRegister bool
	// IsBuffer marks an exposed-datapath output-buffer resource: a
	// value-holding resource (reduced like registers, by sequencing value
	// lifetimes or spilling) whose items span both register classes.
	IsBuffer bool
	Class    ir.Class // register class, when IsRegister && !IsBuffer
	Build    func(g *dag.Graph) *reuse.Reuse
}

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
			Build: func(g *dag.Graph) *reuse.Reuse { return reuse.FU(g, reuse.AllFUs) },
		})
	} else {
		for _, cl := range m.FUClasses() {
			cl := cl
			if cl == machine.XFER {
				// The transfer bus is machine-wide, and its instructions
				// are exactly the inter-cluster copies.
				rs = append(rs, Resource{
					Name:  "fu.xfer",
					Limit: m.Units.Get(machine.XFER),
					Build: func(g *dag.Graph) *reuse.Reuse {
						return reuse.FU(g, func(n *dag.Node) bool { return n.Instr.IsCopy() })
					},
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
					Build: func(g *dag.Graph) *reuse.Reuse { return reuse.FU(g, member) },
				})
				continue
			}
			for k := 0; k < nc; k++ {
				k := k
				name := fmt.Sprintf("fu.c%d", k)
				if !m.Homogeneous {
					name = fmt.Sprintf("fu.%s.c%d", cl, k)
				}
				rs = append(rs, Resource{
					Name:  name,
					Limit: m.Units[cl],
					Build: func(g *dag.Graph) *reuse.Reuse {
						return reuse.FU(g, func(n *dag.Node) bool {
							return int(n.Instr.Cluster) == k && member(n)
						})
					},
				})
			}
		}
	}
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		c := c
		if !classUsed(g, c) {
			continue
		}
		if nc == 1 {
			rs = append(rs, Resource{
				Name:       "reg." + c.String(),
				Limit:      m.Regs[c],
				IsRegister: true,
				Class:      c,
				Build:      func(g *dag.Graph) *reuse.Reuse { return reuse.Reg(g, c) },
			})
			continue
		}
		for k := 0; k < nc; k++ {
			k := k
			rs = append(rs, Resource{
				Name:       fmt.Sprintf("reg.%s.c%d", c, k),
				Limit:      m.Regs[c],
				IsRegister: true,
				Class:      c,
				Build: func(g *dag.Graph) *reuse.Reuse {
					f := g.Func
					var liveIn func(ir.VReg) bool
					if k == 0 {
						// Live-in values arrive in cluster 0's file (the
						// clustered pipelines reject live-ins upstream, so
						// this is a core-level convention, not a hot path).
						liveIn = func(v ir.VReg) bool { return f.ClassOf(v) == c }
					}
					return reuse.Values(g, c, func(n *dag.Node) bool {
						return int(n.Instr.Cluster) == k && f.ClassOf(n.Instr.Dst) == c
					}, liveIn)
				},
			})
		}
	}
	if m.BufferDepth > 0 {
		for _, cl := range m.FUClasses() {
			cl := cl
			name := "buf"
			if !m.Homogeneous {
				name = "buf." + cl.String()
			}
			rs = append(rs, Resource{
				Name:       name,
				Limit:      m.BufferCap(cl),
				IsRegister: true,
				IsBuffer:   true,
				Build: func(g *dag.Graph) *reuse.Reuse {
					// A buffer slot holds every non-live-out value its class
					// produces — either register class — from issue until the
					// worst-case kill reader issues; live-outs stream to the
					// register file at writeback and hold no slot.
					return reuse.Values(g, ir.ClassInt, func(n *dag.Node) bool {
						return !g.LiveOut[n.Instr.Dst] && m.ClassFor(n.Instr.Kind()) == cl
					}, nil)
				},
			})
		}
	}
	if m.IssueWidth > 0 {
		rs = append(rs, Resource{
			Name:  "issue",
			Limit: m.IssueWidth,
			Build: func(g *dag.Graph) *reuse.Reuse { return reuse.FU(g, reuse.AllFUs) },
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
// assignment phase (§2).
func Run(g *dag.Graph, opts Options) (*Report, error) {
	m := opts.Machine
	if m == nil {
		return nil, fmt.Errorf("core: no machine configured")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if opts.Cache == nil {
		// One cache across the baseline and every retry style: they all
		// start from clones of the same graph and re-measure overlapping
		// transformed states.
		opts.Cache = measure.NewCache()
	}
	styles := []scoreStyle{styleDefault, styleAggressive}
	if !opts.DisableSpills {
		styles = append(styles, styleSpillFirst)
	}
	var bestG *dag.Graph
	var bestRep *Report
	attempt := func(style scoreStyle, maxIters int) error {
		cl := g.Clone()
		rep, err := runOnce(cl, opts, style, maxIters)
		if err != nil {
			return err
		}
		rep.Program, _, rep.EmitErr = assign.Emit(cl, m, sched.Options{})
		if bestRep == nil || betterOption(rep, bestRep) {
			bestG, bestRep = cl, rep
		}
		return nil
	}
	// §1: "The allocation option that has the best overall effect can then
	// be selected." The untransformed DAG is itself an option: when the
	// list scheduler's own choice of schedule stays within the registers,
	// the worst-case excess never materializes and transformation would
	// only lengthen the schedule. When it already fits, no reduction has
	// anything to commit.
	if err := attempt(styleDefault, 0); err != nil {
		return nil, err
	}
	for _, style := range styles {
		if bestRep.Fits {
			break
		}
		if err := attempt(style, iterBound(g)); err != nil {
			return nil, err
		}
	}
	g.ReplaceWith(bestG)
	bestRep.ScheduleClean = bestRep.Program != nil && bestRep.Program.Spills == 0
	return bestRep, nil
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

// runOnce measures the graph and commits at most maxIters reductions under
// the style's tie-break; maxIters 0 is a measurement-only run (the
// untransformed baseline option).
func runOnce(g *dag.Graph, opts Options, style scoreStyle, maxIters int) (*Report, error) {
	m := opts.Machine
	resources := Resources(g, m)
	lat := func(n *dag.Node) int { return m.LatencyOf(n.Instr.Op) }

	rep := &Report{
		Machine:       m.Name,
		Policy:        opts.Policy,
		InitialWidths: map[string]int{},
		FinalWidths:   map[string]int{},
		Limits:        map[string]int{},
	}
	rep.CritBefore = g.CriticalPath(lat)
	for _, r := range resources {
		rep.Limits[r.Name] = r.Limit
	}

	// One evaluator for the whole run: its scratch graphs, closures, and
	// measurement buffers persist across reduction iterations.
	ev := newEvaluator(g, resources, lat, &opts)

	st := ev.state()
	results, excess := st.results, st.excess
	for name, res := range results {
		rep.InitialWidths[name] = res.Width
	}
	tracef(opts.Trace, "ursa: %s initial widths %v excess %d", m.Name, rep.InitialWidths, excess)

	// phases returns the resource groups to attack in order under the
	// configured policy.
	phases := func() [][]Resource {
		switch opts.Policy {
		case RegistersFirst:
			return [][]Resource{filterRes(resources, true), filterRes(resources, false)}
		case FUsFirst:
			return [][]Resource{filterRes(resources, false), filterRes(resources, true)}
		default:
			return [][]Resource{resources}
		}
	}()

	for _, phase := range phases {
		// Plateau moves: when no candidate strictly reduces total excess, a
		// bounded number of excess-preserving transformations may still be
		// committed — the paper notes a single application often cannot
		// remove all excess, and the follow-up candidates only appear on
		// the transformed DAG.
		plateau := 4
		for rep.Iterations < maxIters && excess > 0 {
			// One Hammocks pass per iteration (memoized in the evaluator's
			// generation state), shared by excess-set location and the delta
			// measurements' priority levels.
			st := ev.state()
			cands := collectCandidates(g, phase, st.results, opts, st.hammocks)
			if len(cands) == 0 {
				break
			}
			outs, err := ev.evalAll(cands)
			if err != nil {
				return nil, err
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
			if err := best.cand.Apply(g); err != nil {
				// The scratch applied cleanly, so the real graph must too.
				return nil, fmt.Errorf("core: committing %s: %v", best.cand, err)
			}
			ev.commit(best.cand)
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
			nst := ev.state()
			results, excess = nst.results, nst.excess
		}
	}

	for name, res := range results {
		rep.FinalWidths[name] = res.Width
	}
	rep.Fits = rep.TotalExcess() == 0
	rep.CritAfter = g.CriticalPath(lat)
	tracef(opts.Trace, "ursa: final widths %v fits=%v crit %d -> %d",
		rep.FinalWidths, rep.Fits, rep.CritBefore, rep.CritAfter)
	return rep, nil
}

func filterRes(rs []Resource, registers bool) []Resource {
	var out []Resource
	for _, r := range rs {
		if r.IsRegister == registers {
			out = append(out, r)
		}
	}
	return out
}

type scored struct {
	cand     *transform.Candidate
	resource string
}

// collectCandidates generates reduction candidates for every over-limit
// resource in the group, using the innermost and outermost excessive sets.
// hammocks is the committed graph's hammock list, computed once per
// iteration by the caller. The innermost and outermost sets (and different
// generators) routinely emit candidates with identical effect; those are
// kept in place — the selection ranks the exact historical sequence — but
// the evaluator canonicalizes them by transform.Candidate.Key and measures
// each distinct effect once.
func collectCandidates(g *dag.Graph, group []Resource, results map[string]*measure.Result, opts Options, hammocks []*dag.Hammock) []scored {
	var out []scored
	for _, r := range group {
		res := results[r.Name]
		if res == nil || res.Width <= r.Limit {
			continue
		}
		sets := measure.FindExcess(res, hammocks, r.Limit)
		if len(sets) == 0 {
			continue
		}
		targets := []*measure.ExcessSet{sets[0]}
		if len(sets) > 1 {
			targets = append(targets, sets[len(sets)-1])
		}
		for _, set := range targets {
			if r.IsRegister {
				if !opts.DisableSequencing {
					for _, c := range transform.RegSeqCandidates(g, res, set) {
						out = append(out, scored{c, r.Name})
					}
				}
				if !opts.DisableSpills {
					for _, c := range transform.SpillCandidates(g, res, set) {
						out = append(out, scored{c, r.Name})
					}
				}
			} else {
				for _, c := range transform.FUCandidates(g, res, set) {
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
// the outcomes in candidate order, so the winner is the same one the old
// inline clone-apply-measure loop picked.
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
// It reuses the iteration's outcomes: the old code re-applied and
// re-measured every spill candidate here, which the measurement cache
// collapsed into pure repeats anyway.
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
