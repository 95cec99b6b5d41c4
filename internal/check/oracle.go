package check

import (
	"fmt"
	"sort"

	"ursa/internal/assign"
	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/exact"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/matching"
	"ursa/internal/measure"
	"ursa/internal/order"
	"ursa/internal/pipeline"
	"ursa/internal/sched"
	"ursa/internal/target"
	"ursa/internal/transform"
)

// Oracle names. Each oracle independently re-derives a property the
// pipeline claims and reports any disagreement as a Violation.
const (
	OracleWidth    = "width"        // measured width vs brute antichain + Hopcroft–Karp
	OracleLegal    = "legality"     // emitted code within FU and register limits
	OracleMono     = "monotonicity" // transforms never raise the width they target
	OracleDiffExec = "diffexec"     // compiled code vs sequential interpreter
	OracleDelta    = "delta"        // incremental remeasurement vs from-scratch
	OracleExact    = "exact"        // heuristic width/schedule vs the optimal solver
)

// AllOracles lists every oracle in execution order.
var AllOracles = []string{OracleWidth, OracleLegal, OracleMono, OracleDiffExec, OracleDelta, OracleExact}

// bruteWidthLimit bounds the exhaustive antichain enumeration: above this
// many items only the polynomial cross-checks run.
const bruteWidthLimit = 16

// monoCandidateLimit bounds how many transformation candidates the
// monotonicity oracle applies per case (they each clone and re-measure).
const monoCandidateLimit = 24

// A Violation is one property failure found by an oracle.
type Violation struct {
	Oracle string
	Detail string
}

func (v Violation) String() string { return fmt.Sprintf("[%s] %s", v.Oracle, v.Detail) }

// Report accumulates one case's oracle outcomes.
type Report struct {
	Violations []Violation
	// Exercised counts individual property checks per oracle, so a run can
	// prove each oracle actually fired. Keys beyond the oracle names are
	// sub-counts of one oracle's checks (deltaSpillReplays).
	Exercised map[string]int
}

func newReport() *Report { return &Report{Exercised: map[string]int{}} }

func (r *Report) failf(oracle, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
}

func (r *Report) tick(oracle string) { r.Exercised[oracle]++ }

// Failed reports whether any violation was recorded.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// FailedOracle reports whether the named oracle recorded a violation.
func (r *Report) FailedOracle(name string) bool {
	for _, v := range r.Violations {
		if v.Oracle == name {
			return true
		}
	}
	return false
}

// Check runs the selected oracles (nil means all) on the case. Panics
// inside the pipeline under test are caught and reported as violations of
// the oracle that provoked them — a panic is a finding, not a crash.
func Check(c *Case, oracles []string) *Report {
	rep := newReport()
	if oracles == nil {
		oracles = AllOracles
	}
	for _, name := range oracles {
		runOracle(rep, name, c)
	}
	return rep
}

func runOracle(rep *Report, name string, c *Case) {
	defer func() {
		if r := recover(); r != nil {
			rep.failf(name, "panic: %v", r)
		}
	}()
	switch name {
	case OracleWidth:
		checkWidth(rep, c)
	case OracleLegal:
		checkLegality(rep, c)
	case OracleMono:
		checkMonotonicity(rep, c)
	case OracleDiffExec:
		checkDiffExec(rep, c)
	case OracleDelta:
		checkDelta(rep, c)
	case OracleExact:
		checkExact(rep, c)
	default:
		rep.failf(name, "unknown oracle")
	}
}

// buildGraph compiles the case's block into a dependence DAG, reporting any
// construction failure against the given oracle. On clustered machines the
// block is clusterized first (on a private clone, like pipeline.Compile),
// so the graph the oracles measure carries the same inter-cluster copies
// the pipelines schedule and spill.
func buildGraph(rep *Report, oracle string, c *Case) *dag.Graph {
	b := c.Block()
	if m := c.Mach.Config(); m.Clusters > 1 {
		nf := b.Func.Clone()
		b = nf.Block(b.Label)
		if _, err := target.Clusterize(b, m); err != nil {
			rep.failf(oracle, "target.Clusterize: %v", err)
			return nil
		}
	}
	g, err := dag.Build(b)
	if err != nil {
		rep.failf(oracle, "dag.Build: %v", err)
		return nil
	}
	return g
}

// checkWidth verifies, for every resource of the machine, that the
// prioritized-matching width agrees with an independent Hopcroft–Karp
// matching, that the chain decomposition is a valid partition into chains,
// and — on small instances — that the width equals the exhaustively
// enumerated maximum antichain (Dilworth's theorem, the paper's Theorem 1).
func checkWidth(rep *Report, c *Case) {
	g := buildGraph(rep, OracleWidth, c)
	if g == nil {
		return
	}
	m := c.Mach.Config()
	for _, r := range core.Resources(g, m) {
		ru := r.Build(g)
		res := measure.Measure(ru)
		n := ru.NumItems()
		rep.tick(OracleWidth)

		if err := order.ValidateDecomposition(ru.Rel, res.Chains); err != nil {
			rep.failf(OracleWidth, "%s: invalid decomposition: %v", r.Name, err)
			continue
		}
		adj := make([][]int, n)
		for a := 0; a < n; a++ {
			ru.Rel.Row(a).ForEach(func(b int) { adj[a] = append(adj[a], b) })
		}
		_, hk := matching.HopcroftKarp(n, n, adj)
		if got, want := res.Width, n-hk; got != want {
			rep.failf(OracleWidth, "%s: measured width %d, Hopcroft–Karp says %d (n=%d, matching=%d)",
				r.Name, got, want, n, hk)
		}
		if n <= bruteWidthLimit {
			anti := order.MaxAntichainBrute(ru.Rel, nil)
			if !order.IsAntichain(ru.Rel, anti) {
				rep.failf(OracleWidth, "%s: brute enumerator returned a non-antichain %v", r.Name, anti)
			}
			if len(anti) != res.Width {
				rep.failf(OracleWidth, "%s: measured width %d but maximum antichain has %d elements %v",
					r.Name, res.Width, len(anti), anti)
			}
		}
	}
}

// overcommitted reports whether some register class must hold more values
// at the block end than the machine provides: every straight-line pipeline
// keeps all live-out values (plus a trailing branch's register operands) in
// registers simultaneously, so such a case is uncompilable by construction
// and a compile refusal on it is explained, not a finding. Generate never
// produces such cases (see trimLiveOuts); hand-written corpus cases might.
func overcommitted(c *Case) bool {
	var need [ir.NumClasses]int
	b := c.Block()
	used := map[ir.VReg]bool{}
	for _, in := range b.Instrs {
		for _, u := range in.Uses() {
			used[u] = true
		}
	}
	for _, in := range b.Instrs {
		if in.IsBranch() {
			for _, u := range in.Uses() {
				need[b.Func.ClassOf(u)]++
			}
		}
		if in.Dst != ir.NoReg && !used[in.Dst] {
			need[b.Func.ClassOf(in.Dst)]++
		}
	}
	return need[ir.ClassInt] > c.Mach.IntRegs || need[ir.ClassFP] > c.Mach.FPRegs
}

// checkLegality compiles the case with every pipeline and verifies the
// emitted code against the machine's static limits using an occupancy
// checker written independently of vliwsim: no cycle may over-subscribe a
// functional-unit class, and no register file may exceed its size.
func checkLegality(rep *Report, c *Case) {
	m := c.Mach.Config()
	overc := overcommitted(c)
	for _, method := range pipeline.AllMethods {
		prog, _, err := pipeline.Compile(c.Block(), m, method, pipeline.Options{})
		if err != nil {
			if target.Unsupported(err) {
				continue // declared method/target refusal, not a finding
			}
			if method == pipeline.Exact && exact.Skippable(err) {
				continue // the guarded lane may refuse large or adversarial blocks
			}
			if !overc {
				rep.failf(OracleLegal, "%s: compile: %v", method, err)
			}
			continue
		}
		rep.tick(OracleLegal)
		if err := programLegal(prog, m); err != nil {
			rep.failf(OracleLegal, "%s: %v", method, err)
		}
	}
}

// programLegal checks the static schedule legality of an emitted program.
func programLegal(prog *assign.Program, m *machine.Config) error {
	nc := m.NumClusters()
	// Functional-unit occupancy: ops started in earlier cycles hold their
	// unit for OccupancyOf cycles. Units are per cluster, except the
	// inter-cluster transfer bus, which is shared machine-wide.
	type pool struct {
		cl machine.FUClass
		k  int
	}
	busy := map[pool][]int{}
	for cycle, word := range prog.Words {
		if m.IssueWidth > 0 && len(word) > m.IssueWidth {
			return fmt.Errorf("cycle %d issues %d instructions past the %d-wide fetch bound",
				cycle, len(word), m.IssueWidth)
		}
		for _, in := range word {
			cl := m.ClassFor(in.Kind())
			p := pool{cl, int(in.Cluster)}
			if cl == machine.XFER {
				p.k = 0
			}
			inUse := 0
			for _, until := range busy[p] {
				if until > cycle {
					inUse++
				}
			}
			if inUse >= m.Units.Get(cl) {
				return fmt.Errorf("cycle %d issues onto %s (cluster %d) with %d of %d units busy",
					cycle, cl, p.k, inUse, m.Units.Get(cl))
			}
			busy[p] = append(busy[p], cycle+m.OccupancyOf(in.Op))
		}
	}
	// Register-file limits: distinct physical registers per class, and per
	// cluster file on clustered machines (a register belongs to the file of
	// the cluster that defines it — copies define into their own cluster).
	var seen [ir.NumClasses]map[ir.VReg]bool
	for i := range seen {
		seen[i] = map[ir.VReg]bool{}
	}
	regCluster := map[ir.VReg]int{}
	touch := func(v ir.VReg) {
		if v != ir.NoReg {
			seen[prog.Func.ClassOf(v)][v] = true
		}
	}
	for _, in := range prog.Instrs() {
		touch(in.Dst)
		if in.Dst != ir.NoReg {
			regCluster[in.Dst] = int(in.Cluster)
		}
		for _, a := range in.Args {
			touch(a)
		}
		touch(in.Index)
	}
	for cl := ir.Class(0); cl < ir.NumClasses; cl++ {
		if got := len(seen[cl]); got > m.Regs[cl]*nc {
			return fmt.Errorf("uses %d %s registers, machine has %d", got, cl, m.Regs[cl]*nc)
		}
		if got, claimed := len(seen[cl]), prog.RegsUsed[cl]; got != claimed {
			return fmt.Errorf("RegsUsed[%s] claims %d registers, code touches %d", cl, claimed, got)
		}
		if nc > 1 {
			per := make([]int, nc)
			for v := range seen[cl] {
				per[regCluster[v]]++
			}
			for k, got := range per {
				if got > m.Regs[cl] {
					return fmt.Errorf("cluster %d uses %d %s registers, its file has %d",
						k, got, cl, m.Regs[cl])
				}
			}
		}
	}
	return nil
}

// checkMonotonicity verifies the §4 reduction contract: applying any
// generated candidate must leave the DAG structurally valid, and for
// functional-unit resources must not increase the width of the resource the
// candidate targets — FU sequencing only adds ordering edges, reachability
// only grows, so CanReuse_FU only grows and width cannot rise (Theorem 1).
// Register candidates carry no such per-candidate theorem: the register
// measure rests on greedily selected kills (choosing them exactly is
// NP-complete, Theorem 2), and spill candidates introduce reload values
// unordered with independent chains, so a single candidate may legitimately
// raise the measured register width; the driver is what guarantees progress
// there, checked end to end below. To exercise the transformations even
// when the program already fits the machine, the oracle also probes with an
// artificial limit of width−1. Finally, a full core.Run must commit only
// excess-non-increasing steps and leave a valid DAG behind.
func checkMonotonicity(rep *Report, c *Case) {
	g := buildGraph(rep, OracleMono, c)
	if g == nil {
		return
	}
	m := c.Mach.Config()
	hammocks := g.Hammocks()
	reach, depths := g.Reach(), g.Depths()
	var log transform.UndoLog
	applied := 0
	for _, r := range core.Resources(g, m) {
		ru := r.Build(g)
		res := measure.Measure(ru)
		limits := []int{r.Limit}
		if res.Width-1 >= 1 && res.Width-1 != r.Limit {
			limits = append(limits, res.Width-1)
		}
		for _, limit := range limits {
			sets := measure.FindExcess(res, hammocks, limit)
			for _, set := range sets {
				var cands []*transform.Candidate
				if r.Spec.Values {
					cands = append(cands, transform.RegSeqCandidates(g, reach, depths, res, set)...)
					cands = append(cands, transform.SpillCandidates(g, depths, res, set)...)
				} else {
					cands = append(cands, transform.FUCandidates(g, reach, depths, res, set)...)
				}
				for _, cand := range cands {
					if applied >= monoCandidateLimit {
						break
					}
					cl := g.Clone()
					if err := cand.Apply(cl, reach.Clone(), &log); err != nil {
						continue // inapplicable candidates are allowed to refuse
					}
					applied++
					rep.tick(OracleMono)
					if err := cl.Check(); err != nil {
						rep.failf(OracleMono, "%s %s left an invalid DAG: %v", r.Name, cand, err)
						continue
					}
					if !r.Spec.Values {
						w2 := measure.Measure(r.Build(cl)).Width
						if w2 > res.Width {
							rep.failf(OracleMono, "%s %s raised width %d -> %d",
								r.Name, cand, res.Width, w2)
						}
					}
				}
			}
		}
	}
	// End-to-end: the driver's committed sequence must never increase the
	// total excess, and the transformed graph must stay valid.
	run := g.Clone()
	runRep, err := core.Run(run, core.Options{Machine: m})
	if err != nil {
		rep.failf(OracleMono, "core.Run: %v", err)
		return
	}
	rep.tick(OracleMono)
	if err := run.Check(); err != nil {
		rep.failf(OracleMono, "core.Run left an invalid DAG: %v", err)
	}
	prev := -1
	for i, a := range runRep.Applied {
		if a.ExcessAfter > a.ExcessBefore {
			rep.failf(OracleMono, "core.Run step %d (%s %s) raised excess %d -> %d",
				i, a.Resource, a.Kind, a.ExcessBefore, a.ExcessAfter)
		}
		if prev >= 0 && a.ExcessBefore > prev {
			rep.failf(OracleMono, "core.Run step %d starts at excess %d, previous ended at %d",
				i, a.ExcessBefore, prev)
		}
		prev = a.ExcessAfter
	}
}

// checkDiffExec compiles the case with every pipeline, executes the result
// on the VLIW simulator from the canonical initial state, and verifies it
// reproduces the sequential interpreter bit for bit (memory and live-out
// registers) — the end-to-end differential property.
func checkDiffExec(rep *Report, c *Case) {
	m := c.Mach.Config()
	overc := overcommitted(c)
	for _, method := range pipeline.AllMethods {
		st, err := pipeline.Evaluate(c.Block(), m, method, InitState(), pipeline.Options{})
		if err != nil {
			if target.Unsupported(err) {
				continue // declared method/target refusal, not a finding
			}
			if method == pipeline.Exact && exact.Skippable(err) {
				continue // the guarded lane may refuse large or adversarial blocks
			}
			if !overc {
				rep.failf(OracleDiffExec, "%s: %v", method, err)
			}
			continue
		}
		rep.tick(OracleDiffExec)
		if !st.Verified {
			rep.failf(OracleDiffExec, "%s: Evaluate returned unverified stats", method)
		}
	}
}

// checkExact pits every heuristic pipeline against the exact solver's
// proven optima. Soundness rests on two containments: any emitted
// program — spill code included — schedules a superset of the block's
// operations under dependence and unit rules no looser than the
// program model MinWordsProg is computed in, so its word count can
// never undercut that bound; and URSA's measured register width is a
// worst case over schedules while the solver's pressure is the best
// case, so width below minimum pressure means one of the two is wrong.
// A heuristic beating the "optimal" bound is therefore always a finding
// (a solver bug, per the issue's charter), never a pleasant surprise.
// Solver refusals on oversized or adversarial cases (exact.Skippable)
// skip silently — the oracle only counts as exercised when the solver
// actually proved a bound.
func checkExact(rep *Report, c *Case) {
	m := c.Mach.Config()
	if m.Clusters > 1 || m.BufferDepth > 0 {
		// The solver's state encoding covers units, latencies, and the
		// issue width, but not per-cluster register files or output
		// buffers; its bounds are incomparable to what the resource-aware
		// pipelines emit there (target.Supports refuses the exact lane for
		// the same reason).
		return
	}
	g := buildGraph(rep, OracleExact, c)
	if g == nil {
		return
	}
	res, err := exact.Solve(g, m, exact.Options{})
	if err != nil {
		if !exact.Skippable(err) {
			rep.failf(OracleExact, "solve: %v", err)
		}
		return
	}
	rep.tick(OracleExact)

	// Internal consistency: the witness schedule must be legal, realize
	// the bound exactly, and the bound must sit between the
	// latency-weighted critical path and the list schedule.
	if err := res.Schedule.Validate(); err != nil {
		rep.failf(OracleExact, "optimal schedule invalid: %v", err)
	}
	if res.Schedule.Cycles != res.MinWords {
		rep.failf(OracleExact, "witness schedule spans %d cycles, solver claims %d", res.Schedule.Cycles, res.MinWords)
	}
	if res.MinWordsProg > res.MinWords {
		rep.failf(OracleExact, "program-model minimum %d exceeds strict-model minimum %d", res.MinWordsProg, res.MinWords)
	}
	cp := g.CriticalPath(func(n *dag.Node) int { return m.LatencyOf(n.Instr.Op) })
	if res.MinWords < cp {
		rep.failf(OracleExact, "minimum schedule length %d below critical path %d", res.MinWords, cp)
	}
	if ub, err := sched.List(g, m, sched.Options{}); err == nil && res.MinWords > ub.Cycles {
		rep.failf(OracleExact, "minimum schedule length %d exceeds list schedule %d", res.MinWords, ub.Cycles)
	}

	// URSA's measured width claims no schedule needs more registers; the
	// solver proves some schedule needs at least MinPressure.
	for _, r := range core.Resources(g, m) {
		if !r.Spec.Values {
			continue
		}
		if w := measure.Measure(r.Build(g)).Width; w < res.MinPressure[r.Spec.Class] {
			rep.failf(OracleExact, "%s: measured width %d below proven minimum pressure %d",
				r.Name, w, res.MinPressure[r.Spec.Class])
		}
	}

	overc := overcommitted(c)
	for _, method := range pipeline.AllMethods {
		_, st, err := pipeline.Compile(c.Block(), m, method, pipeline.Options{})
		if err != nil {
			if (method == pipeline.Exact && exact.Skippable(err)) || overc {
				continue
			}
			// Compile failures are the legality oracle's finding; the gap
			// properties simply have nothing to say here.
			continue
		}
		if st.Words < res.MinWordsProg {
			rep.failf(OracleExact, "%s emits %d words, below the proven program-model optimum %d", method, st.Words, res.MinWordsProg)
		}
		if method == pipeline.Exact && st.SpillOps == 0 && st.Words != res.MinWords {
			rep.failf(OracleExact, "exact lane emitted %d words, solver proved %d", st.Words, res.MinWords)
		}
		if st.SpillOps == 0 {
			// Spill-free code realizes one schedule of the original DAG,
			// so its register counts bound the minimum from above.
			for cl := ir.Class(0); cl < ir.NumClasses; cl++ {
				if st.RegsUsed[cl] < res.MinPressure[cl] {
					rep.failf(OracleExact, "%s uses %d %s registers, below proven minimum pressure %d",
						method, st.RegsUsed[cl], cl, res.MinPressure[cl])
				}
			}
		}
	}
}

// sortViolations orders violations by oracle then detail, for deterministic
// output.
func sortViolations(vs []Violation) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Oracle != vs[j].Oracle {
			return vs[i].Oracle < vs[j].Oracle
		}
		return vs[i].Detail < vs[j].Detail
	})
}
