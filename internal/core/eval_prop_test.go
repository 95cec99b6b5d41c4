package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/measure"
	"ursa/internal/target"
	"ursa/internal/transform"
	"ursa/internal/workload"
)

func reportsEqual(a, b *Report) string {
	if !reflect.DeepEqual(a.Applied, b.Applied) {
		return fmt.Sprintf("applied sequence diverged:\n got %+v\nwant %+v", b.Applied, a.Applied)
	}
	if a.Iterations != b.Iterations || a.SpillsInserted != b.SpillsInserted {
		return fmt.Sprintf("iters/spills diverged: %d/%d vs %d/%d",
			b.Iterations, b.SpillsInserted, a.Iterations, a.SpillsInserted)
	}
	if !reflect.DeepEqual(a.FinalWidths, b.FinalWidths) {
		return fmt.Sprintf("final widths diverged: %v vs %v", b.FinalWidths, a.FinalWidths)
	}
	if a.Fits != b.Fits || a.ScheduleClean != b.ScheduleClean {
		return fmt.Sprintf("fit verdict diverged: fits=%v clean=%v vs fits=%v clean=%v",
			b.Fits, b.ScheduleClean, a.Fits, a.ScheduleClean)
	}
	return ""
}

// scratchScore is the from-scratch definition of a candidate's score:
// clone the graph, Apply the candidate, measure every resource on a fresh
// reuse build, and take the critical path.
func scratchScore(g *dag.Graph, resources []Resource, lat func(*dag.Node) int, c *transform.Candidate) (ok bool, excess, crit int) {
	cl := g.Clone()
	cl.Func = g.Func.Clone()
	if err := c.Apply(cl, cl.Reach(), new(transform.UndoLog)); err != nil {
		return false, 0, 0
	}
	for _, r := range resources {
		if d := measure.Measure(r.Build(cl)).Width - r.Limit; d > 0 {
			excess += d
		}
	}
	return true, excess, cl.CriticalPath(lat)
}

// TestFreshVsPooledEvaluator: over 500 fuzzed blocks, machines, and
// tie-break styles, drive one pooled evaluator (persistent scratch arenas,
// slab relations, warm-started matchers) through the reduction loop's
// commits, and hold every candidate outcome of every iteration to the
// from-scratch definition. This is the contract that lets every pool reset
// protocol change land without re-auditing the reduction loop: a missed
// reset or stale arena state after a sequencing or spill commit shows up
// as a wrong score. The machines span every target family the evaluator
// serves — classic, clustered (per-cluster register files, the copy bus,
// copy-spills), and buffered exposed datapath.
func TestFreshVsPooledEvaluator(t *testing.T) {
	trials := 500
	if testing.Short() || raceEnabled {
		trials = 60
	}
	rng := rand.New(rand.NewSource(11))
	machines := []*machine.Config{
		machine.VLIW(1, 3), machine.VLIW(1, 4), machine.VLIW(2, 3),
		machine.VLIW(2, 4), machine.VLIW(3, 4), machine.VLIW(4, 6),
		machine.Clustered(2, 1, 3, 1), machine.Clustered(2, 2, 4, 1), machine.Clustered(4, 1, 3, 2),
		machine.ExposedDatapath(2, 4, 1), machine.ExposedDatapath(2, 6, 1), machine.ExposedDatapath(4, 6, 2),
	}
	styles := []scoreStyle{styleDefault, styleAggressive, styleSpillFirst}
	scored, spills := 0, 0
	for trial := 0; trial < trials; trial++ {
		f := randomBlock(rng, 6+rng.Intn(16))
		m := machines[rng.Intn(len(machines))]
		style := styles[trial%len(styles)]

		// Partition first on clustered machines, as the pipeline does, so
		// inter-cluster copies and copy-spill candidates exist.
		if _, err := target.Clusterize(f.Blocks[0], m); err != nil {
			t.Fatalf("Clusterize: %v", err)
		}
		g, err := dag.Build(f.Blocks[0])
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		opts := Options{Machine: m, Workers: 1}
		resources := Resources(g, m)
		lat := func(n *dag.Node) int { return m.LatencyOf(n.Instr.Op) }
		ev := newEvaluator(g, resources, lat, &opts)

		driveCommits(t, ev, style, func(iter int, _ *iterState, outs []evalOutcome) {
			for _, o := range outs {
				ok, excess, crit := scratchScore(g, resources, lat, o.s.cand)
				if o.ok != ok || (ok && (o.excess != excess || o.crit != crit)) {
					t.Fatalf("trial %d (%s, style %d) iter %d: %s scored ok=%v excess=%d crit=%d, from scratch ok=%v excess=%d crit=%d",
						trial, m.Name, style, iter, o.s.cand, o.ok, o.excess, o.crit, ok, excess, crit)
				}
				scored++
				if !o.s.cand.SeqOnly() {
					spills++
				}
			}
		})
		if err := g.Check(); err != nil {
			t.Fatalf("trial %d: invalid graph after the commits: %v", trial, err)
		}
	}
	if spills == 0 {
		t.Fatal("no spill or copy-spill candidate was scored; the sweep needs retuning")
	}
	t.Logf("%d candidate scores checked, %d of them spills or copy-spills", scored, spills)
}

// driveCommits runs the reduction loop's single-phase commit sequence on
// ev — best strict improvement, else a budgeted plateau spill — and
// returns the commits it made, by kind. visit sees every committed state
// and its scored candidates (none once the state fits).
func driveCommits(t *testing.T, ev *evaluator, style scoreStyle, visit func(iter int, st *iterState, outs []evalOutcome)) (commits [transform.NumKinds]int) {
	t.Helper()
	plateau := 4
	for iter := 0; iter < iterBound(ev.g); iter++ {
		st := ev.state()
		if st.excess == 0 {
			visit(iter, st, nil)
			break
		}
		outs, err := ev.evalAll(ev.collectCandidates(st, ev.resources))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		visit(iter, st, outs)
		best, _, improved := pickBest(outs, st.excess, style)
		if !improved && plateau > 0 {
			best, _, improved = pickPlateau(outs, st.excess)
			plateau--
		}
		if !improved {
			break
		}
		if err := ev.commit(best.cand); err != nil {
			t.Fatalf("iter %d: committing %s: %v", iter, best.cand, err)
		}
		commits[best.cand.Kind]++
	}
	return commits
}

// TestScratchesFollowCommits: every commit reaches each worker scratch
// through Candidate.Apply, so a scratch is cloned once and stays equal to
// the committed graph from then on. Drive a four-worker evaluator (with
// GOMAXPROCS forced to 4, so the fan-out runs in parallel) through every
// commit of the reduction loop on a classic, a clustered and an
// exposed-datapath preset, and after each commit hold every worker's
// scratch to the committed graph — structure, register count and register
// classes — and to the graph and Func it was created with: a spill or
// copy-spill commit must not re-clone it.
func TestScratchesFollowCommits(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	const workers = 4
	for _, preset := range []string{"vliw2x4", "clus2x2x4", "edp2x6b1"} {
		m := target.ByName(preset).Config
		var commits [transform.NumKinds]int
		for _, kernel := range []string{"hydro", "fft2", "maxloc"} {
			u, err := workload.KernelByName(kernel).Unit(2)
			if err != nil {
				t.Fatalf("%s: %v", kernel, err)
			}
			for _, b := range u.Func.Blocks {
				for _, style := range []scoreStyle{styleDefault, styleSpillFirst} {
					f := u.Func.Clone()
					nb := f.Block(b.Label)
					if _, err := target.Clusterize(nb, m); err != nil {
						t.Fatalf("%s %s: %v", preset, kernel, err)
					}
					g, err := dag.Build(nb)
					if err != nil {
						t.Fatalf("%s %s: %v", preset, kernel, err)
					}
					resources := Resources(g, m)
					lat := func(n *dag.Node) int { return m.LatencyOf(n.Instr.Op) }
					ev := newEvaluator(g, resources, lat, &Options{Machine: m, Workers: workers})
					if ev.workers != workers {
						t.Fatalf("evaluator runs %d workers, want %d", ev.workers, workers)
					}
					var first [workers]*evalScratch
					var graphs [workers]*dag.Graph
					var funcs [workers]*ir.Func
					for w := range first {
						first[w] = ev.scratch(w)
						graphs[w], funcs[w] = first[w].g, first[w].g.Func
					}
					check := func(iter int) {
						for w := range first {
							sc := ev.scratch(w)
							if sc != first[w] || sc.g != graphs[w] || sc.g.Func != funcs[w] {
								t.Fatalf("%s %s %s style %d iter %d: worker %d's scratch was re-created", preset, kernel, b.Label, style, iter, w)
							}
							if err := sc.g.Diff(ev.g); err != nil {
								t.Fatalf("%s %s %s style %d iter %d: worker %d's scratch differs from the committed graph: %v", preset, kernel, b.Label, style, iter, w, err)
							}
							fs, fc := sc.g.Func, ev.g.Func
							if fs.NumRegs() != fc.NumRegs() {
								t.Fatalf("%s %s %s style %d iter %d: worker %d's scratch has %d registers, the committed graph %d", preset, kernel, b.Label, style, iter, w, fs.NumRegs(), fc.NumRegs())
							}
							for v := ir.VReg(1); int(v) < fc.NumRegs(); v++ {
								if fs.ClassOf(v) != fc.ClassOf(v) {
									t.Fatalf("%s %s %s style %d iter %d: worker %d's %s is %v, committed %v", preset, kernel, b.Label, style, iter, w, fc.NameOf(v), fs.ClassOf(v), fc.ClassOf(v))
								}
							}
						}
					}
					c := driveCommits(t, ev, style, func(iter int, _ *iterState, _ []evalOutcome) { check(iter) })
					check(-1)
					for k := range c {
						commits[k] += c[k]
					}
				}
			}
		}
		t.Logf("%s: commits by kind %v", preset, commits)
		if commits[transform.Spill] == 0 {
			t.Errorf("%s: no spill commit; the fixture no longer covers spills", preset)
		}
		if m.Clusters > 1 && commits[transform.CopySpill] == 0 {
			t.Errorf("%s: no copy-spill commit; the fixture no longer covers copy-spills", preset)
		}
	}
}
