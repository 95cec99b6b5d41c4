package core

import (
	"reflect"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/measure"
	"ursa/internal/target"
	"ursa/internal/transform"
	"ursa/internal/workload"
)

// TestCommittedMeasurementMatchesScratch: the evaluator measures each
// committed generation from its own closure, depths and hammock nesting
// levels. Drive it through every commit of the reduction loop, under every
// tie-break style, on a classic and an exposed-datapath preset, and hold
// each generation's measurement of every resource to measure.Measure on a
// fresh build of the committed graph in width, chains and chain map.
// maxloc is in the set because the nesting levels change its FU chains:
// a measurement that dropped or misplaced them would differ there.
func TestCommittedMeasurementMatchesScratch(t *testing.T) {
	for _, preset := range []string{"vliw2x4", "edp2x6b1"} {
		m := target.ByName(preset).Config
		gens, spills := 0, 0
		for _, kernel := range []string{"hydro", "fft2", "maxloc"} {
			u, err := workload.KernelByName(kernel).Unit(2)
			if err != nil {
				t.Fatalf("%s: %v", kernel, err)
			}
			for _, b := range u.Func.Blocks {
				for _, style := range []scoreStyle{styleDefault, styleAggressive, styleSpillFirst} {
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
					ev := newEvaluator(g, resources, lat, &Options{Machine: m, Workers: 1})
					c := driveCommits(t, ev, style, func(iter int, st *iterState, _ []evalOutcome) {
						gens++
						for _, r := range resources {
							got, want := st.results[r.Name], measure.Measure(r.Build(g))
							if got.Width != want.Width || !reflect.DeepEqual(got.Chains, want.Chains) || !reflect.DeepEqual(got.ChainOf, want.ChainOf) {
								t.Fatalf("%s %s %s style %d generation %d: committed measurement differs from scratch:\n got width %d chains %v\nwant width %d chains %v",
									preset, kernel, r.Name, style, iter, got.Width, got.Chains, want.Width, want.Chains)
							}
						}
					})
					spills += c[transform.Spill] + c[transform.CopySpill]
				}
			}
		}
		t.Logf("%s: %d generations, %d spill commits", preset, gens, spills)
		if spills == 0 {
			t.Errorf("%s: no spill commit in %d generations; the fixture no longer covers spills", preset, gens)
		}
	}
}
