package core

import (
	"testing"

	"ursa/internal/assign"
	"ursa/internal/dag"
	"ursa/internal/sched"
	"ursa/internal/target"
	"ursa/internal/workload"
)

// TestReportProgramMatchesGraph: the program Run hands back is exactly what
// assign.Emit produces on the graph Run leaves behind, over every suite
// kernel's blocks on every target preset. Callers that allocate and emit
// separately (ursa.Allocate + ursa.Emit) and callers that take
// Report.Program must ship the same code.
func TestReportProgramMatchesGraph(t *testing.T) {
	kernels := workload.Kernels()
	if testing.Short() || raceEnabled {
		kernels = kernels[:3]
	}
	for _, k := range kernels {
		for _, p := range target.Presets() {
			u, err := k.Unit(1)
			if err != nil {
				t.Fatal(err)
			}
			m := p.Config
			for _, b := range u.Func.Blocks {
				if m.Clusters > 1 {
					if _, err := target.Clusterize(b, m); err != nil {
						t.Fatalf("%s/%s: clusterize %s: %v", k.Name, p.Name, b.Label, err)
					}
				}
				g, err := dag.Build(b)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := Run(g, Options{Machine: m})
				if err != nil {
					t.Fatalf("%s/%s/%s: Run: %v", k.Name, p.Name, b.Label, err)
				}
				prog, _, err := assign.Emit(g, m, sched.Options{})
				if err != nil {
					if rep.Program != nil || rep.EmitErr == nil || rep.EmitErr.Error() != err.Error() {
						t.Errorf("%s/%s/%s: re-emit fails (%v), report has program=%v err=%v",
							k.Name, p.Name, b.Label, err, rep.Program != nil, rep.EmitErr)
					}
					continue
				}
				if rep.Program == nil {
					t.Errorf("%s/%s/%s: no program in report (%v)", k.Name, p.Name, b.Label, rep.EmitErr)
					continue
				}
				if got, want := rep.Program.String(), prog.String(); got != want {
					t.Errorf("%s/%s/%s: Report.Program differs from a re-emit:\n%s\nvs\n%s",
						k.Name, p.Name, b.Label, got, want)
				}
				if rep.ScheduleClean != (prog.Spills == 0) {
					t.Errorf("%s/%s/%s: ScheduleClean=%v with %d assignment spills",
						k.Name, p.Name, b.Label, rep.ScheduleClean, prog.Spills)
				}
			}
		}
	}
}
