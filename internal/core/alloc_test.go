package core

import (
	"testing"

	"ursa/internal/dag"
	"ursa/internal/machine"
	"ursa/internal/workload"
)

// TestSeqEvalAllocatesNothing: once a worker's scratch is warm, scoring a
// sequencing candidate — apply, closure update, pair derivation, kill
// selection, widths, critical path, revert — allocates nothing.
func TestSeqEvalAllocatesNothing(t *testing.T) {
	g, err := dag.Build(workload.LayeredBlock(12, 6).Blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	m := machine.VLIW(4, 6)
	opts := Options{Machine: m, Workers: 1}
	resources := Resources(g, m)
	ev := newEvaluator(g, resources, func(n *dag.Node) int { return m.LatencyOf(n.Instr.Op) }, &opts)
	st := ev.state()
	sc := ev.scratch(0)
	checked := 0
	for _, c := range ev.collectCandidates(st, resources) {
		if !c.cand.SeqOnly() || checked == 8 {
			continue
		}
		if !ev.evalIncremental(sc, st, c).ok {
			continue
		}
		if a := testing.AllocsPerRun(10, func() { ev.evalIncremental(sc, st, c) }); a != 0 {
			t.Errorf("%s: allocs per evaluation = %v, want 0", c.cand.Note, a)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no applicable sequencing candidate to check")
	}
	t.Logf("%d sequencing candidates checked", checked)
}
