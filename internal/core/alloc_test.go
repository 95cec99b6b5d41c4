package core

import (
	"testing"

	"ursa/internal/dag"
	"ursa/internal/machine"
	"ursa/internal/target"
	"ursa/internal/transform"
	"ursa/internal/workload"
)

// TestSeqEvalAllocatesNothing: once a worker's scratch is warm, scoring a
// sequencing candidate — apply, closure update, kill selection, the row
// comparison, pair derivation, widths, depths and critical path, revert —
// allocates nothing, whether a resource's relation grew or held.
func TestSeqEvalAllocatesNothing(t *testing.T) {
	checked, skipped := 0, 0
	// On the homogeneous machine every candidate grows both orders; the
	// heterogeneous one has resources a candidate leaves unchanged.
	for _, m := range []*machine.Config{machine.VLIW(4, 6), machine.Heterogeneous(2, 1, 1, 1, 6, 4)} {
		g, err := dag.Build(workload.LayeredBlock(12, 6).Blocks[0])
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Machine: m, Workers: 1}
		resources := Resources(g, m)
		ev := newEvaluator(g, resources, func(n *dag.Node) int { return m.LatencyOf(n.Instr.Op) }, &opts)
		st := ev.state()
		sc := ev.scratch(0)
		n := 0
		for _, c := range ev.collectCandidates(st, resources) {
			if !c.cand.SeqOnly() || n == 8 {
				continue
			}
			if !ev.evalIncremental(sc, st, c).ok {
				continue
			}
			if a := testing.AllocsPerRun(10, func() { ev.evalIncremental(sc, st, c) }); a != 0 {
				t.Errorf("%s: allocs per evaluation = %v, want 0", c.cand.Note, a)
			}
			n++
		}
		checked += n
		skipped += sc.skipped
	}
	if checked == 0 {
		t.Fatal("no applicable sequencing candidate to check")
	}
	if skipped == 0 {
		t.Fatal("no resource kept its committed width: the skip went unchecked")
	}
	t.Logf("%d sequencing candidates checked, %d resource evaluations skipped", checked, skipped)
}

// TestSpillEvalAllocatesOnlyApply: once a worker's scratch is warm, scoring
// a spill or a copy-spill allocates exactly what applying and reverting it
// allocates — the payload's new instructions, registers and names. The
// closure's growth, item collection, use lists, kill selection, the row
// comparison, relation, widths and critical path add nothing, whether a
// resource's relation grew or held.
func TestSpillEvalAllocatesOnlyApply(t *testing.T) {
	if raceEnabled {
		// Apply names its new nodes through fmt, whose sync.Pool the race
		// detector empties at random, so its count varies run to run.
		t.Skip("allocation counts under -race vary with sync.Pool drops")
	}
	checked := [transform.NumKinds]int{}
	skipped := 0
	for _, m := range []*machine.Config{machine.VLIW(4, 6), machine.Clustered(2, 1, 3, 1)} {
		f := workload.LayeredBlock(8, 4)
		if _, err := target.Clusterize(f.Blocks[0], m); err != nil {
			t.Fatal(err)
		}
		g, err := dag.Build(f.Blocks[0])
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Machine: m, Workers: 1}
		resources := Resources(g, m)
		ev := newEvaluator(g, resources, func(n *dag.Node) int { return m.LatencyOf(n.Instr.Op) }, &opts)
		st := ev.state()
		sc := ev.scratch(0)
		for _, c := range ev.collectCandidates(st, resources) {
			k := c.cand.Kind
			if c.cand.SeqOnly() || checked[k] == 4 || !ev.evalIncremental(sc, st, c).ok {
				continue
			}
			apply := testing.AllocsPerRun(10, func() {
				sc.reach.CopyFrom(ev.reach)
				if c.cand.Apply(sc.g, &sc.reach, &sc.log) == nil {
					sc.log.Revert()
				}
			})
			if a := testing.AllocsPerRun(10, func() { ev.evalIncremental(sc, st, c) }); a != apply {
				t.Errorf("%s %s: allocs per evaluation = %v, Apply and Revert alone %v", k, c.cand.Note, a, apply)
			}
			checked[k]++
		}
		skipped += sc.skipped
	}
	if checked[transform.Spill] == 0 || checked[transform.CopySpill] == 0 {
		t.Fatalf("checked %d spills and %d copy-spills, want both", checked[transform.Spill], checked[transform.CopySpill])
	}
	if skipped == 0 {
		t.Fatal("no resource kept its committed width after a spill: the skip went unchecked")
	}
	t.Logf("%d spill and %d copy-spill candidates checked, %d resource evaluations skipped",
		checked[transform.Spill], checked[transform.CopySpill], skipped)
}
