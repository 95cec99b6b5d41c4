package core

import (
	"reflect"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/machine"
	"ursa/internal/measure"
	"ursa/internal/workload"
)

// TestMeasurementCacheReuse: the transform loop's re-measurements hit the
// cache (the loop revisits states it already scored), and a run served by
// a warm shared cache reports exactly what a cold run reports.
func TestMeasurementCacheReuse(t *testing.T) {
	build := func() *dag.Graph {
		g, err := dag.Build(workload.LayeredBlock(8, 3).Blocks[0])
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	m := machine.VLIW(4, 4)

	shared := measure.NewCache()
	cold := build()
	coldRep, err := Run(cold, Options{Machine: m, Cache: shared})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := shared.Stats()
	if hits == 0 {
		t.Fatalf("no cache hits in a pressured run (misses=%d); the transform loop should revisit measured states", misses)
	}

	warm := build()
	warmRep, err := Run(warm, Options{Machine: m, Cache: shared})
	if err != nil {
		t.Fatal(err)
	}
	h2, m2 := shared.Stats()
	if m2 != misses {
		t.Fatalf("warm run missed %d times; an identical input must be fully served from the cache", m2-misses)
	}
	if h2 <= hits {
		t.Fatal("warm run recorded no hits")
	}
	if !reflect.DeepEqual(coldRep, warmRep) {
		t.Fatalf("warm report differs from cold:\n%+v\nvs\n%+v", warmRep, coldRep)
	}
	if cold.Fingerprint() != warm.Fingerprint() {
		t.Fatal("the two runs transformed their graphs differently")
	}
}

// TestCacheAcrossLimits: widths are limit-independent, so a cache shared
// across a register sweep must serve the same machine-width measurements
// while the reports still reflect each machine's own limits.
func TestCacheAcrossLimits(t *testing.T) {
	shared := measure.NewCache()
	var initial []map[string]int
	for _, regs := range []int{4, 6, 12} {
		g, err := dag.Build(workload.LayeredBlock(6, 3).Blocks[0])
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(g, Options{Machine: machine.VLIW(4, regs), Cache: shared})
		if err != nil {
			t.Fatal(err)
		}
		initial = append(initial, rep.InitialWidths)
		if rep.Limits["reg.int"] != regs {
			t.Fatalf("limits not per-machine: %v", rep.Limits)
		}
	}
	for i := 1; i < len(initial); i++ {
		if !reflect.DeepEqual(initial[i], initial[0]) {
			t.Fatalf("initial widths differ across the sweep: %v vs %v", initial[i], initial[0])
		}
	}
}

// TestScoreCandidatesMeasuresOnlyCommittedState: candidate scoring takes
// widths directly, so a ScoreCandidates round whose slate includes spill
// candidates looks up the cache once per resource — the committed state —
// and never for a candidate graph.
func TestScoreCandidatesMeasuresOnlyCommittedState(t *testing.T) {
	g, err := dag.Build(workload.PaperExample(true).Blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	m := machine.VLIW(2, 2)
	c := measure.NewCache()
	scores, err := ScoreCandidates(g, Options{Machine: m, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	spills := 0
	for _, s := range scores {
		if !s.Candidate.SeqOnly() && s.OK {
			spills++
		}
	}
	if spills == 0 {
		t.Fatalf("no spill candidate scored among %d; the fixture no longer covers the spill path", len(scores))
	}
	hits, misses := c.Stats()
	if want := uint64(len(Resources(g, m))); hits+misses != want {
		t.Fatalf("cache saw %d lookups (%d hits, %d misses) for %d resources and %d candidates (%d spills); want one per resource",
			hits+misses, hits, misses, want, len(scores), spills)
	}
}
