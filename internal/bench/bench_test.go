package bench

import (
	"os"
	"strings"
	"testing"

	"ursa/internal/core"
)

// BenchmarkPickBest times one candidate-evaluation round on the large
// layered workload.
func BenchmarkPickBest(b *testing.B) {
	for _, n := range Suite() {
		if len(n.Name) >= 8 && n.Name[:8] == "PickBest" {
			b.Run(n.Name[9:], n.Bench)
		}
	}
}

// BenchmarkReduceLarge times the full reduction loop on the large workload.
func BenchmarkReduceLarge(b *testing.B) {
	for _, n := range Suite() {
		if len(n.Name) >= 11 && n.Name[:11] == "ReduceLarge" {
			b.Run(n.Name[12:], n.Bench)
		}
	}
}

// BenchmarkLayer times single layers of a compile on the ReduceLarge
// graph's register order: the candidate width primitive, the committed
// prioritized matching, a register build with kill selection and the
// excess-set search.
func BenchmarkLayer(b *testing.B) {
	for _, n := range Suite() {
		if strings.HasPrefix(n.Name, "Layer/") {
			b.Run(strings.TrimPrefix(n.Name, "Layer/"), n.Bench)
		}
	}
}

// BenchmarkSpill times full reductions that commit spills, so the ledger
// covers the spill-commit path.
func BenchmarkSpill(b *testing.B) {
	for _, n := range Suite() {
		if strings.HasPrefix(n.Name, "Spill/") {
			b.Run(strings.TrimPrefix(n.Name, "Spill/"), n.Bench)
		}
	}
}

// BenchmarkLoop times the modulo-scheduling transform on the loop-suite
// kernels (CI's loop-smoke job runs it with -benchtime=1x).
func BenchmarkLoop(b *testing.B) {
	for _, n := range Suite() {
		if strings.HasPrefix(n.Name, "Loop/") {
			b.Run(strings.TrimPrefix(n.Name, "Loop/"), n.Bench)
		}
	}
}

// BenchmarkTarget times end-to-end compiles on the extended target
// families (CI's target-smoke job runs it with -benchtime=1x).
func BenchmarkTarget(b *testing.B) {
	for _, n := range Suite() {
		if strings.HasPrefix(n.Name, "Target/") {
			b.Run(strings.TrimPrefix(n.Name, "Target/"), n.Bench)
		}
	}
}

// TestModesAgree pins the property the ReduceLarge row relies on: the
// benchmark workload does identical allocation work whether candidates are
// scored inline (the recorded row) or across the default worker count, so
// the row times the reduction loop, not a worker-dependent outcome.
func TestModesAgree(t *testing.T) {
	g, m := reduceGraph()
	var refIters, refSpills int
	for i, opts := range []core.Options{
		{Machine: m, Workers: 1},
		{Machine: m},
	} {
		cl := g.Clone()
		cl.Func = g.Func.Clone()
		rep, err := core.Run(cl, opts)
		if err != nil {
			t.Fatalf("mode %d: %v", i, err)
		}
		if i == 0 {
			refIters, refSpills = rep.Iterations, rep.SpillsInserted
			continue
		}
		if rep.Iterations != refIters || rep.SpillsInserted != refSpills {
			t.Errorf("mode %d: %d iterations / %d spills, reference %d / %d",
				i, rep.Iterations, rep.SpillsInserted, refIters, refSpills)
		}
	}
}

// TestSpillRowCommitsSpills ensures the Spill row's reduction commits
// several spills, so the row covers the spill-commit path.
func TestSpillRowCommitsSpills(t *testing.T) {
	g, m := spillBlock()
	rep, err := core.Run(g, core.Options{Machine: m, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SpillsInserted < 2 {
		t.Fatalf("spill workload committed %d spills, want several", rep.SpillsInserted)
	}
	t.Logf("spill workload commits %d spills in %d iterations", rep.SpillsInserted, rep.Iterations)
}

// TestScoreCandidatesFindsWork ensures the PickBest workload actually has
// candidates to score — an empty round would benchmark nothing.
func TestScoreCandidatesFindsWork(t *testing.T) {
	g, m := pickBestGraph()
	scores, err := core.ScoreCandidates(g, core.Options{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) == 0 {
		t.Fatal("PickBest workload produced no candidates")
	}
	t.Logf("PickBest workload scores %d candidates per round", len(scores))
}

// TestWriteJSON round-trips the BENCH_core.json schema.
func TestWriteJSON(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	in := []Entry{{Name: "X/y", NsPerOp: 1234.5, AllocsPerOp: 7, BytesPerOp: 4096}}
	if err := WriteJSON(path, in); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `"name": "X/y"`
	if !strings.Contains(string(data), want) {
		t.Fatalf("written JSON missing %q:\n%s", want, data)
	}
}
