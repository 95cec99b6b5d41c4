package dag_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/workload"
)

// hammockGraphs returns dependence DAGs over random blocks of several sizes
// and shapes plus every block of every kernel unrolled twice.
func hammockGraphs(t *testing.T) map[string]*dag.Graph {
	t.Helper()
	gs := make(map[string]*dag.Graph)
	for seed := int64(1); seed <= 12; seed++ {
		for _, n := range []int{3, 8, 20, 45} {
			for _, bias := range []float64{0.2, 0.8} {
				f := workload.RandomBlock(rand.New(rand.NewSource(seed)), n, bias)
				gs[fmt.Sprintf("rand/s%d/n%d/b%.1f", seed, n, bias)] = mustBuild(t, f.Blocks[0])
			}
		}
	}
	for _, k := range workload.Kernels() {
		u, err := k.Unit(2)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		for _, b := range u.Func.Blocks {
			gs[k.Name+"/"+b.Label] = mustBuild(t, b)
		}
	}
	return gs
}

func mustBuild(t *testing.T, b *ir.Block) *dag.Graph {
	t.Helper()
	g, err := dag.Build(b)
	if err != nil {
		t.Fatalf("Build %s: %v", b.Label, err)
	}
	return g
}

// TestHammocksProperties: every region Hammocks returns is closed — an edge
// enters it only at its entry and leaves it only at its exit — the
// whole-graph hammock is present at level 0, and the list is sorted by
// (size, entry, exit) with no region listed twice.
func TestHammocksProperties(t *testing.T) {
	for name, g := range hammockGraphs(t) {
		hs := g.Hammocks()
		whole := false
		for i, h := range hs {
			if !h.Contains(h.Entry) || !h.Contains(h.Exit) {
				t.Fatalf("%s: hammock (%d,%d) lacks an endpoint", name, h.Entry, h.Exit)
			}
			for u := 0; u < g.NumNodes(); u++ {
				for _, v := range g.Succs(u) {
					if h.Contains(v) && v != h.Entry && !h.Contains(u) {
						t.Fatalf("%s: edge (%d,%d) enters hammock (%d,%d) past its entry", name, u, v, h.Entry, h.Exit)
					}
					if h.Contains(u) && u != h.Exit && !h.Contains(v) {
						t.Fatalf("%s: edge (%d,%d) leaves hammock (%d,%d) before its exit", name, u, v, h.Entry, h.Exit)
					}
				}
			}
			if h.Entry == g.Root && h.Exit == g.Leaf {
				whole = h.Level == 0 && h.Size() == g.NumNodes()
			}
			if i > 0 && !lessHammock(hs[i-1], h) {
				t.Fatalf("%s: hammocks %d and %d not in strict (size, entry, exit) order", name, i-1, i)
			}
		}
		if !whole {
			t.Fatalf("%s: whole-graph hammock missing or not at level 0", name)
		}
	}
}

func lessHammock(a, b *dag.Hammock) bool {
	if a.Size() != b.Size() {
		return a.Size() < b.Size()
	}
	if a.Entry != b.Entry {
		return a.Entry < b.Entry
	}
	return a.Exit < b.Exit
}

// TestHammocksPinned: the (entry, exit, size, level) list of every block of
// the maxloc kernel unrolled twice.
func TestHammocksPinned(t *testing.T) {
	want := map[string][][4]int{
		"b0": {{0, 8, 8, 1}, {0, 1, 9, 0}},
		"b1": {{0, 3, 3, 2}, {2, 4, 3, 3}, {3, 1, 3, 2}, {0, 4, 4, 1}, {2, 1, 4, 1}, {0, 1, 5, 0}},
		"b3": {{5, 1, 3, 1}, {0, 5, 5, 2}, {0, 6, 6, 1}, {0, 1, 7, 0}},
		"b6": {{2, 6, 5, 3}, {0, 6, 6, 1}, {2, 1, 6, 1}, {0, 1, 7, 0}},
		"b5": {{2, 5, 4, 3}, {0, 5, 5, 1}, {2, 1, 5, 1}, {0, 1, 6, 0}},
		"b2": {{0, 1, 6, 0}},
	}
	var k *workload.Kernel
	for _, kk := range workload.Kernels() {
		if kk.Name == "maxloc" {
			k = kk
		}
	}
	if k == nil {
		t.Fatal("no maxloc kernel")
	}
	u, err := k.Unit(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Func.Blocks) != len(want) {
		t.Fatalf("maxloc has %d blocks, want %d", len(u.Func.Blocks), len(want))
	}
	for _, b := range u.Func.Blocks {
		var got [][4]int
		for _, h := range mustBuild(t, b).Hammocks() {
			got = append(got, [4]int{h.Entry, h.Exit, h.Size(), h.Level})
		}
		if fmt.Sprint(got) != fmt.Sprint(want[b.Label]) {
			t.Errorf("block %s: hammocks %v, want %v", b.Label, got, want[b.Label])
		}
	}
}
