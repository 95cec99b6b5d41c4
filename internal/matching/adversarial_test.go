package matching

import (
	"fmt"
	"math/rand"
	"testing"
)

// Adversarial structure tests: Hopcroft–Karp and the bitset Matcher must
// agree with the exhaustive BruteMax oracle on graph families chosen to
// stress their phase logic — unbalanced sides, disconnected components,
// complete bipartite blocks, stars, and long augmenting chains.

// checkAgainstBrute asserts both fast algorithms return a valid matching of
// the oracle's size.
func checkAgainstBrute(t *testing.T, name string, nl, nr int, adj [][]int) {
	t.Helper()
	want := BruteMax(nl, nr, adj)

	match, size := HopcroftKarp(nl, nr, adj)
	if size != want {
		t.Errorf("%s: HopcroftKarp size = %d, oracle says %d", name, size, want)
	}
	validMatching(t, nl, nr, adj, match)

	kuhn, ksize := maxMatching(nl, nr, adj)
	if ksize != want {
		t.Errorf("%s: Matcher size = %d, oracle says %d", name, ksize, want)
	}
	validMatching(t, nl, nr, adj, kuhn)
}

func TestAdversarialShapes(t *testing.T) {
	shapes := []struct {
		name   string
		nl, nr int
		adj    func() [][]int
	}{
		{"empty-edges", 5, 5, func() [][]int { return make([][]int, 5) }},
		{"left-heavy", 12, 3, func() [][]int {
			adj := make([][]int, 12)
			for l := range adj {
				adj[l] = []int{l % 3, (l + 1) % 3}
			}
			return adj
		}},
		{"right-heavy", 3, 12, func() [][]int {
			adj := make([][]int, 3)
			for l := range adj {
				adj[l] = []int{l, l + 3, l + 6, l + 9}
			}
			return adj
		}},
		{"complete", 7, 7, func() [][]int {
			adj := make([][]int, 7)
			for l := range adj {
				for r := 0; r < 7; r++ {
					adj[l] = append(adj[l], r)
				}
			}
			return adj
		}},
		{"star-collision", 8, 8, func() [][]int {
			// Every left vertex wants r0; only one can have it.
			adj := make([][]int, 8)
			for l := range adj {
				adj[l] = []int{0}
			}
			return adj
		}},
		{"disconnected-components", 10, 10, func() [][]int {
			// Two complete K3,3 blocks and an isolated pair, no cross edges.
			adj := make([][]int, 10)
			for l := 0; l < 3; l++ {
				adj[l] = []int{0, 1, 2}
			}
			for l := 3; l < 6; l++ {
				adj[l] = []int{3, 4, 5}
			}
			adj[6] = []int{6}
			return adj
		}},
		{"augmenting-chain", 6, 6, func() [][]int {
			// A path graph where the greedy first pass matches l_i -> r_i
			// and every improvement needs a full-length augmenting path.
			adj := make([][]int, 6)
			for l := 0; l < 6; l++ {
				adj[l] = append(adj[l], l)
				if l+1 < 6 {
					adj[l] = append(adj[l], l+1)
				}
			}
			return adj
		}},
		{"duplicate-edges", 4, 4, func() [][]int {
			// Parallel edges must not double-count.
			adj := make([][]int, 4)
			for l := range adj {
				adj[l] = []int{l % 2, l % 2, (l + 1) % 2}
			}
			return adj
		}},
	}
	for _, s := range shapes {
		checkAgainstBrute(t, s.name, s.nl, s.nr, s.adj())
	}
}

func TestRandomAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		nl := 1 + rng.Intn(9)
		nr := 1 + rng.Intn(9)
		p := []float64{0.05, 0.2, 0.5, 0.9}[rng.Intn(4)]
		adj := randomAdj(rng, nl, nr, p)
		checkAgainstBrute(t, fmt.Sprintf("random-%d(nl=%d,nr=%d,p=%.2f)", trial, nl, nr, p), nl, nr, adj)
	}
}

func TestIncrementalAgainstBruteAcrossBatches(t *testing.T) {
	// The prioritized matcher must reach the optimum no matter how the
	// edge set is split into priority batches.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(7)
		adj := randomAdj(rng, n, n, 0.4)
		want := BruteMax(n, n, adj)

		levels := make([]int, n)
		for i := range levels {
			levels[i] = rng.Intn(4)
		}
		var m Matcher
		m.Reset(relationOf(n, n, adj))
		if got := m.AugmentLevels(func(a int) int { return levels[a] }); got != want {
			t.Fatalf("trial %d: prioritized size = %d, oracle says %d", trial, got, want)
		}
		if got := m.Size(); got != want {
			t.Fatalf("trial %d: Size() = %d after AugmentLevels returned %d", trial, got, want)
		}
	}
}

func TestBruteMaxKnownValues(t *testing.T) {
	// Sanity-check the oracle itself on hand-computable graphs.
	cases := []struct {
		nl, nr int
		adj    [][]int
		want   int
	}{
		{0, 0, nil, 0},
		{1, 1, [][]int{{0}}, 1},
		{2, 2, [][]int{{0}, {0}}, 1},
		{3, 3, [][]int{{0, 1}, {1, 2}, {0, 2}}, 3},
		{2, 1, [][]int{{0}, {0}}, 1},
	}
	for i, c := range cases {
		if got := BruteMax(c.nl, c.nr, c.adj); got != c.want {
			t.Errorf("case %d: BruteMax = %d, want %d", i, got, c.want)
		}
	}
}
