package matching

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ursa/internal/order"
)

// relationOf returns the bipartite graph adj (left vertex -> right
// neighbours) as a relation over max(nl, nr) elements: row l holds l's
// neighbours, and rows past nl stay empty.
func relationOf(nl, nr int, adj [][]int) *order.Relation {
	rel := order.NewRelation(max(nl, nr))
	for l, rs := range adj {
		for _, r := range rs {
			rel.Add(l, r)
		}
	}
	return rel
}

// maxMatching runs the Matcher cold on adj and returns the left-to-right
// assignment of the first nl left vertices (-1 for unmatched) and the size.
func maxMatching(nl, nr int, adj [][]int) ([]int, int) {
	var m Matcher
	m.Reset(relationOf(nl, nr, adj))
	size := m.Augment()
	out := make([]int, nl)
	for l := range out {
		out[l] = m.PairL(l)
	}
	return out, size
}

func TestMaxSimple(t *testing.T) {
	// Perfect matching on K2,2.
	adj := [][]int{{0, 1}, {0, 1}}
	match, size := maxMatching(2, 2, adj)
	if size != 2 {
		t.Fatalf("size = %d, want 2", size)
	}
	if match[0] == match[1] {
		t.Errorf("both left vertices matched to %d", match[0])
	}
}

func TestMaxUnmatchable(t *testing.T) {
	// Three left vertices all adjacent only to right vertex 0.
	adj := [][]int{{0}, {0}, {0}}
	match, size := maxMatching(3, 1, adj)
	if size != 1 {
		t.Fatalf("size = %d, want 1", size)
	}
	matched := 0
	for _, r := range match {
		if r != -1 {
			matched++
		}
	}
	if matched != 1 {
		t.Errorf("%d left vertices matched, want 1", matched)
	}
}

func TestMaxEmpty(t *testing.T) {
	if _, size := maxMatching(0, 0, nil); size != 0 {
		t.Errorf("empty graph matching size = %d", size)
	}
	adj := make([][]int, 3)
	if _, size := maxMatching(3, 3, adj); size != 0 {
		t.Errorf("edgeless graph matching size = %d", size)
	}
	var m Matcher
	m.Reset(order.NewRelation(0))
	if got := m.AugmentLevels(func(int) int { return 0 }); got != 0 {
		t.Errorf("empty prioritized matching size = %d", got)
	}
}

func TestIncrementalBatchesPreferEarlyEdges(t *testing.T) {
	// Batch 0: (0,0). Batch 1: (0,1),(1,0) — vertex 0 at level 0, vertex
	// 1 at level 1. A maximum matching of the full graph has size 2 and
	// must use (0,1) and (1,0): augmentation in the second batch must
	// rewire the first batch's edge. This is exactly the re-augmentation
	// behaviour the prioritized chain decomposition relies on.
	rel := relationOf(2, 2, [][]int{{0, 1}, {0}})
	var m Matcher
	m.Reset(rel)
	if got := m.AugmentLevels(func(a int) int { return a }); got != 2 {
		t.Fatalf("size = %d, want 2", got)
	}
	if m.PairL(0) != 1 || m.PairL(1) != 0 {
		t.Errorf("matching = {0:%d, 1:%d}, want {0:1, 1:0}", m.PairL(0), m.PairL(1))
	}
	if m.PairR(0) != 1 || m.PairR(1) != 0 {
		t.Errorf("reverse matching inconsistent")
	}
}

func TestIncrementalPriorityRetention(t *testing.T) {
	// Left 0 can take right 0 or 1; left 1 can take only right 1. With
	// vertex 0 at level 0 and vertex 1 at level 1, (0,0) and (1,1) form
	// batch 0 and (0,1) batch 1: the batch-0 edge stays matched.
	rel := relationOf(2, 2, [][]int{{0, 1}, {1}})
	var m Matcher
	m.Reset(rel)
	if got := m.AugmentLevels(func(a int) int { return a }); got != 2 {
		t.Fatalf("size = %d, want 2", got)
	}
	if m.PairL(0) != 0 {
		t.Errorf("high-priority edge (0,0) was displaced needlessly: PairL(0)=%d", m.PairL(0))
	}

	// Without priorities the search tries right 0 first too: the
	// ascending neighbour order is what the batches refine.
	m.Reset(rel)
	m.Augment()
	if m.PairL(0) != 0 || m.PairL(1) != 1 {
		t.Errorf("unprioritized matching = {0:%d, 1:%d}, want {0:0, 1:1}", m.PairL(0), m.PairL(1))
	}
}

func randomAdj(rng *rand.Rand, nl, nr int, p float64) [][]int {
	adj := make([][]int, nl)
	for l := 0; l < nl; l++ {
		for r := 0; r < nr; r++ {
			if rng.Float64() < p {
				adj[l] = append(adj[l], r)
			}
		}
	}
	return adj
}

func validMatching(t *testing.T, nl, nr int, adj [][]int, match []int) {
	t.Helper()
	usedR := make(map[int]bool)
	for l, r := range match {
		if r == -1 {
			continue
		}
		if usedR[r] {
			t.Fatalf("right vertex %d matched twice", r)
		}
		usedR[r] = true
		found := false
		for _, x := range adj[l] {
			if x == r {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("matched pair (%d,%d) is not an edge", l, r)
		}
	}
}

func TestKuhnAgreesWithHopcroftKarp(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		nl := 1 + rng.Intn(20)
		nr := 1 + rng.Intn(20)
		adj := randomAdj(rng, nl, nr, 0.2)
		m1, s1 := maxMatching(nl, nr, adj)
		m2, s2 := HopcroftKarp(nl, nr, adj)
		if s1 != s2 {
			t.Fatalf("trial %d: Kuhn size %d != HK size %d", trial, s1, s2)
		}
		validMatching(t, nl, nr, adj, m1)
		validMatching(t, nl, nr, adj, m2)
	}
}

// randomOrder returns the adjacency of a random strict partial order on n
// elements: a random DAG over ascending ids, transitively closed. Chain
// decompositions match on exactly such relations.
func randomOrder(rng *rand.Rand, n int, p float64) [][]int {
	rel := order.NewRelation(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < p {
				rel.Add(a, b)
			}
		}
	}
	closed := rel.TransitiveClosure()
	adj := make([][]int, n)
	for a := range adj {
		adj[a] = closed.Row(a).Members()
	}
	return adj
}

// TestMatcherAgreesWithOracles holds the bitset matcher — cold, and under
// random priority levels — to HopcroftKarp's size on random relations and
// random strict partial orders of 1–200 elements, the word boundaries
// included, and to BruteMax's where exhaustive search is feasible.
func TestMatcherAgreesWithOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sizes := []int{1, 2, 7, 15, 63, 64, 65, 127, 128, 129, 200}
	for trial := 0; trial < 60; trial++ {
		sizes = append(sizes, 1+rng.Intn(200))
	}
	var m Matcher // one matcher across every size: Reset must reuse cleanly
	for i, n := range sizes {
		for _, kind := range []string{"relation", "order"} {
			var adj [][]int
			if kind == "relation" {
				adj = randomAdj(rng, n, n, []float64{0.01, 0.05, 0.3}[i%3])
			} else {
				adj = randomOrder(rng, n, []float64{0.02, 0.1, 0.4}[i%3])
			}
			name := fmt.Sprintf("%s n=%d (case %d)", kind, n, i)
			_, want := HopcroftKarp(n, n, adj)
			if n <= 14 {
				if b := BruteMax(n, n, adj); b != want {
					t.Fatalf("%s: HopcroftKarp %d, BruteMax %d", name, want, b)
				}
			}
			rel := relationOf(n, n, adj)
			m.Reset(rel)
			if got := m.Augment(); got != want {
				t.Fatalf("%s: Matcher size %d, want %d", name, got, want)
			}
			validMatching(t, n, n, adj, pairsOf(&m, n))
			levels := make([]int, n)
			for a := range levels {
				levels[a] = rng.Intn(5)
			}
			m.Reset(rel)
			if got := m.AugmentLevels(func(a int) int { return levels[a] }); got != want {
				t.Fatalf("%s: prioritized Matcher size %d, want %d", name, got, want)
			}
			validMatching(t, n, n, adj, pairsOf(&m, n))
		}
	}
}

// pairsOf returns the matcher's left-to-right assignment.
func pairsOf(m *Matcher, n int) []int {
	out := make([]int, n)
	for l := range out {
		out[l] = m.PairL(l)
		if r := out[l]; r != -1 && m.PairR(r) != l {
			panic(fmt.Sprintf("PairR(%d) = %d, PairL(%d) = %d", r, m.PairR(r), l, r))
		}
	}
	return out
}

func TestIncrementalBatchedEqualsOneShot(t *testing.T) {
	// Splitting the edge set into arbitrary priority batches must not
	// change the final matching size (only its composition).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(15)
		adj := randomAdj(rng, n, n, 0.3)
		_, want := maxMatching(n, n, adj)

		levels := make([]int, n)
		for a := range levels {
			levels[a] = rng.Intn(6)
		}
		var m Matcher
		m.Reset(relationOf(n, n, adj))
		if got := m.AugmentLevels(func(a int) int { return levels[a] }); got != want {
			t.Fatalf("trial %d: batched size %d != one-shot %d", trial, got, want)
		}
	}
}

func BenchmarkKuhn256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rel := relationOf(256, 256, randomAdj(rng, 256, 256, 0.05))
	var m Matcher
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset(rel)
		m.Augment()
	}
}

func BenchmarkHopcroftKarp256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	adj := randomAdj(rng, 256, 256, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HopcroftKarp(256, 256, adj)
	}
}

// chainsOf returns a matching over an acyclic relation as the chain
// decomposition it encodes: each chain starts at a vertex no one is
// matched to and follows the left-to-right pairs.
func chainsOf(m *Matcher, n int) order.Decomposition {
	var d order.Decomposition
	for h := 0; h < n; h++ {
		if m.PairR(h) != -1 {
			continue
		}
		var c order.Chain
		for x := h; x != -1; x = m.PairL(x) {
			c = append(c, x)
		}
		d = append(d, c)
	}
	return d
}

// TestSeedWarmStart: seeding the chains of a maximum matching over part of
// a partial order's pairs and augmenting over all of them reaches the same
// size as matching from scratch — the invariant the measurement delta path
// rests on.
func TestSeedWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(70)
		adj := randomOrder(rng, n, 0.1)
		all, old := relationOf(n, n, adj), order.NewRelation(n)
		for a, bs := range adj {
			for _, b := range bs {
				if rng.Intn(2) == 0 {
					old.Add(a, b)
				}
			}
		}

		var base Matcher
		base.Reset(old)
		base.Augment()

		var warm Matcher
		warm.Reset(all)
		warm.Seed(chainsOf(&base, n))
		if warm.Size() != base.Size() {
			t.Fatalf("trial %d: seeded size %d, original %d", trial, warm.Size(), base.Size())
		}
		warm.Augment()

		var cold Matcher
		cold.Reset(all)
		cold.Augment()

		if warm.Size() != cold.Size() {
			t.Fatalf("trial %d: warm-started size %d, from-scratch %d", trial, warm.Size(), cold.Size())
		}
	}
}

// TestSeedRejectsConflict: chains that match a vertex twice must panic — a
// corrupted seed would silently undercount widths otherwise.
func TestSeedRejectsConflict(t *testing.T) {
	for _, d := range []order.Decomposition{
		{{0, 1}, {2, 1}}, // right 1 claimed twice
		{{0, 1}, {0, 2}}, // left 0 matched twice
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("seed %v did not panic", d)
				}
			}()
			var m Matcher
			m.Reset(relationOf(3, 3, [][]int{{1, 2}, nil, {1}}))
			m.Seed(d)
		}()
	}
}

// TestMatcherResetAllocatesNothing: a matcher reused across relations of
// at most the size it has seen allocates nothing, cold or prioritized.
func TestMatcherResetAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rel := relationOf(130, 130, randomOrder(rng, 130, 0.05))
	var m Matcher
	level := func(a int) int { return a % 4 }
	m.Reset(rel)
	m.AugmentLevels(level)
	if a := testing.AllocsPerRun(20, func() {
		m.Reset(rel)
		m.Augment()
		m.Reset(rel)
		m.AugmentLevels(level)
	}); a != 0 {
		t.Errorf("allocs per run = %v, want 0", a)
	}
}

// augmentClearing is Augment with the visited marks cleared before every
// search, failed or not: the textbook Kuhn loop Augment must agree with.
func augmentClearing(m *Matcher) int {
	for l, r := range m.matchL {
		if r == -1 {
			clear(m.visited)
			m.try(int32(l))
		}
	}
	return m.Size()
}

// augmentLevelsClearing is AugmentLevels over augmentClearing.
func augmentLevelsClearing(m *Matcher, level func(a int) int) int {
	if len(m.matchL) == 0 {
		return 0
	}
	m.setLevels(level)
	for m.prio = 0; m.prio < m.nlev; m.prio++ {
		augmentClearing(m)
	}
	m.prio = -1
	return m.Size()
}

// TestVisitedKeptAcrossFailedSearches: keeping the visited marks of failed
// searches finds exactly the matching the textbook loop finds, pair for
// pair — cold, warm-started from Seeded chains, and under AugmentLevels
// with random levels — on random relations and random partial orders.
func TestVisitedKeptAcrossFailedSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var got, want Matcher
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(150)
		var adj [][]int
		if trial%2 == 0 {
			adj = randomAdj(rng, n, n, []float64{0.01, 0.04, 0.2}[trial%3])
		} else {
			adj = randomOrder(rng, n, []float64{0.02, 0.1, 0.4}[trial%3])
		}
		rel := relationOf(n, n, adj)
		levels := make([]int, n)
		for a := range levels {
			levels[a] = rng.Intn(1 + rng.Intn(6))
		}
		level := func(a int) int { return levels[a] }

		// A warm start: the chains of a maximum matching over part of the
		// pairs (a partial order's, so the pairs form chains).
		var seed order.Decomposition
		if trial%2 == 1 {
			part := order.NewRelation(n)
			for a, bs := range adj {
				for _, b := range bs {
					if rng.Intn(2) == 0 {
						part.Add(a, b)
					}
				}
			}
			var base Matcher
			base.Reset(part)
			base.Augment()
			seed = chainsOf(&base, n)
		}

		for _, mode := range []string{"cold", "levels", "seeded", "seeded levels"} {
			if strings.HasPrefix(mode, "seeded") && seed == nil {
				continue
			}
			got.Reset(rel)
			want.Reset(rel)
			if seed != nil && strings.HasPrefix(mode, "seeded") {
				got.Seed(seed)
				want.Seed(seed)
			}
			var gs, ws int
			if strings.HasSuffix(mode, "levels") {
				gs, ws = got.AugmentLevels(level), augmentLevelsClearing(&want, level)
			} else {
				gs, ws = got.Augment(), augmentClearing(&want)
			}
			if gs != ws {
				t.Fatalf("trial %d n=%d %s: size %d, clearing loop %d", trial, n, mode, gs, ws)
			}
			for l := 0; l < n; l++ {
				if got.PairL(l) != want.PairL(l) {
					t.Fatalf("trial %d n=%d %s: PairL(%d) = %d, clearing loop %d",
						trial, n, mode, l, got.PairL(l), want.PairL(l))
				}
			}
		}
	}
}
