package measure

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/reuse"
	"ursa/internal/workload"
)

func buildFU(g *dag.Graph) *reuse.Reuse  { return reuse.FU(g, reuse.AllFUs) }
func buildReg(g *dag.Graph) *reuse.Reuse { return reuse.Reg(g, ir.ClassInt) }

// TestCacheHitsAndEquality: cached measurements equal uncached ones, a
// re-measurement of an unchanged graph hits, clones hit too, and a
// mutation misses.
func TestCacheHitsAndEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := workload.RandomBlock(rng, 40, 0.3)
	g, err := dag.Build(f.Blocks[0])
	if err != nil {
		t.Fatal(err)
	}

	c := NewCache()
	got := c.Measure(g, "fu", buildFU)
	want := Measure(buildFU(g))
	if got.Width != want.Width || !reflect.DeepEqual(got.Chains, want.Chains) ||
		!reflect.DeepEqual(got.ChainOf, want.ChainOf) {
		t.Fatalf("cached measurement differs from direct: %+v vs %+v", got, want)
	}
	if h, m := c.Stats(); h != 0 || m != 1 {
		t.Fatalf("after first measure: hits=%d misses=%d", h, m)
	}

	// Same graph, same resource: hit. Same graph, other resource: miss.
	if again := c.Measure(g, "fu", buildFU); again != got {
		t.Fatal("re-measurement of unchanged graph did not return the cached result")
	}
	c.Measure(g, "reg.int", buildReg)
	if h, m := c.Stats(); h != 1 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 1/2", h, m)
	}

	// A clone has the same fingerprint: hit.
	if res := c.Measure(g.Clone(), "fu", buildFU); res != got {
		t.Fatal("clone with equal content missed the cache")
	}

	// A structural change misses and measures fresh.
	ns := g.InstrNodes()
	a, b := ns[0], ns[len(ns)-1]
	if reach := g.Reach(); !reach.Has(a, b) && !reach.Has(b, a) {
		g.AddEdge(a, b, dag.EdgeSeq)
	} else {
		g.AddEdge(a, g.Leaf, dag.EdgeSeq)
	}
	mutated := c.Measure(g, "fu", buildFU)
	direct := Measure(buildFU(g))
	if mutated.Width != direct.Width || !reflect.DeepEqual(mutated.Chains, direct.Chains) {
		t.Fatal("post-mutation cached measurement differs from direct")
	}
	if h, m := c.Stats(); h != 2 || m != 3 {
		t.Fatalf("hits=%d misses=%d, want 2/3", h, m)
	}
}

// TestCacheNilReceiver: a nil *Cache degrades to a plain measurement.
func TestCacheNilReceiver(t *testing.T) {
	g, err := dag.Build(workload.PaperExample(false).Blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	var c *Cache
	res := c.Measure(g, "fu", buildFU)
	if want := Measure(buildFU(g)); res.Width != want.Width {
		t.Fatalf("nil cache width = %d, want %d", res.Width, want.Width)
	}
	if n, _ := c.Entries(); n != 0 {
		t.Fatal("nil cache has entries")
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("nil cache stats %d/%d", h, m)
	}
}

// TestCacheConcurrent hammers one cache from many goroutines over a mix of
// graphs; every returned width must match the direct measurement. Run
// under -race this doubles as the cache's race check.
func TestCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var graphs []*dag.Graph
	var widths []int
	for i := 0; i < 8; i++ {
		f := workload.RandomBlock(rng, 24+i, 0.4)
		g, err := dag.Build(f.Blocks[0])
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
		widths = append(widths, Measure(buildFU(g)).Width)
	}
	c := NewCache()
	var wg sync.WaitGroup
	errc := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (w + i) % len(graphs)
				if got := c.Measure(graphs[k], "fu", buildFU); got.Width != widths[k] {
					errc <- "width mismatch under concurrency"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
	if n, _ := c.Entries(); n != len(graphs) {
		t.Fatalf("cache has %d entries, want %d", n, len(graphs))
	}
}

// TestCacheLRUEviction: the byte budget evicts least-recently-used
// entries one at a time (never the whole map), respects the budget, and
// keeps recently touched entries resident.
func TestCacheLRUEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var graphs []*dag.Graph
	for i := 0; i < 6; i++ {
		f := workload.RandomBlock(rng, 30+i, 0.3)
		g, err := dag.Build(f.Blocks[0])
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}

	// Find the per-entry cost, then budget for roughly three entries.
	probe := NewCache()
	probe.Measure(graphs[0], "fu", buildFU)
	_, per := probe.Entries()

	c := NewCacheBudget(3 * per)
	for _, g := range graphs {
		c.Measure(g, "fu", buildFU)
	}
	if ev := c.Evictions(); ev == 0 {
		t.Fatal("no evictions despite exceeding the byte budget")
	}
	if n, b := c.Entries(); b > 3*per || n == 0 {
		t.Fatalf("cache over budget after eviction: %d entries, %d bytes (budget %d)", n, b, 3*per)
	}

	// The most recently inserted graph must still be resident.
	h0, _ := c.Stats()
	c.Measure(graphs[len(graphs)-1], "fu", buildFU)
	if h1, _ := c.Stats(); h1 != h0+1 {
		t.Fatal("most recently used entry was evicted")
	}

	// Touch the oldest surviving entry, insert more, and confirm the
	// touched entry outlives untouched peers: eviction is recency-based.
	c2 := NewCacheBudget(3 * per)
	for _, g := range graphs[:3] {
		c2.Measure(g, "fu", buildFU)
	}
	c2.Measure(graphs[0], "fu", buildFU) // refresh graphs[0]
	c2.Measure(graphs[3], "fu", buildFU) // forces an eviction (graphs[1])
	h0, _ = c2.Stats()
	c2.Measure(graphs[0], "fu", buildFU)
	if h1, _ := c2.Stats(); h1 != h0+1 {
		t.Fatal("recently touched entry was evicted before an older one")
	}
}

// TestCacheSingleFlight: concurrent misses on one key run the build
// exactly once; every caller gets the same shared result.
func TestCacheSingleFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := workload.RandomBlock(rng, 36, 0.3)
	g, err := dag.Build(f.Blocks[0])
	if err != nil {
		t.Fatal(err)
	}

	var builds atomic.Int64
	release := make(chan struct{})
	slowBuild := func(g *dag.Graph) *reuse.Reuse {
		builds.Add(1)
		<-release // hold every concurrent miss in flight
		return buildFU(g)
	}

	c := NewCache()
	const N = 16
	results := make([]*Result, N)
	var wg sync.WaitGroup
	var started sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		started.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			results[i] = c.Measure(g, "fu", slowBuild)
		}(i)
	}
	started.Wait()
	// Give the stragglers a beat to reach the cache, then open the gate.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times for one key, want 1", n)
	}
	for i := 1; i < N; i++ {
		if results[i] != results[0] {
			t.Fatal("coalesced callers got different result pointers")
		}
	}
	if n, _ := c.Entries(); n != 1 {
		t.Fatalf("cache has %d entries, want 1", n)
	}
	if c.Coalesced() == 0 {
		t.Fatal("no coalesced waits recorded")
	}
}

// TestCachePanicReleasesKey: a build that panics reaches its caller as a
// panic and does not wedge the key — the next Measure of the same graph
// and resource builds and returns instead of waiting forever on the dead
// leader.
func TestCachePanicReleasesKey(t *testing.T) {
	g, err := dag.Build(workload.PaperExample(false).Blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	func() {
		defer func() {
			if r := recover(); r != "build bug" {
				t.Fatalf("recovered %v; want the build's panic value", r)
			}
		}()
		c.Measure(g, "fu", func(*dag.Graph) *reuse.Reuse { panic("build bug") })
	}()
	done := make(chan *Result, 1)
	go func() { done <- c.Measure(g, "fu", buildFU) }()
	select {
	case res := <-done:
		if want := Measure(buildFU(g)); res.Width != want.Width {
			t.Fatalf("width after the panic = %d; want %d", res.Width, want.Width)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Measure after a panicking build hung: the key is still in flight")
	}
	if n, _ := c.Entries(); n != 1 {
		t.Fatalf("cache has %d entries, want 1", n)
	}
}
