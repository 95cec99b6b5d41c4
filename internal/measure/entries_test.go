package measure

import (
	"testing"

	"ursa/internal/dag"
	"ursa/internal/reuse"
	"ursa/internal/workload"
)

// TestCacheEntriesBytes: Entries reports a growing entry count and a
// nonzero byte estimate, and both reset when the bounded cache drops its
// map.
func TestCacheEntriesBytes(t *testing.T) {
	c := NewCache()
	if n, b := c.Entries(); n != 0 || b != 0 {
		t.Fatalf("fresh cache: entries=%d bytes=%d", n, b)
	}

	g := workload.MustBuild(workload.PaperExample(true))
	build := func(gr *dag.Graph) *reuse.Reuse { return reuse.FU(gr, reuse.AllFUs) }
	c.Measure(g, "fu", build)
	n1, b1 := c.Entries()
	if n1 != 1 || b1 <= 0 {
		t.Fatalf("after one miss: entries=%d bytes=%d", n1, b1)
	}

	// A hit adds nothing.
	c.Measure(g, "fu", build)
	if n, b := c.Entries(); n != n1 || b != b1 {
		t.Errorf("hit changed size: entries=%d bytes=%d", n, b)
	}

	// A distinct resource on the same graph adds an entry and bytes.
	c.Measure(g, "reg.int", func(gr *dag.Graph) *reuse.Reuse { return reuse.Reg(gr, 0) })
	if n, b := c.Entries(); n != 2 || b <= b1 {
		t.Errorf("after second miss: entries=%d bytes=%d (was %d)", n, b, b1)
	}
}

// TestNilCacheEntries: the nil cache reports empty.
func TestNilCacheEntries(t *testing.T) {
	var c *Cache
	if n, b := c.Entries(); n != 0 || b != 0 {
		t.Errorf("nil cache: entries=%d bytes=%d", n, b)
	}
}
