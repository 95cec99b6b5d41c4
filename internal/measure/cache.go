package measure

import (
	"crypto/sha256"
	"sync"

	"ursa/internal/cache"
	"ursa/internal/dag"
	"ursa/internal/reuse"
)

// Cache memoizes the measurements of committed graph states, keyed by a
// canonical DAG+resource fingerprint (the graph's content hash plus the
// resource's name). It serves two kinds of repeat: within one core.Run, the
// untransformed baseline and every retry style start from clones of the same
// graph and commit overlapping transformed states; in ursad, one cache
// shared across requests turns a repeated or overlapping compile's
// measurements into hits. Candidate scoring does not go through the cache:
// the evaluator computes widths directly (see Width), so a hit skips the
// reuse-structure construction, the hammock analysis and the O(N³)
// prioritized matching of a committed state only.
//
// Cached results are shared: callers must treat a *Result obtained through
// the cache as immutable (every current consumer does — excess-set
// trimming and candidate generation copy what they modify). Node and item
// ids are content-determined, so a Result computed on one clone of a graph
// is valid verbatim for any other clone with equal fingerprint.
//
// A Cache is safe for concurrent use, and concurrent misses of one key run
// build once. Memory is bounded by a byte budget. A result whose estimated
// size exceeds the whole budget is returned but not retained, and nothing
// is evicted for it. A build that panics releases its key: callers waiting
// on it re-panic with the same value, and the next Measure builds afresh.
type Cache struct {
	mu        sync.Mutex
	lru       *cache.LRU[cacheKey, *Result]
	hits      uint64
	misses    uint64
	coalesced uint64
	flight    cache.Flight[cacheKey, *Result]
}

type cacheKey struct {
	resource string
	graph    [sha256.Size]byte
}

// DefaultBudget bounds the cache's approximate retained bytes when
// NewCache is used. Sized so the steady-state working set of a busy
// server (thousands of mid-size reuse relations) stays resident.
const DefaultBudget = 128 << 20 // 128 MiB

// NewCache returns an empty measurement cache with the default byte
// budget.
func NewCache() *Cache { return NewCacheBudget(DefaultBudget) }

// NewCacheBudget returns an empty cache bounded to approximately budget
// retained bytes (<= 0 means DefaultBudget).
func NewCacheBudget(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultBudget
	}
	return &Cache{lru: cache.NewLRU[cacheKey, *Result](budget, nil)}
}

// Measure returns the measurement of the named resource on the graph,
// reusing a cached result when the graph's fingerprint and resource match
// a previous call. On a miss, build constructs the resource's reuse
// structure on g — equal to core.Resource.Build's, which the evaluator
// derives from the closure it keeps — and the result is computed via
// Measure and stored. Concurrent misses of one key run build once.
func (c *Cache) Measure(g *dag.Graph, resource string, build func(*dag.Graph) *reuse.Reuse) *Result {
	if c == nil {
		return Measure(build(g))
	}
	key := cacheKey{resource: resource, graph: g.Fingerprint()}
	c.mu.Lock()
	res, ok := c.lru.Get(key)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if ok {
		return res
	}
	res, _, leader := c.flight.Do(key, func() (*Result, error) {
		// A previous leader may have stored the result between our
		// miss and acquiring the flight slot.
		c.mu.Lock()
		res, ok := c.lru.Get(key)
		c.mu.Unlock()
		if !ok {
			res = Measure(build(g))
			c.mu.Lock()
			c.lru.Put(key, res, approxResultBytes(res))
			c.mu.Unlock()
		}
		return res, nil
	})
	if !leader {
		c.mu.Lock()
		c.coalesced++
		c.mu.Unlock()
	}
	return res
}

// approxResultBytes estimates the memory a cached Result retains: the n×n
// bit relation dominates, plus the items, kill map, and decomposition
// (all O(n) slices of machine words), plus fixed struct overhead.
func approxResultBytes(res *Result) int64 {
	if res == nil || res.R == nil {
		return 64
	}
	n := int64(len(res.R.Items))
	relBits := n * ((n + 63) / 64) * 8 // one bitset row per item
	return relBits +                   // Rel
		n*16 + // Items (node + reg)
		n*8 + // Kill
		n*8 + // ChainOf
		n*8 + // chain elements across the decomposition
		int64(len(res.Chains))*24 + // chain slice headers
		256 // struct and map-entry overhead
}

// Stats reports the hit and miss counts so far. A coalesced wait (see
// Measure) counts as a miss: the key was absent when the caller arrived.
func (c *Cache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions reports how many entries the byte budget has evicted.
func (c *Cache) Evictions() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Evictions()
}

// Coalesced reports how many misses waited on a concurrent identical
// build instead of building themselves.
func (c *Cache) Coalesced() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coalesced
}

// Entries reports the cache's current size: the number of cached
// measurements and the approximate bytes they retain. The byte figure is
// an estimate (dominated by the n×n reuse relations) intended for
// monitoring, not precise accounting.
func (c *Cache) Entries() (entries int, bytes int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len(), c.lru.Bytes()
}
