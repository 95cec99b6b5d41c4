package measure

import (
	"crypto/sha256"
	"sync"

	"ursa/internal/dag"
	"ursa/internal/reuse"
)

// Cache is an incremental measurement cache: it memoizes Measure results
// keyed by a canonical DAG+resource fingerprint (the graph's content hash
// plus the resource's name). The URSA driver re-measures every resource
// after every tentative and committed transformation; most transformations
// leave most resources' reuse relations untouched, and the driver's
// tentative-apply loop measures the same transformed graph several times
// (once as a candidate, once more when the winner is committed, again in
// plateau scans). All of those repeats become cache hits that skip both
// the reuse-structure construction and the O(N³) prioritized matching.
//
// Cached results are shared: callers must treat a *Result obtained through
// the cache as immutable (every current consumer does — excess-set
// trimming and candidate generation copy what they modify). Node and item
// ids are content-determined, so a Result computed on one clone of a graph
// is valid verbatim for any other clone with equal fingerprint.
//
// Memory is bounded by a byte budget: entries are evicted least recently
// used, one at a time, so a long-lived server process keeps its hot
// working set instead of periodically dropping everything.
//
// A Cache is safe for concurrent use. Concurrent misses of the same key
// coalesce: one goroutine builds the reuse structure and measures, the
// rest wait and share its result — under the parallel candidate evaluator
// N workers hitting one fresh fingerprint cost one O(N³) matching, not N.
type Cache struct {
	mu         sync.Mutex
	entries    map[cacheKey]*cacheEntry
	head, tail *cacheEntry // LRU list, head = most recently used
	bytes      int64       // approximate retained bytes across entries
	budget     int64
	hits       uint64
	misses     uint64
	evictions  uint64
	coalesced  uint64
	flight     map[cacheKey]*flightCall
}

type cacheKey struct {
	resource string
	graph    [sha256.Size]byte
}

// cacheEntry is one memoized measurement, threaded on the LRU list.
type cacheEntry struct {
	key        cacheKey
	res        *Result
	bytes      int64
	prev, next *cacheEntry
}

// flightCall is one in-progress measurement that concurrent misses of the
// same key wait on.
type flightCall struct {
	done chan struct{}
	res  *Result
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
	return &Cache{
		entries: make(map[cacheKey]*cacheEntry),
		budget:  budget,
		flight:  make(map[cacheKey]*flightCall),
	}
}

// Measure returns the measurement of the named resource on the graph,
// reusing a cached result when the graph's fingerprint and resource match
// a previous call. On a miss, build constructs the resource's reuse
// structure (exactly core.Resource.Build) and the result is computed via
// Measure and stored. Concurrent misses of one key run build once.
func (c *Cache) Measure(g *dag.Graph, resource string, build func(*dag.Graph) *reuse.Reuse) *Result {
	if c == nil {
		return Measure(build(g))
	}
	key := cacheKey{resource: resource, graph: g.Fingerprint()}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.moveFront(e)
		c.mu.Unlock()
		return e.res
	}
	c.misses++
	if fc, ok := c.flight[key]; ok {
		// Another goroutine is already building this measurement; wait
		// for it rather than duplicating the O(N³) matching.
		c.coalesced++
		c.mu.Unlock()
		<-fc.done
		return fc.res
	}
	fc := &flightCall{done: make(chan struct{})}
	c.flight[key] = fc
	c.mu.Unlock()

	res := Measure(build(g))

	c.mu.Lock()
	fc.res = res
	delete(c.flight, key)
	if _, dup := c.entries[key]; !dup {
		e := &cacheEntry{key: key, res: res, bytes: approxResultBytes(res)}
		c.entries[key] = e
		c.pushFront(e)
		c.bytes += e.bytes
		c.evictLocked()
	}
	c.mu.Unlock()
	close(fc.done)
	return res
}

// evictLocked drops least-recently-used entries until the cache fits its
// budget, always keeping the most recent entry so a single oversized
// measurement still caches. Called with c.mu held.
func (c *Cache) evictLocked() {
	for c.bytes > c.budget && c.tail != nil && c.tail != c.head {
		e := c.tail
		c.unlink(e)
		delete(c.entries, e.key)
		c.bytes -= e.bytes
		c.evictions++
	}
}

func (c *Cache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// approxResultBytes estimates the memory a cached Result retains: the two
// n×n bit relations dominate, plus the items, kill map, and decomposition
// (all O(n) slices of machine words), plus fixed struct overhead.
func approxResultBytes(res *Result) int64 {
	if res == nil || res.R == nil {
		return 64
	}
	n := int64(len(res.R.Items))
	relBits := n * ((n + 63) / 64) * 8 // one bitset row per item
	return 2*relBits +                 // Rel + Reduced
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
	return c.evictions
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

// Len returns the number of cached measurements.
func (c *Cache) Len() int {
	n, _ := c.Entries()
	return n
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
	return len(c.entries), c.bytes
}
