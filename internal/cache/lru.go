// Package cache holds the two algorithms every memoizing layer of the
// compiler shares: a byte-budget least-recently-used map (LRU) and a
// single-flight group that coalesces concurrent work for one key
// (Flight). The artifact store's memory and disk tiers and the cluster
// router are built on them.
package cache

// LRU is a map bounded by a byte budget that evicts least recently used
// entries first. Each entry costs one allocation: its list node.
//
// An entry larger than the whole budget is never retained, and nothing is
// evicted for it: Put refuses it and leaves the cache as it was.
//
// LRU is not safe for concurrent use; every owner guards it with its own
// mutex.
type LRU[K comparable, V any] struct {
	budget     int64
	bytes      int64
	evictions  uint64
	entries    map[K]*node[K, V]
	head, tail *node[K, V] // head = most recently used
	onEvict    func(K, V)
}

type node[K comparable, V any] struct {
	key        K
	val        V
	size       int64
	prev, next *node[K, V]
}

// NewLRU returns an empty LRU bounded to budget bytes. onEvict, when
// non-nil, is called once for every entry the budget evicts (not for
// Remove or a re-Put of the same key).
func NewLRU[K comparable, V any](budget int64, onEvict func(K, V)) *LRU[K, V] {
	return &LRU[K, V]{budget: budget, entries: make(map[K]*node[K, V]), onEvict: onEvict}
}

// Get returns the value under k and marks it most recently used.
func (l *LRU[K, V]) Get(k K) (V, bool) {
	n, ok := l.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.moveFront(n)
	return n.val, true
}

// Put stores v under k as the most recently used entry, accounting size
// bytes for it, then evicts least recently used entries until the cache
// fits its budget. A re-Put of a present key replaces its value and size.
// Put reports false, and changes nothing, when size exceeds the budget.
func (l *LRU[K, V]) Put(k K, v V, size int64) bool {
	if size > l.budget {
		return false
	}
	if n, ok := l.entries[k]; ok {
		l.bytes += size - n.size
		n.val, n.size = v, size
		l.moveFront(n)
	} else {
		n := &node[K, V]{key: k, val: v, size: size}
		l.entries[k] = n
		l.pushFront(n)
		l.bytes += size
	}
	for l.bytes > l.budget {
		n := l.tail
		l.drop(n)
		l.evictions++
		if l.onEvict != nil {
			l.onEvict(n.key, n.val)
		}
	}
	return true
}

// Remove deletes the entry under k, if any, without calling onEvict.
func (l *LRU[K, V]) Remove(k K) {
	if n, ok := l.entries[k]; ok {
		l.drop(n)
	}
}

// Len returns the number of entries.
func (l *LRU[K, V]) Len() int { return len(l.entries) }

// Bytes returns the bytes accounted across entries.
func (l *LRU[K, V]) Bytes() int64 { return l.bytes }

// Evictions returns how many entries the budget has evicted.
func (l *LRU[K, V]) Evictions() uint64 { return l.evictions }

func (l *LRU[K, V]) drop(n *node[K, V]) {
	l.unlink(n)
	delete(l.entries, n.key)
	l.bytes -= n.size
}

func (l *LRU[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = nil, l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *LRU[K, V]) unlink(n *node[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *LRU[K, V]) moveFront(n *node[K, V]) {
	if l.head != n {
		l.unlink(n)
		l.pushFront(n)
	}
}
