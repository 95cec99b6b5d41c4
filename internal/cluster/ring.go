// Package cluster turns a set of independent ursad daemons into a
// sharded compile fleet: a consistent-hash ring places every canonical
// compile key (pipeline.CacheKey) on exactly one backend, and a router
// in front of the fleet (cmd/ursagw, or any Go program mounting
// Router.Handler) forwards each request to the shard that owns its key.
//
// The point of key-affine routing is that the expensive state, the artifact
// cache, is per-daemon: when every request for a key lands on the same
// shard, each key is compiled once cluster-wide and every repeat is a
// memory-tier hit, without any coordination between the shards themselves.
// The ring keeps that placement stable under membership change (a node
// joining or leaving moves only ~1/N of the keys), health probes eject dead
// shards and readmit them with backoff, load-aware spillover shifts keys
// off a shard whose admission queue is deep, and a hedged fallback races
// the fleet's peer cache tier against a slow owner for tail latency.
//
// See docs/CLUSTER.md for topology, policy, and the metrics table.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// DefaultVNodes is the virtual-node count per member when a Ring is
// built with vnodes <= 0. 128 points per member keeps the worst member's
// share within a few tens of percent of the mean (see ring_test.go's
// skew bound) while membership changes stay O(vnodes·log(points)).
const DefaultVNodes = 128

// Ring is a consistent-hash ring with virtual nodes. Hashing is pure
// (sha256 over the member name and vnode index, no process state), so
// any two processes holding the same member set derive identical
// ownership — the property that lets a router restart, or a second
// router instance, route the same keys to the same shards. All methods
// are safe for concurrent use.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	points  []point // sorted by hash
	members map[string]bool
}

// point is one virtual node: a position on the ring owned by a member.
type point struct {
	hash   uint64
	member string
}

// NewRing returns an empty ring with the given virtual-node count per
// member (<= 0: DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]bool)}
}

// hashPoint positions one virtual node. sha256 rather than a cheap hash:
// placement happens only on membership change, and the uniformity is
// what bounds the skew across members.
func hashPoint(member string, vnode int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", member, vnode)))
	return binary.BigEndian.Uint64(sum[:8])
}

// hashKey positions a lookup key on the ring.
func hashKey(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a member. Adding an existing member is a no-op.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[member] {
		return
	}
	r.members[member] = true
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, point{hashPoint(member, v), member})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member. Removing an absent member is a no-op.
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Members returns the member set in sorted order.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Owner returns the member owning key: the first virtual node at or
// clockwise after the key's position. Empty string on an empty ring.
func (r *Ring) Owner(key string) string {
	owners := r.Successors(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Successors returns up to n distinct members in ring order starting at
// the key's owner — the owner first, then the members that would own the
// key if their predecessors left. The spillover and failover policies
// walk this list.
func (r *Ring) Successors(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}
