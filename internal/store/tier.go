package store

import (
	"context"
	"sync"

	"ursa/internal/cache"
)

// Tier identifies which cache layer served (or failed to serve) a lookup.
type Tier uint8

// Tiers, fastest first. TierNone means the result was computed locally;
// TierFlight means the caller coalesced onto a concurrent identical
// computation and shared its result.
const (
	TierNone Tier = iota
	TierMem
	TierDisk
	TierPeer
	TierFlight
)

// String returns the tier name as it appears in responses and metrics.
func (t Tier) String() string {
	switch t {
	case TierMem:
		return "memory"
	case TierDisk:
		return "disk"
	case TierPeer:
		return "peer"
	case TierFlight:
		return "coalesced"
	}
	return "none"
}

// DefaultMemBudget bounds the memory tier when NewTiered is given none.
const DefaultMemBudget = 64 << 20 // 64 MiB

// MemStats is a snapshot of the memory tier.
type MemStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
}

// TierStats snapshots every tier of a TieredCache. Disk and Peer are nil
// when the corresponding tier is not configured.
type TierStats struct {
	Mem       MemStats    `json:"memory"`
	Disk      *StoreStats `json:"disk,omitempty"`
	Peer      *PeerStats  `json:"peer,omitempty"`
	Computes  uint64      `json:"computes"`
	Coalesced uint64      `json:"coalesced"`
}

// TieredCache chains the cache tiers: an in-process byte-budget LRU, an
// optional disk Store, an optional PeerClient. Lookups try tiers fastest
// first and refill the faster tiers on a slower hit, so a fleet warms
// front to back; stores write through every configured tier. All methods
// are safe for concurrent use, and every tier failure degrades to a miss.
type TieredCache struct {
	disk *Store
	peer *PeerClient

	mu        sync.Mutex
	mem       *cache.LRU[string, []byte] // immutable payloads; callers must not mutate them
	memHits   uint64
	memMisses uint64
	computes  uint64
	coalesced uint64

	flight cache.Flight[string, []byte]
}

// NewTiered assembles a cache from its tiers. memBudget <= 0 means
// DefaultMemBudget; disk and peer may be nil.
func NewTiered(memBudget int64, disk *Store, peer *PeerClient) *TieredCache {
	if memBudget <= 0 {
		memBudget = DefaultMemBudget
	}
	return &TieredCache{mem: cache.NewLRU[string, []byte](memBudget, nil), disk: disk, peer: peer}
}

// Disk returns the disk tier, or nil.
func (t *TieredCache) Disk() *Store { return t.disk }

// GetCtx looks the key up tier by tier, reporting which tier answered. A
// disk hit refills memory; a peer hit refills disk and memory. The peer
// round-trip (the only tier that leaves the process) is cancelled when ctx
// is, so a cancelled compile request stops waiting on a slow peer instead
// of burning the full peer timeout.
func (t *TieredCache) GetCtx(ctx context.Context, key string) ([]byte, Tier, bool) {
	if t == nil {
		return nil, TierNone, false
	}
	if data, ok := t.memGet(key); ok {
		return data, TierMem, true
	}
	if data, ok := t.disk.Get(key); ok {
		t.memPut(key, data)
		return data, TierDisk, true
	}
	if data, ok := t.peer.GetCtx(ctx, key); ok {
		_ = t.disk.Put(key, data)
		t.memPut(key, data)
		return data, TierPeer, true
	}
	return nil, TierNone, false
}

// LocalGet is GetCtx without the peer tier — what the /v1/cache handler
// serves, so peers never chain lookups through each other.
func (t *TieredCache) LocalGet(key string) ([]byte, bool) {
	if t == nil {
		return nil, false
	}
	if data, ok := t.memGet(key); ok {
		return data, true
	}
	if data, ok := t.disk.Get(key); ok {
		t.memPut(key, data)
		return data, true
	}
	return nil, false
}

// Put writes the artifact through every configured tier. Disk write
// errors are absorbed (the store counts them); the peer push is
// best-effort with the client's short timeout.
func (t *TieredCache) Put(key string, data []byte) {
	if t == nil {
		return
	}
	t.memPut(key, data)
	_ = t.disk.Put(key, data)
	t.peer.Put(key, data)
}

// LocalPut writes the artifact to the memory and disk tiers only — what
// the /v1/cache handler stores on a peer's push, avoiding push loops.
func (t *TieredCache) LocalPut(key string, data []byte) {
	if t == nil {
		return
	}
	t.memPut(key, data)
	_ = t.disk.Put(key, data)
}

// GetOrComputeCtx returns the artifact under key, trying every tier
// before computing. Concurrent misses on one key coalesce: one caller
// computes, stores through the tiers, and the rest share the result
// (reported as TierFlight). A compute error reaches every coalesced caller
// and is never cached; a compute panic re-panics in every coalesced caller
// and releases the key, so the next call computes again. Only the lookup's
// peer leg runs under ctx. The write-through after a compute intentionally
// stays on the background context: once the result exists it should
// reach every tier even if the requesting client has gone away.
func (t *TieredCache) GetOrComputeCtx(ctx context.Context, key string, compute func() ([]byte, error)) ([]byte, Tier, error) {
	if t == nil {
		data, err := compute()
		return data, TierNone, err
	}
	if data, tier, ok := t.GetCtx(ctx, key); ok {
		return data, tier, nil
	}
	var servedBy Tier = TierNone
	data, err, leader := t.flight.Do(key, func() ([]byte, error) {
		// Re-check the fast tier: a previous leader may have landed the
		// artifact between our miss and acquiring the flight slot.
		if data, ok := t.memGet(key); ok {
			servedBy = TierMem
			return data, nil
		}
		data, err := compute()
		if err != nil {
			return nil, err
		}
		t.Put(key, data)
		return data, nil
	})
	if err != nil {
		return nil, TierNone, err
	}
	switch {
	case !leader:
		servedBy = TierFlight
		t.mu.Lock()
		t.coalesced++
		t.mu.Unlock()
	case servedBy == TierNone:
		t.mu.Lock()
		t.computes++
		t.mu.Unlock()
	}
	return data, servedBy, nil
}

// Stats snapshots every tier.
func (t *TieredCache) Stats() TierStats {
	if t == nil {
		return TierStats{}
	}
	var st TierStats
	if t.disk != nil {
		ds := t.disk.Stats()
		st.Disk = &ds
	}
	if t.peer != nil {
		ps := t.peer.Stats()
		st.Peer = &ps
	}
	t.mu.Lock()
	st.Mem = MemStats{
		Hits:      t.memHits,
		Misses:    t.memMisses,
		Evictions: t.mem.Evictions(),
		Entries:   t.mem.Len(),
		Bytes:     t.mem.Bytes(),
	}
	st.Computes = t.computes
	st.Coalesced = t.coalesced
	t.mu.Unlock()
	return st
}

// memGet looks key up in the memory tier.
func (t *TieredCache) memGet(key string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, ok := t.mem.Get(key)
	if ok {
		t.memHits++
	} else {
		t.memMisses++
	}
	return data, ok
}

// memPut stores data in the memory tier; one larger than the whole budget
// is not retained.
func (t *TieredCache) memPut(key string, data []byte) {
	t.mu.Lock()
	t.mem.Put(key, data, int64(len(data)))
	t.mu.Unlock()
}
