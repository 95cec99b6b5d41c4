// Package store is the tiered artifact cache underneath ursad and ursac:
// a disk-backed, content-addressed store of compile artifacts plus the
// memory and peer tiers layered over it.
//
// The allocator's measurement/reduction loop is the expensive part of
// every compile, and before this package existed all of that work
// evaporated on process exit, and each daemon recomputed what its
// neighbor just finished. The store makes compile results durable and
// shareable:
//
//   - Store is the disk tier: one file per key, written atomically
//     (temp file + rename into place, so a crash never leaves a partial
//     artifact visible), verified against an embedded sha256 on every
//     read (corruption is a miss and a counter, never a crash or a wrong
//     answer), and evicted least-recently-used under a byte budget.
//   - TieredCache chains memory → disk → peer lookups, refilling the
//     faster tiers on a slower hit, with single-flight coalescing so
//     concurrent misses for one key compute once.
//   - PeerClient speaks the GET/PUT /v1/cache/{key} protocol served by
//     ursad, with short timeouts and graceful degradation: a peer that
//     is down or slow means a local compute, never a failed compile.
//
// Every failure mode degrades toward "compute it locally": disk full,
// unreadable directory, corrupt artifact, unreachable peer — the cache
// returns a miss and the pipeline runs as if no cache existed.
package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"ursa/internal/cache"
)

// hashSize is the length of the integrity header preceding every payload.
const hashSize = sha256.Size

// DefaultDiskBudget bounds a Store's bytes when Open is given no budget.
const DefaultDiskBudget = 1 << 30 // 1 GiB

// StoreStats is a snapshot of a Store's activity and contents.
type StoreStats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts"`
	Evictions   uint64 `json:"evictions"`
	Corruptions uint64 `json:"corruptions"`
	WriteErrors uint64 `json:"write_errors"`
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
}

// Store is the disk tier: a content-addressed artifact store rooted at a
// directory. It is safe for concurrent use and for sharing a directory
// across restarts (but not across live processes — run one Store per
// directory).
type Store struct {
	dir    string
	budget int64

	mu    sync.Mutex
	index *cache.LRU[string, int64] // key → file size (header + payload)
	stats StoreStats
}

// Open opens (creating if needed) a store rooted at dir with the given
// byte budget (<= 0 means DefaultDiskBudget). Stray temporary files from
// a crashed writer are removed; existing artifacts are indexed with their
// modification time as the initial recency order, and one larger than the
// whole budget is removed.
func Open(dir string, budget int64) (*Store, error) {
	if budget <= 0 {
		budget = DefaultDiskBudget
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	tmp := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// A temp file is invisible to Get by construction; any that survive
	// here belonged to a writer that died before its rename.
	if names, err := os.ReadDir(tmp); err == nil {
		for _, n := range names {
			_ = os.Remove(filepath.Join(tmp, n.Name()))
		}
	}
	s := &Store{dir: dir, budget: budget}
	s.index = cache.NewLRU(budget, func(key string, _ int64) { _ = os.Remove(s.path(key)) })
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// load scans the objects directory into the index, oldest first so the
// LRU order across a restart approximates the pre-restart access order.
func (s *Store) load() error {
	type found struct {
		key   string
		size  int64
		mtime int64
	}
	var all []found
	shards, err := os.ReadDir(filepath.Join(s.dir, "objects"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, "objects", sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			info, err := f.Info()
			if err != nil || !info.Mode().IsRegular() {
				continue
			}
			if !ValidKey(f.Name()) {
				continue
			}
			all = append(all, found{key: f.Name(), size: info.Size(), mtime: info.ModTime().UnixNano()})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mtime < all[j].mtime })
	for _, f := range all {
		if !s.index.Put(f.key, f.size, f.size) {
			_ = os.Remove(s.path(f.key))
		}
	}
	return nil
}

// ValidKey reports whether key is safe to use as a file name: 2 to 128
// characters from [A-Za-z0-9_-], so no path separators, dots or spaces.
// It is the one key check of the cache protocol: the store, the peer
// client, and the /v1/cache handlers of ursad and ursagw all apply it.
func ValidKey(key string) bool {
	if len(key) < 2 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// ErrBadKey reports a key the store refuses to map to a file name.
var ErrBadKey = fmt.Errorf("store: invalid cache key")

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, "objects", key[:2], key)
}

// ------------------------------------------------------------------ Get

// Get returns the artifact stored under key. Any integrity failure —
// missing file, short file, sha256 mismatch — is a miss; a corrupt file
// is additionally removed and counted, so the next Put can heal it.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil || !ValidKey(key) {
		return nil, false
	}
	s.mu.Lock()
	if _, ok := s.index.Get(key); !ok {
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Unlock()

	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		// Evicted or externally deleted between lookup and read.
		s.mu.Lock()
		s.index.Remove(key)
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	payload, ok := Unframe(raw)
	if !ok {
		_ = os.Remove(s.path(key))
		s.mu.Lock()
		s.index.Remove(key)
		s.stats.Corruptions++
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Lock()
	s.stats.Hits++
	s.mu.Unlock()
	return payload, true
}

// Unframe splits a stored or wire-transferred artifact into its integrity
// header and payload, returning the payload only when the sha256 matches.
func Unframe(raw []byte) ([]byte, bool) {
	if len(raw) < hashSize {
		return nil, false
	}
	sum := sha256.Sum256(raw[hashSize:])
	if !bytes.Equal(sum[:], raw[:hashSize]) {
		return nil, false
	}
	return raw[hashSize:], true
}

// Frame prefixes data with its sha256 — the store's on-disk format and
// the peer protocol's wire format.
func Frame(data []byte) []byte {
	sum := sha256.Sum256(data)
	out := make([]byte, 0, hashSize+len(data))
	out = append(out, sum[:]...)
	return append(out, data...)
}

// ------------------------------------------------------------------ Put

// Put stores data under key, atomically: the bytes land in a temp file
// that is renamed into place, so a reader (or a crash) never observes a
// partial artifact. An artifact larger than the whole budget is not
// stored. Write failures (disk full, permissions) are counted and
// returned; callers treat them as "cache unavailable", not compile
// failures.
func (s *Store) Put(key string, data []byte) error {
	if s == nil {
		return nil
	}
	if !ValidKey(key) {
		return ErrBadKey
	}
	size := int64(len(data) + hashSize)
	if size > s.budget {
		return nil
	}
	if err := s.write(key, data); err != nil {
		s.mu.Lock()
		s.stats.WriteErrors++
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	s.index.Put(key, size, size)
	s.stats.Puts++
	s.mu.Unlock()
	return nil
}

func (s *Store) write(key string, data []byte) error {
	f, err := os.CreateTemp(filepath.Join(s.dir, "tmp"), "put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := f.Name()
	sum := sha256.Sum256(data)
	_, werr := f.Write(sum[:])
	if werr == nil {
		_, werr = f.Write(data)
	}
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		if err := os.MkdirAll(filepath.Dir(s.path(key)), 0o755); err != nil {
			werr = err
		}
	}
	if werr == nil {
		werr = os.Rename(tmpName, s.path(key))
	}
	if werr != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("store: %w", werr)
	}
	return nil
}

// Stats returns a snapshot of the store's counters and contents.
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Evictions = s.index.Evictions()
	st.Entries = s.index.Len()
	st.Bytes = s.index.Bytes()
	return st
}
