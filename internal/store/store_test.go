package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// key returns a deterministic valid cache key for test artifact i.
func key(i int) string { return fmt.Sprintf("k%02d-0123456789abcdef", i) }

func openStore(t *testing.T, budget int64) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, budget)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, dir
}

func TestStoreRoundTrip(t *testing.T) {
	s, _ := openStore(t, 0)
	want := []byte("the artifact payload")
	if err := s.Put(key(1), want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(key(1))
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, want)
	}
	if _, ok := s.Get(key(2)); ok {
		t.Fatal("Get of an absent key hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 put, 1 entry", st)
	}
	if st.Bytes != int64(len(want)+hashSize) {
		t.Fatalf("bytes = %d; want %d", st.Bytes, len(want)+hashSize)
	}
}

func TestStoreReopenPersists(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := []byte("survives restart")
	if err := s.Put(key(1), want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// A second Open over the same directory must index the artifact.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, ok := s2.Get(key(1))
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("after reopen Get = %q, %v; want %q, true", got, ok, want)
	}
}

// TestStoreTruncatedArtifact corrupts a stored artifact by truncation: the
// read must be a miss (never a wrong answer), the corruption counted, and
// the bad file removed so a later Put heals the entry.
func TestStoreTruncatedArtifact(t *testing.T) {
	s, _ := openStore(t, 0)
	payload := []byte("soon to be truncated payload bytes")
	if err := s.Put(key(1), payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	path := s.path(key(1))
	if err := os.Truncate(path, int64(hashSize+3)); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("Get returned a truncated artifact")
	}
	if st := s.Stats(); st.Corruptions != 1 {
		t.Fatalf("corruptions = %d; want 1", st.Corruptions)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file not removed: stat err = %v", err)
	}
	// The entry heals on the next Put.
	if err := s.Put(key(1), payload); err != nil {
		t.Fatalf("healing Put: %v", err)
	}
	if got, ok := s.Get(key(1)); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("after heal Get = %q, %v", got, ok)
	}
}

// TestStoreBitFlip flips one payload byte on disk; the embedded sha256
// must catch it.
func TestStoreBitFlip(t *testing.T) {
	s, _ := openStore(t, 0)
	if err := s.Put(key(1), []byte("bit-flip target")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	path := s.path(key(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	raw[hashSize] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("write corrupted: %v", err)
	}
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("Get returned a bit-flipped artifact")
	}
	if st := s.Stats(); st.Corruptions != 1 {
		t.Fatalf("corruptions = %d; want 1", st.Corruptions)
	}
}

// TestStoreCrashSafety simulates a writer that died mid-Put: a stray file
// in tmp/ must be invisible to Get and removed by the next Open.
func TestStoreCrashSafety(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Put(key(1), []byte("intact")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	stray := filepath.Join(dir, "tmp", "put-12345")
	if err := os.WriteFile(stray, []byte("half an artifact"), 0o644); err != nil {
		t.Fatalf("plant stray: %v", err)
	}
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray temp file survived reopen: stat err = %v", err)
	}
	if got, ok := s2.Get(key(1)); !ok || string(got) != "intact" {
		t.Fatalf("intact artifact lost across crash recovery: %q, %v", got, ok)
	}
}

// TestStoreEviction fills the store past its budget and checks that bytes
// stay bounded, LRU order decides the victims, and files actually leave
// the disk.
func TestStoreEviction(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 100)
	per := int64(len(payload) + hashSize)
	s, _ := openStore(t, 3*per)
	for i := 0; i < 3; i++ {
		if err := s.Put(key(i), payload); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	// Touch key 0 so key 1 is the LRU victim.
	if _, ok := s.Get(key(0)); !ok {
		t.Fatal("warm Get missed")
	}
	if err := s.Put(key(3), payload); err != nil {
		t.Fatalf("overflow Put: %v", err)
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d; want 1", st.Evictions)
	}
	if st.Bytes > 3*per {
		t.Fatalf("bytes = %d exceeds budget %d", st.Bytes, 3*per)
	}
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("LRU victim still present")
	}
	for _, k := range []string{key(0), key(2), key(3)} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("recently used key %s evicted", k)
		}
	}
	if _, err := os.Stat(s.path(key(1))); !os.IsNotExist(err) {
		t.Fatalf("evicted artifact file survived: stat err = %v", err)
	}
}

// TestStoreOversizedArtifact: an artifact larger than the whole budget is
// refused without error and without evicting everything else.
func TestStoreOversizedArtifact(t *testing.T) {
	s, _ := openStore(t, 256)
	if err := s.Put(key(1), []byte("small")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put(key(2), bytes.Repeat([]byte("y"), 1024)); err != nil {
		t.Fatalf("oversized Put errored: %v", err)
	}
	if _, ok := s.Get(key(2)); ok {
		t.Fatal("oversized artifact was stored")
	}
	if _, ok := s.Get(key(1)); !ok {
		t.Fatal("small artifact evicted by a refused oversized Put")
	}
}

func TestStoreKeyValidation(t *testing.T) {
	s, _ := openStore(t, 0)
	for _, bad := range []string{"", "a", "../../etc/passwd", "a/b", "a.b", "k\x00k", string(bytes.Repeat([]byte("k"), 129))} {
		if err := s.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", bad)
		}
		if _, ok := s.Get(bad); ok {
			t.Errorf("Get(%q) hit on an invalid key", bad)
		}
	}
	if err := s.Put("Valid-Key_42", []byte("x")); err != nil {
		t.Errorf("Put of a valid key refused: %v", err)
	}
}

// TestStoreComputeErrorNotCached: a failed compute reaches the caller and
// leaves nothing behind in any tier, so the next call retries.
func TestStoreComputeErrorNotCached(t *testing.T) {
	disk, _ := openStore(t, 0)
	tc := NewTiered(0, disk, nil)
	boom := fmt.Errorf("compute failed")
	if _, _, err := tc.GetOrComputeCtx(ctx, key(1), func() ([]byte, error) { return nil, boom }); err == nil {
		t.Fatal("compute error swallowed")
	}
	if st := disk.Stats(); st.Entries != 0 {
		t.Fatalf("failed compute stored %d artifacts on disk", st.Entries)
	}
	data, tier, err := tc.GetOrComputeCtx(ctx, key(1), func() ([]byte, error) { return []byte("retry"), nil })
	if err != nil || tier != TierNone || string(data) != "retry" {
		t.Fatalf("retry = %q, tier %v, err %v", data, tier, err)
	}
}

// TestStoreOpenRemovesOversizedArtifact: an artifact file already larger
// than the whole budget when the store opens is removed from disk, not
// left behind unindexed; files that fit stay indexed.
func TestStoreOpenRemovesOversizedArtifact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Put(key(1), []byte("small")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put(key(2), bytes.Repeat([]byte("z"), 1024)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s2, err := Open(dir, 256)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := os.Stat(s2.path(key(2))); !os.IsNotExist(err) {
		t.Fatalf("oversized artifact file survived Open: stat err = %v", err)
	}
	if st := s2.Stats(); st.Entries != 1 || st.Bytes != int64(len("small")+hashSize) {
		t.Fatalf("stats after reopen = %+v; want only the small artifact", st)
	}
	if got, ok := s2.Get(key(1)); !ok || string(got) != "small" {
		t.Fatalf("small artifact lost across reopen: %q, %v", got, ok)
	}
}

func TestFrameUnframe(t *testing.T) {
	payload := []byte("frame me")
	framed := Frame(payload)
	got, ok := Unframe(framed)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Unframe(Frame(p)) = %q, %v", got, ok)
	}
	framed[len(framed)-1] ^= 1
	if _, ok := Unframe(framed); ok {
		t.Fatal("Unframe accepted a corrupted frame")
	}
	if _, ok := Unframe([]byte("short")); ok {
		t.Fatal("Unframe accepted a short frame")
	}
}

func TestNilStoreIsMissOnly(t *testing.T) {
	var s *Store
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("nil store hit")
	}
	if err := s.Put(key(1), []byte("x")); err != nil {
		t.Fatalf("nil store Put errored: %v", err)
	}
	if s.Stats().Entries != 0 {
		t.Fatal("nil store has entries")
	}
}
