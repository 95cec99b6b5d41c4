package pipeline

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ursa/internal/machine"
	"ursa/internal/store"
	"ursa/internal/workload"
)

func mustOpenStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return s
}

// TestCachedColdWarmIdentical is the subsystem's correctness bar: for
// every pipeline — the guarded exact lane included, since the paper
// example sits well under its node limit — on two machine shapes, a
// disk-served warm compile must reproduce the cold compile's listings
// and statistics byte-for-byte.
func TestCachedColdWarmIdentical(t *testing.T) {
	f := workload.PaperExample(true)
	machines := []*machine.Config{machine.VLIW(4, 8), machine.VLIW(2, 4)}
	for _, m := range machines {
		for _, method := range AllMethods {
			t.Run(m.Name+"/"+method.String(), func(t *testing.T) {
				disk := mustOpenStore(t)
				cold, coldStats, err := CompileFuncCached(f, m, method,
					Options{Results: store.NewTiered(0, disk, nil)})
				if err != nil {
					t.Fatalf("cold compile: %v", err)
				}
				if cold.Tier != store.TierNone || cold.Prog == nil {
					t.Fatalf("cold compile served by %v, prog %v; want a fresh compile", cold.Tier, cold.Prog != nil)
				}
				// A fresh TieredCache over the same disk store models a
				// restart: memory is cold, the artifact is on disk.
				warm, warmStats, err := CompileFuncCached(f, m, method,
					Options{Results: store.NewTiered(0, disk, nil)})
				if err != nil {
					t.Fatalf("warm compile: %v", err)
				}
				if warm.Tier != store.TierDisk {
					t.Fatalf("warm compile served by %v; want disk", warm.Tier)
				}
				if warm.Prog != nil {
					t.Fatal("cache-served compile carries an in-memory program")
				}
				if got, want := warm.Listing(), cold.Listing(); got != want {
					t.Errorf("warm listing differs from cold:\n--- cold ---\n%s--- warm ---\n%s", want, got)
				}
				if *warmStats != *coldStats {
					t.Errorf("warm stats %+v != cold stats %+v", *warmStats, *coldStats)
				}
			})
		}
	}
}

func TestCachedMemoryHit(t *testing.T) {
	f := workload.PaperExample(true)
	m := machine.VLIW(4, 8)
	tc := store.NewTiered(0, nil, nil)
	if _, _, err := CompileFuncCached(f, m, URSA, Options{Results: tc}); err != nil {
		t.Fatalf("cold: %v", err)
	}
	warm, _, err := CompileFuncCached(f, m, URSA, Options{Results: tc})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if warm.Tier != store.TierMem {
		t.Fatalf("second compile served by %v; want memory", warm.Tier)
	}
}

// TestCachedPeerServed stands up an HTTP peer holding a warm producer's
// artifacts and checks a cold consumer compiles nothing: the result comes
// from the peer tier, byte-identical.
func TestCachedPeerServed(t *testing.T) {
	f := workload.PaperExample(true)
	m := machine.VLIW(4, 8)
	producer := store.NewTiered(0, mustOpenStore(t), nil)
	cold, coldStats, err := CompileFuncCached(f, m, URSA, Options{Results: producer})
	if err != nil {
		t.Fatalf("producer compile: %v", err)
	}

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k := strings.TrimPrefix(r.URL.Path, "/v1/cache/")
		data, ok := producer.LocalGet(k)
		if !ok {
			http.Error(w, "miss", http.StatusNotFound)
			return
		}
		w.Write(store.Frame(data))
	}))
	defer srv.Close()
	peer, err := store.NewPeer(srv.URL, 0)
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}

	consumer := store.NewTiered(0, mustOpenStore(t), peer)
	got, gotStats, err := CompileFuncCached(f, m, URSA, Options{Results: consumer})
	if err != nil {
		t.Fatalf("consumer compile: %v", err)
	}
	if got.Tier != store.TierPeer {
		t.Fatalf("consumer served by %v; want peer", got.Tier)
	}
	if got.Listing() != cold.Listing() {
		t.Error("peer-served listing differs from the producer's compile")
	}
	if *gotStats != *coldStats {
		t.Errorf("peer-served stats %+v != producer stats %+v", *gotStats, *coldStats)
	}
	// The peer hit refilled the consumer's local tiers: with the peer gone
	// the next lookup is a memory hit.
	srv.Close()
	again, _, err := CompileFuncCached(f, m, URSA, Options{Results: consumer})
	if err != nil || again.Tier != store.TierMem {
		t.Fatalf("after refill served by %v, err %v; want memory", again.Tier, err)
	}
}

// TestCachedMatchesPlainCompile: with no cache configured the cached
// entry point is CompileFunc with extra bookkeeping — outputs identical.
func TestCachedMatchesPlainCompile(t *testing.T) {
	f := workload.PaperExample(true)
	m := machine.VLIW(4, 8)
	for _, method := range AllMethods {
		plainProg, plainStats, err := CompileFunc(f, m, method, Options{})
		if err != nil {
			t.Fatalf("%v plain: %v", method, err)
		}
		cf, cachedStats, err := CompileFuncCached(f, m, method, Options{})
		if err != nil {
			t.Fatalf("%v cached: %v", method, err)
		}
		var want strings.Builder
		for i, b := range f.Blocks {
			want.WriteString(b.Label + ":\n" + plainProg.Blocks[i].String())
		}
		if cf.Listing() != want.String() {
			t.Errorf("%v: cached-path listing differs from plain compile", method)
		}
		if *cachedStats != *plainStats {
			t.Errorf("%v: stats differ: %+v vs %+v", method, *cachedStats, *plainStats)
		}
	}
}

// TestCachedCorruptArtifactRecompiles: a corrupted disk artifact must be
// detected, counted, and transparently replaced by a fresh compile.
func TestCachedCorruptArtifactRecompiles(t *testing.T) {
	f := workload.PaperExample(true)
	m := machine.VLIW(4, 8)
	dir := t.TempDir()
	disk, err := store.Open(dir, 0)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	cold, _, err := CompileFuncCached(f, m, URSA, Options{Results: store.NewTiered(0, disk, nil)})
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	path := filepath.Join(dir, "objects", cold.Key[:2], cold.Key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read stored artifact: %v", err)
	}
	raw[len(raw)-1] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("corrupt artifact: %v", err)
	}
	after, _, err := CompileFuncCached(f, m, URSA, Options{Results: store.NewTiered(0, disk, nil)})
	if err != nil {
		t.Fatalf("compile over corrupt artifact: %v", err)
	}
	if after.Tier != store.TierNone || after.Prog == nil {
		t.Fatalf("corrupt artifact served from %v; want a recompile", after.Tier)
	}
	if after.Listing() != cold.Listing() {
		t.Error("recompiled listing differs")
	}
	if st := disk.Stats(); st.Corruptions != 1 {
		t.Fatalf("corruptions = %d; want 1", st.Corruptions)
	}
}

func TestCacheKeyCanonicalization(t *testing.T) {
	f := workload.PaperExample(true)
	base := CacheKey(f, machine.VLIW(4, 8), URSA, Options{})

	// The preset name is presentation, not semantics: a renamed but
	// identical machine shares the cache entry.
	renamed := machine.VLIW(4, 8)
	renamed.Name = "totally-different-label"
	if CacheKey(f, renamed, URSA, Options{}) != base {
		t.Error("machine name changed the cache key")
	}
	// The worker count cannot change emitted code (results are identical
	// at every worker count by design), so it must not split the cache.
	if CacheKey(f, machine.VLIW(4, 8), URSA, Options{Workers: 7}) != base {
		t.Error("worker count changed the cache key")
	}

	// Everything semantic must split the key.
	diff := map[string]string{
		"machine width":  CacheKey(f, machine.VLIW(2, 8), URSA, Options{}),
		"register count": CacheKey(f, machine.VLIW(4, 6), URSA, Options{}),
		"method":         CacheKey(f, machine.VLIW(4, 8), Prepass, Options{}),
		"optimize flag":  CacheKey(f, machine.VLIW(4, 8), URSA, Options{Optimize: true}),
		"function":       CacheKey(workload.PaperExample(false), machine.VLIW(4, 8), URSA, Options{}),
	}
	seen := map[string]string{base: "base"}
	for what, k := range diff {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collided with %s", what, prev)
		}
		seen[k] = what
	}

	lat := machine.VLIW(4, 8)
	lat.Latency = machine.RealisticLatency
	if CacheKey(f, lat, URSA, Options{}) == base {
		t.Error("latency model did not change the cache key")
	}
}
