package store

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ctx is the context every test lookup runs under.
var ctx = context.Background()

func TestTieredFillDown(t *testing.T) {
	disk, _ := openStore(t, 0)
	tc := NewTiered(0, disk, nil)
	payload := []byte("fills down")
	tc.Put(key(1), payload)

	// A fresh tiered cache over the same store models a process restart:
	// memory is cold, so the first Get must come from disk and refill
	// memory; the second must come from memory.
	tc2 := NewTiered(0, disk, nil)
	data, tier, ok := tc2.GetCtx(ctx, key(1))
	if !ok || tier != TierDisk || !bytes.Equal(data, payload) {
		t.Fatalf("cold Get = tier %v, ok %v", tier, ok)
	}
	data, tier, ok = tc2.GetCtx(ctx, key(1))
	if !ok || tier != TierMem || !bytes.Equal(data, payload) {
		t.Fatalf("warm Get = tier %v, ok %v; want memory", tier, ok)
	}
}

func TestTieredGetOrComputeTiers(t *testing.T) {
	disk, _ := openStore(t, 0)
	tc := NewTiered(0, disk, nil)
	var computes atomic.Int64
	compute := func() ([]byte, error) {
		computes.Add(1)
		return []byte("expensive"), nil
	}
	data, tier, err := tc.GetOrComputeCtx(ctx, key(1), compute)
	if err != nil || tier != TierNone || string(data) != "expensive" {
		t.Fatalf("first call = %q, tier %v, err %v", data, tier, err)
	}
	if _, tier, _ = tc.GetOrComputeCtx(ctx, key(1), compute); tier != TierMem {
		t.Fatalf("second call served by %v; want memory", tier)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times; want 1", n)
	}
	st := tc.Stats()
	if st.Computes != 1 {
		t.Fatalf("computes stat = %d; want 1", st.Computes)
	}
}

func TestTieredCoalescing(t *testing.T) {
	tc := NewTiered(0, nil, nil)
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = tc.GetOrComputeCtx(ctx, key(1), func() ([]byte, error) {
			close(started)
			<-release
			computes.Add(1)
			return []byte("shared"), nil
		})
	}()
	<-started
	const followers = 4
	results := make([]Tier, followers)
	for i := 0; i < followers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, tier, _ := tc.GetOrComputeCtx(ctx, key(1), func() ([]byte, error) {
				computes.Add(1)
				return []byte("shared"), nil
			})
			results[i] = tier
		}()
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times under coalescing; want 1", n)
	}
	coalesced := 0
	for _, tier := range results {
		// A follower either coalesced onto the leader's flight or arrived
		// after the leader stored, hitting memory. Both mean no recompute.
		switch tier {
		case TierFlight:
			coalesced++
		case TierMem:
		default:
			t.Fatalf("follower served by %v", tier)
		}
	}
	if st := tc.Stats(); st.Coalesced != uint64(coalesced) {
		t.Fatalf("coalesced stat = %d; want %d", st.Coalesced, coalesced)
	}
}

// TestTieredComputePanicReleasesKey: a compute that panics reaches its
// caller as a panic and does not wedge the key — the next call for the
// same key computes and returns instead of waiting forever on the dead
// leader.
func TestTieredComputePanicReleasesKey(t *testing.T) {
	tc := NewTiered(0, nil, nil)
	func() {
		defer func() {
			if r := recover(); r != "compile bug" {
				t.Fatalf("recovered %v; want the compute's panic value", r)
			}
		}()
		tc.GetOrComputeCtx(ctx, key(1), func() ([]byte, error) { panic("compile bug") })
	}()
	done := make(chan []byte, 1)
	go func() {
		data, _, _ := tc.GetOrComputeCtx(ctx, key(1), func() ([]byte, error) { return []byte("clean"), nil })
		done <- data
	}()
	select {
	case data := <-done:
		if string(data) != "clean" {
			t.Fatalf("call after the panic = %q; want %q", data, "clean")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call after a panicking compute hung: the key is still in flight")
	}
}

// peerServer is a minimal in-test implementation of the /v1/cache wire
// protocol backed by a map — what a warm remote ursad looks like.
func peerServer(t *testing.T, artifacts map[string][]byte) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k := strings.TrimPrefix(r.URL.Path, "/v1/cache/")
		mu.Lock()
		defer mu.Unlock()
		switch r.Method {
		case http.MethodGet:
			data, ok := artifacts[k]
			if !ok {
				http.Error(w, "miss", http.StatusNotFound)
				return
			}
			w.Write(Frame(data))
		case http.MethodPut:
			raw := new(bytes.Buffer)
			raw.ReadFrom(r.Body)
			payload, ok := Unframe(raw.Bytes())
			if !ok {
				http.Error(w, "bad frame", http.StatusBadRequest)
				return
			}
			artifacts[k] = payload
			w.WriteHeader(http.StatusNoContent)
		}
	}))
}

func TestTieredPeerHitRefillsLocalTiers(t *testing.T) {
	remote := map[string][]byte{key(1): []byte("from the peer")}
	srv := peerServer(t, remote)
	defer srv.Close()
	peer, err := NewPeer(srv.URL, 0)
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	disk, _ := openStore(t, 0)
	tc := NewTiered(0, disk, peer)

	data, tier, ok := tc.GetCtx(ctx, key(1))
	if !ok || tier != TierPeer || string(data) != "from the peer" {
		t.Fatalf("peer Get = %q, tier %v, ok %v", data, tier, ok)
	}
	// The hit must have refilled disk and memory: cut the peer off and the
	// artifact is still served locally.
	srv.Close()
	if _, tier, ok := tc.GetCtx(ctx, key(1)); !ok || tier != TierMem {
		t.Fatalf("after refill Get = tier %v, ok %v; want memory hit", tier, ok)
	}
	if got, ok := disk.Get(key(1)); !ok || string(got) != "from the peer" {
		t.Fatalf("disk tier not refilled: %q, %v", got, ok)
	}
	ps := peer.Stats()
	if ps.Gets != 1 || ps.Hits != 1 {
		t.Fatalf("peer stats = %+v; want 1 get, 1 hit", ps)
	}
}

func TestTieredPutPushesToPeer(t *testing.T) {
	remote := map[string][]byte{}
	srv := peerServer(t, remote)
	defer srv.Close()
	peer, err := NewPeer(srv.URL, 0)
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	tc := NewTiered(0, nil, peer)
	tc.Put(key(1), []byte("pushed"))
	if got := remote[key(1)]; string(got) != "pushed" {
		t.Fatalf("peer received %q; want %q", got, "pushed")
	}
	if ps := peer.Stats(); ps.Puts != 1 || ps.Errors != 0 {
		t.Fatalf("peer stats = %+v", ps)
	}
}

// TestTieredPeerDown: an unreachable peer degrades to a miss and a local
// compute — never an error on the compile path.
func TestTieredPeerDown(t *testing.T) {
	srv := peerServer(t, map[string][]byte{})
	base := srv.URL
	srv.Close()
	peer, err := NewPeer(base, 0)
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	tc := NewTiered(0, nil, peer)
	data, tier, err := tc.GetOrComputeCtx(ctx, key(1), func() ([]byte, error) {
		return []byte("local fallback"), nil
	})
	if err != nil || tier != TierNone || string(data) != "local fallback" {
		t.Fatalf("with peer down = %q, tier %v, err %v", data, tier, err)
	}
	if ps := peer.Stats(); ps.Errors == 0 {
		t.Fatal("peer failure not counted")
	}
}

// TestPeerRejectsCorruptTransfer: a peer serving bytes that fail the
// integrity check is an error + miss, and the bad bytes never surface.
func TestPeerRejectsCorruptTransfer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		frame := Frame([]byte("tampered"))
		frame[len(frame)-1] ^= 1
		w.Write(frame)
	}))
	defer srv.Close()
	peer, err := NewPeer(srv.URL, 0)
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	if _, ok := peer.Get(key(1)); ok {
		t.Fatal("corrupt peer transfer accepted")
	}
	if ps := peer.Stats(); ps.Errors != 1 || ps.Hits != 0 {
		t.Fatalf("peer stats = %+v; want 1 error, 0 hits", ps)
	}
}

func TestNewPeerRejectsBadURL(t *testing.T) {
	for _, bad := range []string{"", "not-a-url", "host:8347", "/just/a/path"} {
		if _, err := NewPeer(bad, 0); err == nil {
			t.Errorf("NewPeer(%q) accepted", bad)
		}
	}
	if _, err := NewPeer("http://ursad-2:8347/", 0); err != nil {
		t.Errorf("NewPeer rejected a valid URL: %v", err)
	}
}

func TestMemCacheEviction(t *testing.T) {
	payload := bytes.Repeat([]byte("m"), 64)
	tc := NewTiered(int64(3*len(payload)), nil, nil)
	for i := 0; i < 3; i++ {
		tc.Put(key(i), payload)
	}
	tc.GetCtx(ctx, key(0)) // protect 0; 1 becomes LRU
	tc.Put(key(3), payload)
	if _, _, ok := tc.GetCtx(ctx, key(1)); ok {
		t.Fatal("memory LRU victim survived")
	}
	st := tc.Stats().Mem
	if st.Evictions != 1 || st.Bytes > int64(3*len(payload)) {
		t.Fatalf("mem stats = %+v", st)
	}
}

func TestArtifactSchemaInvalidation(t *testing.T) {
	a := &Artifact{Method: "ursa", Machine: "vliw4x8",
		Blocks: []ArtifactBlock{{Label: "entry", Listing: "w0: nop\n"}}}
	data, err := a.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeArtifact(data)
	if err != nil {
		t.Fatalf("DecodeArtifact: %v", err)
	}
	if got.Schema != SchemaVersion || got.Blocks[0].Listing != a.Blocks[0].Listing {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// An artifact written by a different schema version must be refused.
	stale := bytes.Replace(data, []byte(fmt.Sprintf(`"schema":%d`, SchemaVersion)), []byte(`"schema":999`), 1)
	if bytes.Equal(stale, data) {
		t.Fatal("test assumption broken: schema field not found in encoding")
	}
	if _, err := DecodeArtifact(stale); err == nil {
		t.Fatal("stale-schema artifact accepted")
	}
	if _, err := DecodeArtifact([]byte("not json")); err == nil {
		t.Fatal("garbage artifact accepted")
	}
}
