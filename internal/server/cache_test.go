package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"ursa/internal/store"
)

// newCachedServer starts a server with the artifact cache on (memory +
// disk under a test temp dir) and an optional peer.
func newCachedServer(t *testing.T, peer *store.PeerClient) (*Server, string) {
	t.Helper()
	disk, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	s, ts := newTestServer(t, Config{Artifacts: store.NewTiered(0, disk, peer)})
	return s, ts.URL
}

// TestCompileCacheTiers: the same request compiled twice reports
// "compiled" then "memory", with byte-identical listings and stats.
func TestCompileCacheTiers(t *testing.T) {
	_, url := newCachedServer(t, nil)
	req := CompileRequest{Method: "ursa"}

	var cold CompileResponse
	if code, raw := postJSON(t, url+"/v1/compile", req, &cold); code != http.StatusOK {
		t.Fatalf("cold compile: %d\n%s", code, raw)
	}
	if cold.Cache.Result != "compiled" {
		t.Fatalf("cold served by %q; want compiled", cold.Cache.Result)
	}
	if cold.Cache.Artifacts == nil || cold.Cache.Artifacts.Computes != 1 {
		t.Fatalf("cold artifact stats = %+v; want 1 compute", cold.Cache.Artifacts)
	}

	var warm CompileResponse
	if code, raw := postJSON(t, url+"/v1/compile", req, &warm); code != http.StatusOK {
		t.Fatalf("warm compile: %d\n%s", code, raw)
	}
	if warm.Cache.Result != "memory" {
		t.Fatalf("warm served by %q; want memory", warm.Cache.Result)
	}
	coldBlocks, _ := json.Marshal(cold.Blocks)
	warmBlocks, _ := json.Marshal(warm.Blocks)
	if !bytes.Equal(coldBlocks, warmBlocks) {
		t.Errorf("warm listings differ:\ncold %s\nwarm %s", coldBlocks, warmBlocks)
	}
	if cold.Stats != warm.Stats {
		t.Errorf("warm stats %+v != cold stats %+v", warm.Stats, cold.Stats)
	}
}

// TestTwoDaemonPeerServedHit is the fleet scenario: daemon A compiles,
// daemon B (cold, pointed at A via the peer protocol) serves the same
// request from A's cache, byte-identically, without compiling.
func TestTwoDaemonPeerServedHit(t *testing.T) {
	_, urlA := newCachedServer(t, nil)
	peer, err := store.NewPeer(urlA, 0)
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	_, urlB := newCachedServer(t, peer)

	req := CompileRequest{Method: "ursa", Machine: MachineSpec{Preset: "paper2x3"}}
	var fromA CompileResponse
	if code, raw := postJSON(t, urlA+"/v1/compile", req, &fromA); code != http.StatusOK {
		t.Fatalf("compile on A: %d\n%s", code, raw)
	}
	var fromB CompileResponse
	if code, raw := postJSON(t, urlB+"/v1/compile", req, &fromB); code != http.StatusOK {
		t.Fatalf("compile on B: %d\n%s", code, raw)
	}
	if fromB.Cache.Result != "peer" {
		t.Fatalf("B served by %q; want peer", fromB.Cache.Result)
	}
	aBlocks, _ := json.Marshal(fromA.Blocks)
	bBlocks, _ := json.Marshal(fromB.Blocks)
	if !bytes.Equal(aBlocks, bBlocks) {
		t.Errorf("peer-served listings differ:\nA %s\nB %s", aBlocks, bBlocks)
	}
	if fromA.Stats != fromB.Stats {
		t.Errorf("peer-served stats %+v != origin stats %+v", fromB.Stats, fromA.Stats)
	}
	if ps := fromB.Cache.Artifacts.Peer; ps == nil || ps.Hits != 1 {
		t.Fatalf("B's peer stats = %+v; want 1 hit", ps)
	}
	// B refilled its local tiers: the same request again is a local hit,
	// even though the artifact was never compiled on B.
	var again CompileResponse
	postJSON(t, urlB+"/v1/compile", req, &again)
	if again.Cache.Result != "memory" {
		t.Fatalf("B's second compile served by %q; want memory", again.Cache.Result)
	}
	if again.Cache.Artifacts.Computes != 0 {
		t.Fatalf("B compiled %d times; want 0", again.Cache.Artifacts.Computes)
	}
}

// TestCacheEndpointRoundTrip drives GET/PUT /v1/cache/{key} directly —
// the wire protocol a peer daemon speaks.
func TestCacheEndpointRoundTrip(t *testing.T) {
	_, url := newCachedServer(t, nil)
	key := "deadbeef-cafe-0123456789"
	payload := []byte(`{"schema":1,"fake":"artifact"}`)

	// Miss before the PUT.
	resp, err := http.Get(url + "/v1/cache/" + key)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET before PUT = %d; want 404", resp.StatusCode)
	}

	put, err := http.NewRequest(http.MethodPut, url+"/v1/cache/"+key, bytes.NewReader(store.Frame(payload)))
	if err != nil {
		t.Fatalf("build PUT: %v", err)
	}
	resp, err = http.DefaultClient.Do(put)
	if err != nil {
		t.Fatalf("PUT: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT = %d; want 204", resp.StatusCode)
	}

	resp, err = http.Get(url + "/v1/cache/" + key)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after PUT = %d; want 200", resp.StatusCode)
	}
	got, ok := store.Unframe(raw)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("served frame does not verify or differs: %q, %v", got, ok)
	}
}

func TestCacheEndpointRejections(t *testing.T) {
	_, url := newCachedServer(t, nil)

	// A framed body whose hash does not match must be refused.
	frame := store.Frame([]byte("tampered artifact"))
	frame[len(frame)-1] ^= 1
	put, _ := http.NewRequest(http.MethodPut, url+"/v1/cache/deadbeef-bad", bytes.NewReader(frame))
	resp, err := http.DefaultClient.Do(put)
	if err != nil {
		t.Fatalf("PUT: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt PUT = %d; want 400", resp.StatusCode)
	}

	// Path-traversal-shaped and malformed keys are rejected outright.
	for _, bad := range []string{"..%2F..%2Fetc", "a.b", "x"} {
		resp, err := http.Get(url + "/v1/cache/" + bad)
		if err != nil {
			t.Fatalf("GET %q: %v", bad, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET of bad key %q = %d; want 400/404", bad, resp.StatusCode)
		}
	}

	// Without the cache configured, the protocol answers 404.
	_, plain := newTestServer(t, Config{})
	resp, err = http.Get(plain.URL + "/v1/cache/deadbeef-00")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cache-disabled GET = %d; want 404", resp.StatusCode)
	}
}

// TestHealthzReportsCaches: /healthz carries the artifact cache snapshot
// when the artifact cache is on, and omits it when off.
func TestHealthzReportsCaches(t *testing.T) {
	_, url := newCachedServer(t, nil)
	postJSON(t, url+"/v1/compile", CompileRequest{}, nil)
	postJSON(t, url+"/v1/compile", CompileRequest{}, nil)

	var h HealthJSON
	if code, raw := getJSON(t, url+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz: %d\n%s", code, raw)
	}
	if h.ArtifactCache == nil {
		t.Fatal("healthz missing artifact_cache")
	}
	if h.ArtifactCache.Computes != 1 || h.ArtifactCache.Mem.Hits != 1 {
		t.Fatalf("artifact_cache = %+v; want 1 compute, 1 memory hit", h.ArtifactCache)
	}
	if h.ArtifactCache.Disk == nil || h.ArtifactCache.Disk.Entries != 1 {
		t.Fatalf("disk tier = %+v; want 1 entry", h.ArtifactCache.Disk)
	}

	_, plain := newTestServer(t, Config{})
	var h2 HealthJSON
	getJSON(t, plain.URL+"/healthz", &h2)
	if h2.ArtifactCache != nil {
		t.Fatal("cache-disabled healthz reports artifact_cache")
	}
}

// TestCacheMetricsExposed: the per-tier Prometheus series appear once the
// cache is configured.
func TestCacheMetricsExposed(t *testing.T) {
	_, url := newCachedServer(t, nil)
	postJSON(t, url+"/v1/compile", CompileRequest{}, nil)
	postJSON(t, url+"/v1/compile", CompileRequest{}, nil)

	_, raw := getJSON(t, url+"/metrics", nil)
	for _, series := range []string{
		"ursad_artifact_mem_hits_total 1",
		"ursad_artifact_computes_total 1",
		"ursad_artifact_disk_entries 1",
		`ursad_artifact_served_total{tier="memory"} 1`,
		`ursad_artifact_served_total{tier="compiled"} 1`,
	} {
		if !bytes.Contains(raw, []byte(series)) {
			t.Errorf("metrics missing %q", series)
		}
	}
}

// TestRunRequestBypassesArtifactCache: a request that executes code needs
// the in-memory program, so it must compile even when the cache is warm.
func TestRunRequestBypassesArtifactCache(t *testing.T) {
	_, url := newCachedServer(t, nil)
	postJSON(t, url+"/v1/compile", CompileRequest{}, nil) // warm the key

	var run CompileResponse
	if code, raw := postJSON(t, url+"/v1/compile", CompileRequest{Run: true}, &run); code != http.StatusOK {
		t.Fatalf("run compile: %d\n%s", code, raw)
	}
	if run.Run == nil || !run.Stats.Verified {
		t.Fatal("run request did not execute")
	}
	if run.Cache.Result != "compiled" {
		t.Fatalf("run request served by %q; want compiled", run.Cache.Result)
	}
}

// TestBatchReportsCacheTiers: batch jobs thread through the artifact
// cache too — identical jobs in one batch coalesce or hit.
func TestBatchReportsCacheTiers(t *testing.T) {
	_, url := newCachedServer(t, nil)
	req := BatchRequest{Jobs: []CompileRequest{{Name: "a"}, {Name: "b"}, {Name: "c"}}}
	var br BatchResponse
	if code, raw := postJSON(t, url+"/v1/batch", req, &br); code != http.StatusOK {
		t.Fatalf("batch: %d\n%s", code, raw)
	}
	if br.Errors != 0 || len(br.Results) != 3 {
		t.Fatalf("batch = %d errors, %d results", br.Errors, len(br.Results))
	}
	compiles := 0
	for _, r := range br.Results {
		if r.Error != "" {
			t.Fatalf("job %s: %s", r.Name, r.Error)
		}
		if r.Cache.Result == "compiled" {
			compiles++
		}
	}
	if compiles != 1 {
		t.Fatalf("%d jobs compiled; want exactly 1 (others cached or coalesced)", compiles)
	}
	first, _ := json.Marshal(br.Results[0].Blocks)
	for _, r := range br.Results[1:] {
		blocks, _ := json.Marshal(r.Blocks)
		if !bytes.Equal(first, blocks) {
			t.Error("cache-served batch job's listings differ from the compiled job's")
		}
	}
}
