package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ursa/internal/server"
	"ursa/internal/store"
)

// shard is one real ursad backend under test: the server, its artifact
// cache (inspected directly for compute counts), and the listener.
type shard struct {
	srv  *server.Server
	arts *store.TieredCache
	ts   *httptest.Server
}

func newShard(t *testing.T) *shard {
	t.Helper()
	arts := store.NewTiered(0, nil, nil)
	srv := server.New(server.Config{Artifacts: arts, MaxConcurrent: 4})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &shard{srv: srv, arts: arts, ts: ts}
}

// newFleet builds n real shards and a router over them. Spillover and
// hedging are disabled unless the caller re-enables them: the sharding
// tests want pure key-affine placement.
func newFleet(t *testing.T, n int, mod func(*Config)) ([]*shard, *Router) {
	t.Helper()
	fleet := make([]*shard, n)
	urls := make([]string, n)
	for i := range fleet {
		fleet[i] = newShard(t)
		urls[i] = fleet[i].ts.URL
	}
	cfg := Config{
		Backends:   urls,
		SpillDepth: -1,
		HedgeDelay: -1,
		Logf:       t.Logf,
	}
	if mod != nil {
		mod(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return fleet, r
}

func postJSON(t *testing.T, client *http.Client, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// distinctRequests returns n compile requests with pairwise-distinct
// cache keys (different machine shapes) whose keys we also return.
func distinctRequests(t *testing.T, n int) (bodies []string, keys []string) {
	t.Helper()
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`{"machine": {"width": %d, "regs": %d}}`, 2+i%4, 6+i/4*2)
		var cr server.CompileRequest
		if err := json.Unmarshal([]byte(body), &cr); err != nil {
			t.Fatal(err)
		}
		key, err := cr.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if k == key {
				t.Fatalf("requests %d share key %s", i, key)
			}
		}
		bodies = append(bodies, body)
		keys = append(keys, key)
	}
	return bodies, keys
}

// TestRouterShardsKeys is the acceptance e2e: over 3 shards, a batch of
// distinct keys compiles each key on exactly one shard, results are
// byte-identical to a single daemon's, repeats are the owner's cache
// hits, and exactly one shard holds each artifact.
func TestRouterShardsKeys(t *testing.T) {
	fleet, router := newFleet(t, 3, nil)
	gw := httptest.NewServer(router.Handler())
	defer gw.Close()
	standalone := newShard(t)

	bodies, keys := distinctRequests(t, 8)
	type answer struct{ Blocks, Stats json.RawMessage }
	extract := func(data []byte) answer {
		var m struct {
			Blocks json.RawMessage `json:"blocks"`
			Stats  json.RawMessage `json:"stats"`
		}
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("bad response %s: %v", data, err)
		}
		return answer{m.Blocks, m.Stats}
	}

	for round := 0; round < 2; round++ {
		for i, body := range bodies {
			resp, data := postJSON(t, gw.Client(), gw.URL+"/v1/compile", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d key %d: HTTP %d: %s", round, i, resp.StatusCode, data)
			}
			var m struct {
				Cache struct {
					Result string `json:"result"`
					Key    string `json:"key"`
				} `json:"cache"`
			}
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			if m.Cache.Key != keys[i] {
				t.Errorf("round %d key %d: response key %s, want %s", round, i, m.Cache.Key, keys[i])
			}
			if round == 1 && m.Cache.Result != "memory" {
				t.Errorf("repeat of key %d served by %q, want owner's memory tier", i, m.Cache.Result)
			}

			// Byte-identical to a single-daemon compile.
			sresp, sdata := postJSON(t, standalone.ts.Client(), standalone.ts.URL+"/v1/compile", body)
			if sresp.StatusCode != http.StatusOK {
				t.Fatalf("standalone: HTTP %d", sresp.StatusCode)
			}
			got, want := extract(data), extract(sdata)
			if !bytes.Equal(got.Blocks, want.Blocks) || !bytes.Equal(got.Stats, want.Stats) {
				t.Errorf("key %d: routed response differs from single daemon", i)
			}
		}
	}

	// Each key compiled exactly once cluster-wide, per shard-side counters.
	var computes uint64
	for si, s := range fleet {
		st := s.arts.Stats()
		t.Logf("shard %d: computes=%d mem-hits=%d", si, st.Computes, st.Mem.Hits)
		computes += st.Computes
	}
	if computes != uint64(len(bodies)) {
		t.Errorf("fleet computed %d artifacts for %d distinct keys", computes, len(bodies))
	}

	// Exactly one shard holds each artifact (no peer chaining happened).
	for i, key := range keys {
		holders := 0
		for _, s := range fleet {
			resp, err := s.ts.Client().Get(s.ts.URL + "/v1/cache/" + key)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				holders++
			}
		}
		if holders != 1 {
			t.Errorf("key %d held by %d shards, want exactly 1", i, holders)
		}
	}
}

// TestRouterBatch shards one batch across the fleet and merges results
// in submission order, matching a single daemon's per-job output.
func TestRouterBatch(t *testing.T) {
	fleet, router := newFleet(t, 3, nil)
	gw := httptest.NewServer(router.Handler())
	defer gw.Close()
	standalone := newShard(t)

	batch := `{"jobs": [
		{"machine": {"width": 2, "regs": 6}},
		{"machine": {"width": 3, "regs": 6}},
		{"method": "nosuch"},
		{"machine": {"width": 4, "regs": 6}},
		{"machine": {"width": 5, "regs": 6}},
		{"machine": {"width": 2, "regs": 8}}
	]}`
	resp, data := postJSON(t, gw.Client(), gw.URL+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: HTTP %d: %s", resp.StatusCode, data)
	}
	sresp, sdata := postJSON(t, standalone.ts.Client(), standalone.ts.URL+"/v1/batch", batch)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("standalone batch: HTTP %d", sresp.StatusCode)
	}

	type jobView struct {
		Blocks json.RawMessage `json:"blocks"`
		Stats  json.RawMessage `json:"stats"`
		Error  string          `json:"error"`
	}
	var got, want struct {
		Results []jobView `json:"results"`
		Errors  int       `json:"errors"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(sdata, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 6 || got.Errors != 1 {
		t.Fatalf("results=%d errors=%d, want 6/1", len(got.Results), got.Errors)
	}
	for i := range got.Results {
		if (got.Results[i].Error != "") != (want.Results[i].Error != "") {
			t.Errorf("job %d: error mismatch (%q vs %q)", i, got.Results[i].Error, want.Results[i].Error)
			continue
		}
		if !bytes.Equal(got.Results[i].Blocks, want.Results[i].Blocks) ||
			!bytes.Equal(got.Results[i].Stats, want.Results[i].Stats) {
			t.Errorf("job %d: routed batch result differs from single daemon", i)
		}
	}

	var computes uint64
	for _, s := range fleet {
		computes += s.arts.Stats().Computes
	}
	if computes != 5 {
		t.Errorf("fleet computed %d artifacts for 5 valid jobs", computes)
	}
}

// TestRouterFailover kills one shard mid-campaign: every client request
// must still succeed (the dead shard's keys fail over to successors).
func TestRouterFailover(t *testing.T) {
	fleet, router := newFleet(t, 3, func(c *Config) {
		c.ProbeInterval = 50 * time.Millisecond
	})
	gw := httptest.NewServer(router.Handler())
	defer gw.Close()

	bodies, _ := distinctRequests(t, 12)
	for i, body := range bodies {
		if i == 4 {
			fleet[1].ts.CloseClientConnections()
			fleet[1].ts.Close()
		}
		resp, data := postJSON(t, gw.Client(), gw.URL+"/v1/compile", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d after shard kill: HTTP %d: %s", i, resp.StatusCode, data)
		}
	}
	// The dead shard left the ring (reactively or via probe).
	deadline := time.Now().Add(5 * time.Second)
	for router.Ring().Len() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("dead shard never ejected; ring=%v", router.Ring().Members())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stubShard is a scriptable fake backend for routing-policy tests.
type stubShard struct {
	ts       *httptest.Server
	compiles atomic.Int64

	mu          sync.Mutex
	queued      int64
	healthCode  int
	compileCode int
	delay       time.Duration
	retryAfter  string
	artifacts   map[string][]byte // framed, served on GET /v1/cache/{key}
}

func newStubShard(t *testing.T) *stubShard {
	t.Helper()
	s := &stubShard{healthCode: http.StatusOK, compileCode: http.StatusOK,
		artifacts: make(map[string][]byte)}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		code, queued := s.healthCode, s.queued
		s.mu.Unlock()
		w.WriteHeader(code)
		fmt.Fprintf(w, `{"status": "ok", "draining": false, "in_flight": 0, "queued": %d}`, queued)
	})
	mux.HandleFunc("/v1/compile", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		code, delay, retry := s.compileCode, s.delay, s.retryAfter
		s.mu.Unlock()
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		s.compiles.Add(1)
		if retry != "" {
			w.Header().Set("Retry-After", retry)
		}
		w.WriteHeader(code)
		fmt.Fprintf(w, `{"method": "ursa", "machine": "stub", "blocks": [], "stats": {}, "cache": {}}`)
	})
	mux.HandleFunc("/v1/cache/", func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, "/v1/cache/")
		s.mu.Lock()
		framed, ok := s.artifacts[key]
		s.mu.Unlock()
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.Write(framed)
	})
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

func stubRouter(t *testing.T, mod func(*Config), stubs ...*stubShard) *Router {
	t.Helper()
	urls := make([]string, len(stubs))
	for i, s := range stubs {
		urls[i] = s.ts.URL
	}
	cfg := Config{Backends: urls, SpillDepth: -1, HedgeDelay: -1, Logf: t.Logf}
	if mod != nil {
		mod(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func paperKey(t *testing.T) string {
	t.Helper()
	key, err := (&server.CompileRequest{}).CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestRouterCoalesces: concurrent identical requests produce exactly one
// upstream compile; everyone shares the leader's response.
func TestRouterCoalesces(t *testing.T) {
	stub := newStubShard(t)
	stub.mu.Lock()
	stub.delay = 150 * time.Millisecond
	stub.mu.Unlock()
	router := stubRouter(t, nil, stub)
	gw := httptest.NewServer(router.Handler())
	defer gw.Close()

	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, gw.Client(), gw.URL+"/v1/compile", `{}`)
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("client %d: HTTP %d", i, c)
		}
	}
	if got := stub.compiles.Load(); got != 1 {
		t.Errorf("upstream saw %d compiles for %d identical requests, want 1", got, n)
	}
	if got := router.mCoalesced.Value(); got != n-1 {
		t.Errorf("coalesced metric = %d, want %d", got, n-1)
	}
}

// TestRouterForwards429 verifies backpressure passes through untouched.
func TestRouterForwards429(t *testing.T) {
	stub := newStubShard(t)
	stub.mu.Lock()
	stub.compileCode = http.StatusTooManyRequests
	stub.retryAfter = "7"
	stub.mu.Unlock()
	router := stubRouter(t, nil, stub)
	gw := httptest.NewServer(router.Handler())
	defer gw.Close()

	resp, _ := postJSON(t, gw.Client(), gw.URL+"/v1/compile", `{}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After %q, want 7 (forwarded faithfully)", ra)
	}
}

// TestRouterSpillover: when the owner's admission queue is deep, its
// keys route to the next ring successor until the queue drains.
func TestRouterSpillover(t *testing.T) {
	a, b := newStubShard(t), newStubShard(t)
	router := stubRouter(t, func(c *Config) {
		c.SpillDepth = 8
		c.ProbeInterval = 20 * time.Millisecond
	}, a, b)
	gw := httptest.NewServer(router.Handler())
	defer gw.Close()

	key := paperKey(t)
	owner, other := a, b
	if router.Ring().Owner(key) == b.ts.URL {
		owner, other = b, a
	}
	owner.mu.Lock()
	owner.queued = 100 // deep admission queue at the owner
	owner.mu.Unlock()

	// Wait for a probe round to pick up the queue depth.
	deadline := time.Now().Add(5 * time.Second)
	for router.backs[owner.ts.URL].queued.Load() != 100 {
		if time.Now().After(deadline) {
			t.Fatal("probe never saw the owner's queue depth")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, _ := postJSON(t, gw.Client(), gw.URL+"/v1/compile", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if got := other.compiles.Load(); got != 1 {
		t.Errorf("successor saw %d compiles, want 1 (spillover)", got)
	}
	if got := owner.compiles.Load(); got != 0 {
		t.Errorf("overloaded owner still saw %d compiles", got)
	}
	if router.mSpillovers.Value() == 0 {
		t.Error("spillover metric not incremented")
	}
}

// TestRouterSpilloverShortKey: a cache lookup whose key is shorter than
// the router's log abbreviation, routed while its owner's queue is deep,
// is forwarded to the spillover shard and answers that shard's 404 — the
// spillover log line must not slice past the key.
func TestRouterSpilloverShortKey(t *testing.T) {
	a, b := newStubShard(t), newStubShard(t)
	router := stubRouter(t, func(c *Config) {
		c.SpillDepth = 8
		c.ProbeInterval = 20 * time.Millisecond
	}, a, b)
	gw := httptest.NewServer(router.Handler())
	defer gw.Close()

	const key = "ab"
	owner := a
	if router.Ring().Owner(key) == b.ts.URL {
		owner = b
	}
	owner.mu.Lock()
	owner.queued = 100
	owner.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for router.backs[owner.ts.URL].queued.Load() != 100 {
		if time.Now().After(deadline) {
			t.Fatal("probe never saw the owner's queue depth")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := gw.Client().Get(gw.URL + "/v1/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/cache/%s = %d; want the spillover shard's 404", key, resp.StatusCode)
	}
	if router.mSpillovers.Value() == 0 {
		t.Error("the lookup did not spill over")
	}
}

// TestCacheKeyRejections: ursad and ursagw refuse the same malformed
// cache keys with 400, before any lookup or forwarding.
func TestCacheKeyRejections(t *testing.T) {
	fleet, router := newFleet(t, 1, nil)
	gw := httptest.NewServer(router.Handler())
	defer gw.Close()
	for _, key := range []string{"a", "a.b", "a%20b", strings.Repeat("a", 129)} {
		for name, base := range map[string]string{"ursad": fleet[0].ts.URL, "ursagw": gw.URL} {
			resp, err := http.Get(base + "/v1/cache/" + key)
			if err != nil {
				t.Fatalf("%s GET %q: %v", name, key, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s GET /v1/cache/%s = %d; want 400", name, key, resp.StatusCode)
			}
		}
	}
}

// TestRouterHedge: a slow owner races the peer cache tier; the cached
// artifact wins, the response is synthesized from it, and the losing leg
// is cancelled through its context.
func TestRouterHedge(t *testing.T) {
	a, b := newStubShard(t), newStubShard(t)
	router := stubRouter(t, func(c *Config) {
		c.HedgeDelay = 30 * time.Millisecond
	}, a, b)
	gw := httptest.NewServer(router.Handler())
	defer gw.Close()

	key := paperKey(t)
	owner, other := a, b
	if router.Ring().Owner(key) == b.ts.URL {
		owner, other = b, a
	}
	owner.mu.Lock()
	owner.delay = 2 * time.Second // owner is slow; hedge should win
	owner.mu.Unlock()

	art := &store.Artifact{
		Method:  "ursa",
		Machine: "vliw4x8",
		Blocks:  []store.ArtifactBlock{{Label: "b0", Listing: "cycle0: nop\n"}},
		Stats:   store.ArtifactStats{Words: 1},
	}
	payload, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	other.mu.Lock()
	other.artifacts[key] = store.Frame(payload)
	other.mu.Unlock()

	start := time.Now()
	resp, data := postJSON(t, gw.Client(), gw.URL+"/v1/compile", `{"name": "hedged"}`)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	if elapsed > time.Second {
		t.Errorf("hedged response took %v, owner delay is 2s", elapsed)
	}
	var m struct {
		Name   string `json:"name"`
		Blocks []struct {
			Label   string `json:"label"`
			Listing string `json:"listing"`
		} `json:"blocks"`
		Cache struct {
			Result string `json:"result"`
			Key    string `json:"key"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Cache.Result != "peer" || m.Cache.Key != key {
		t.Errorf("cache = %+v, want peer/%s", m.Cache, key)
	}
	if m.Name != "hedged" || len(m.Blocks) != 1 || m.Blocks[0].Listing != "cycle0: nop\n" {
		t.Errorf("synthesized response wrong: %s", data)
	}
	if router.mHedgesWon.Value() != 1 {
		t.Errorf("hedges won = %d, want 1", router.mHedgesWon.Value())
	}
	// The losing leg was cancelled: the owner's handler saw its request
	// context die before the delay elapsed, so its compile counter never
	// moved.
	time.Sleep(50 * time.Millisecond)
	if got := owner.compiles.Load(); got != 0 {
		t.Errorf("cancelled owner leg still completed %d compiles", got)
	}

	// A gap request shares the artifact's cache key, but the artifact
	// cannot supply the gap report: the router must wait for the owner
	// rather than answer from the peer tier.
	owner.mu.Lock()
	owner.delay = 200 * time.Millisecond
	owner.mu.Unlock()
	resp, data = postJSON(t, gw.Client(), gw.URL+"/v1/compile", `{"name": "gapped", "gap": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gap request: HTTP %d: %s", resp.StatusCode, data)
	}
	if got := router.mHedges.Value(); got != 1 {
		t.Errorf("hedges = %d after a gap request, want 1 (no new hedge)", got)
	}
	if !strings.Contains(string(data), `"machine": "stub"`) || owner.compiles.Load() != 1 {
		t.Errorf("gap request was not answered by the owner (%d owner compiles): %s",
			owner.compiles.Load(), data)
	}
}

// TestRouterEjectReadmit drives a shard through down → ejected →
// recovered → readmitted via the probe loop.
func TestRouterEjectReadmit(t *testing.T) {
	a, b := newStubShard(t), newStubShard(t)
	router := stubRouter(t, func(c *Config) {
		c.ProbeInterval = 20 * time.Millisecond
		c.ReadmitBackoff = 20 * time.Millisecond
	}, a, b)

	b.mu.Lock()
	b.healthCode = http.StatusServiceUnavailable // draining / down
	b.mu.Unlock()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("ejection", func() bool { return router.Ring().Len() == 1 })
	if router.mRebalances.Value() != 1 {
		t.Errorf("rebalances = %d after ejection, want 1", router.mRebalances.Value())
	}

	b.mu.Lock()
	b.healthCode = http.StatusOK
	b.mu.Unlock()
	waitFor("readmission", func() bool { return router.Ring().Len() == 2 })
	if router.mRebalances.Value() != 2 {
		t.Errorf("rebalances = %d after readmission, want 2", router.mRebalances.Value())
	}
}

// TestRouterMetricsExposition spot-checks the router's Prometheus
// surface: per-backend series render with labels, and the scrape
// includes every router-side family.
func TestRouterMetricsExposition(t *testing.T) {
	stub := newStubShard(t)
	router := stubRouter(t, nil, stub)
	gw := httptest.NewServer(router.Handler())
	defer gw.Close()

	postJSON(t, gw.Client(), gw.URL+"/v1/compile", `{}`)
	resp, err := gw.Client().Get(gw.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf("ursagw_backend_requests_total{backend=%q} 1", stub.ts.URL),
		fmt.Sprintf("ursagw_backend_healthy{backend=%q} 1", stub.ts.URL),
		fmt.Sprintf("ursagw_backend_seconds_count{backend=%q} 1", stub.ts.URL),
		"ursagw_requests_total{endpoint=\"compile\"} 1",
		"ursagw_rebalances_total 0",
		"ursagw_spillovers_total 0",
		"ursagw_hedges_total 0",
		"ursagw_hedges_won_total 0",
		"ursagw_coalesced_total 0",
		"ursagw_failovers_total 0",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
