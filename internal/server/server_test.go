package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ursa/internal/machine"
	"ursa/internal/pipeline"
	"ursa/internal/target"
	"ursa/internal/workload"
)

// newTestServer starts an httptest server over a fresh Server.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts v and decodes the response body into out (if non-nil),
// returning the status code and raw body.
func postJSON(t *testing.T, url string, v any, out any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("unmarshal %s: %v\n%s", url, err, raw)
		}
	}
	return resp.StatusCode, raw
}

func getJSON(t *testing.T, url string, out any) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("unmarshal %s: %v\n%s", url, err, raw)
		}
	}
	return resp.StatusCode, raw
}

// TestCompilePaperByteIdentical: the acceptance criterion — POST
// /v1/compile of the Figure 2 workload returns listings byte-identical to
// pipeline.Compile run in-process, for every pipeline method.
func TestCompilePaperByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	f := workload.PaperExample(true)
	m := machine.VLIW(4, 8) // the server's default machine

	for _, method := range pipeline.Methods {
		var got CompileResponse
		code, raw := postJSON(t, ts.URL+"/v1/compile",
			CompileRequest{Method: method.String()}, &got)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", method, code, raw)
		}

		fp, st, err := pipeline.CompileFunc(f, m, method, pipeline.Options{})
		if err != nil {
			t.Fatalf("%s: in-process compile: %v", method, err)
		}
		if len(got.Blocks) != len(fp.Blocks) {
			t.Fatalf("%s: %d blocks over HTTP, %d in-process", method, len(got.Blocks), len(fp.Blocks))
		}
		for i := range fp.Blocks {
			if got.Blocks[i].Listing != fp.Blocks[i].String() {
				t.Errorf("%s: block %d listing differs over HTTP:\n--- http\n%s--- in-process\n%s",
					method, i, got.Blocks[i].Listing, fp.Blocks[i].String())
			}
		}
		if got.Stats.Words != st.Words || got.Stats.SpillOps != st.SpillOps {
			t.Errorf("%s: stats differ: http %+v vs in-process words=%d spills=%d",
				method, got.Stats, st.Words, st.SpillOps)
		}
		if got.Machine != m.Name || got.Method != method.String() {
			t.Errorf("%s: labels: %q on %q", method, got.Method, got.Machine)
		}
	}
}

// TestCompileRunVerifies: run:true executes on the simulator, verifies
// against the interpreter, and reports the paper example's memory effect.
func TestCompileRunVerifies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var got CompileResponse
	code, raw := postJSON(t, ts.URL+"/v1/compile", CompileRequest{Run: true}, &got)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if !got.Stats.Verified {
		t.Error("run was not verified")
	}
	if got.Run == nil || got.Run.Cycles == 0 {
		t.Fatalf("missing run stats: %+v", got.Run)
	}
	if len(got.Run.Mem) == 0 {
		t.Error("run reported no memory cells")
	}
}

// TestCompileRunListsUserSpillPrefix: a user symbol that merely starts with
// "spill" is program memory, not a compiler spill slot, so run.mem lists
// it next to every other cell.
func TestCompileRunListsUserSpillPrefix(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var got CompileResponse
	code, raw := postJSON(t, ts.URL+"/v1/compile", CompileRequest{
		Source: "spillover[0] = a[0] + 1;\nout[0] = a[0] + 2;\n",
		Lang:   "kernel",
		Run:    true,
	}, &got)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if got.Run == nil {
		t.Fatal("missing run body")
	}
	want := []MemCell{{Sym: "out", Off: 0, Value: 2}, {Sym: "spillover", Off: 0, Value: 1}}
	if !reflect.DeepEqual(got.Run.Mem, want) {
		t.Errorf("run.mem = %+v, want %+v", got.Run.Mem, want)
	}
}

// TestCompileKernelSource: the kernel-language front end is reachable over
// HTTP with unrolling, running against a seeded init state.
func TestCompileKernelSource(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	k := workload.KernelByName("dot")
	if k == nil {
		t.Fatal("kernel dot not found")
	}
	var got CompileResponse
	code, raw := postJSON(t, ts.URL+"/v1/compile", CompileRequest{
		Source:  k.Source,
		Lang:    "kernel",
		Unroll:  2,
		Machine: MachineSpec{Preset: "vliw4x8"},
	}, &got)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if len(got.Blocks) == 0 || got.Stats.Words == 0 {
		t.Errorf("empty compile result: %+v", got.Stats)
	}
}

// TestBatchDeterminism: a mixed batch returns byte-identical results at
// every worker count.
func TestBatchDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	k := workload.KernelByName("saxpy")
	req := BatchRequest{Jobs: []CompileRequest{
		{Name: "paper-ursa", Method: "ursa", Machine: MachineSpec{Preset: "paper2x3"}},
		{Name: "paper-prepass", Method: "prepass", Machine: MachineSpec{Preset: "paper2x3"}},
		{Name: "paper-postpass", Method: "postpass"},
		{Name: "saxpy", Source: k.Source, Lang: "kernel", Unroll: 2, Machine: MachineSpec{Width: 4, Regs: 8}},
		{Name: "bad", Method: "no-such-method"},
		{Name: "run-job", Run: true},
		{Name: "loop-job", Source: loopTestSrc, Lang: "kernel", Loop: true, Machine: MachineSpec{Width: 4, Regs: 12}},
	}}

	var ref []byte
	for _, workers := range []int{1, 2, 8} {
		req.Workers = workers
		var got BatchResponse
		code, raw := postJSON(t, ts.URL+"/v1/batch", req, &got)
		if code != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, code, raw)
		}
		if got.Errors != 1 {
			t.Fatalf("workers=%d: %d errors, want 1 (the bad job; the jobs after it still run)", workers, got.Errors)
		}
		// Results must be identical across worker counts; timing and cache
		// deltas legitimately vary, so compare the results array only.
		res, err := json.Marshal(got.Results)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
		} else if !bytes.Equal(ref, res) {
			t.Errorf("workers=%d: results differ from workers=1:\n%s\nvs\n%s", workers, res, ref)
		}
	}
}

// TestBatchJobMatchesCompile: a batch job returns exactly what POST
// /v1/compile returns for the same request, apart from the per-request
// envelope (elapsed time and cache activity): listings, stats, loop
// reports, the run body and the gap report.
func TestBatchJobMatchesCompile(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loop := CompileRequest{Source: loopTestSrc, Lang: "kernel", Loop: true,
		Machine: MachineSpec{Width: 4, Regs: 12}, Init: loopTestInit()}
	loopRun := loop
	loopRun.Run = true
	reqs := []CompileRequest{
		loop,
		{Run: true},
		loopRun,
		{Run: true, InOrder: true, Machine: MachineSpec{Preset: "paper2x3"}},
		{Gap: true, Machine: MachineSpec{Preset: "paper2x3"}},
	}
	var batch BatchResponse
	if code, raw := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Jobs: reqs}, &batch); code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, raw)
	}
	// view keeps everything but the envelope.
	view := func(r *CompileResponse) string {
		b, err := json.Marshal([]any{r.Name, r.Method, r.Machine, r.Blocks, r.Stats, r.Loops, r.Run, r.Gap})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for i, req := range reqs {
		var one CompileResponse
		if code, raw := postJSON(t, ts.URL+"/v1/compile", req, &one); code != http.StatusOK {
			t.Fatalf("job %d: compile: status %d: %s", i, code, raw)
		}
		got := batch.Results[i]
		if got.Error != "" {
			t.Fatalf("job %d: batch error %s", i, got.Error)
		}
		if a, b := view(got.CompileResponse), view(&one); a != b {
			t.Errorf("job %d: batch result differs from /v1/compile:\n%s\nvs\n%s", i, a, b)
		}
	}
}

// TestBatchCancelledCompilesNothing: a batch whose context is already
// done returns the context's error (504 at the handler) without
// compiling any job.
func TestBatchCancelledCompilesNothing(t *testing.T) {
	s := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.runBatch(ctx, &BatchRequest{Jobs: []CompileRequest{{}, {Run: true}, {Method: "prepass"}}, Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runBatch err = %v, want context.Canceled", err)
	}
	if code := errorStatus(err); code != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504", code)
	}
	if hits, misses := s.cache.Stats(); hits+misses != 0 {
		t.Errorf("cancelled batch measured %d blocks", hits+misses)
	}
}

// TestShedWith429: with a full admission queue the server sheds load with
// 429 + Retry-After, and /metrics reports the shed and nonzero cache
// counters — the saturation half of the acceptance criterion.
func TestShedWith429(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	s.testHook = func() {
		entered <- struct{}{}
		<-release
	}

	// Request 1 occupies the single compile slot.
	done := make(chan int, 2)
	go func() {
		code, _ := postJSON(t, ts.URL+"/v1/compile", CompileRequest{}, nil)
		done <- code
	}()
	<-entered

	// Request 2 fills the queue (depth 1).
	go func() {
		code, _ := postJSON(t, ts.URL+"/v1/compile", CompileRequest{}, nil)
		done <- code
	}()
	waitFor(t, func() bool { return s.queued.Load() == 1 })

	// Request 3 must shed: queue is full.
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}

	// Drain: both queued requests complete successfully.
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Errorf("queued request finished with %d", code)
		}
	}

	// Warm the cache so the hit counter is nonzero, then scrape.
	postJSON(t, ts.URL+"/v1/compile", CompileRequest{}, nil)
	_, raw = getJSON(t, ts.URL+"/metrics", nil)
	text := string(raw)
	for _, want := range []string{"ursad_shed_total 1", "ursad_requests_total", "ursad_request_seconds_count"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "ursad_cache_hits_total 0\n") {
		t.Errorf("/metrics cache hits still zero after a repeated compile:\n%s", text)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGracefulDrain: cancelling Serve's context finishes the in-flight
// request (200) before Serve returns cleanly.
func TestGracefulDrain(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	s := New(Config{MaxConcurrent: 1, DrainTimeout: 10 * time.Second})
	s.testHook = func() {
		close(entered)
		<-release
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	done := make(chan int, 1)
	go func() {
		code, _ := postJSON(t, url+"/v1/compile", CompileRequest{}, nil)
		done <- code
	}()
	<-entered

	cancel() // SIGTERM equivalent: stop accepting, drain in-flight
	time.Sleep(20 * time.Millisecond)
	close(release)

	if code := <-done; code != http.StatusOK {
		t.Errorf("in-flight request finished with %d during drain, want 200", code)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	if !s.draining.Load() {
		t.Error("server not marked draining")
	}
}

// TestConcurrentClients hammers every endpoint from concurrent clients —
// meaningful mainly under -race, where it checks the serving path, the
// shared cache, and the metrics registry together.
func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 4, QueueDepth: 256})
	k := workload.KernelByName("fir8")
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				switch c % 4 {
				case 0:
					code, raw := postJSON(t, ts.URL+"/v1/compile",
						CompileRequest{Method: pipeline.Methods[i%len(pipeline.Methods)].String()}, nil)
					if code != http.StatusOK {
						errc <- fmt.Errorf("compile: %d: %s", code, raw)
					}
				case 1:
					code, raw := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Jobs: []CompileRequest{
						{Method: "ursa"}, {Source: k.Source, Lang: "kernel"},
					}}, nil)
					if code != http.StatusOK {
						errc <- fmt.Errorf("batch: %d: %s", code, raw)
					}
				case 2:
					if code, raw := getJSON(t, ts.URL+"/metrics", nil); code != http.StatusOK {
						errc <- fmt.Errorf("metrics: %d: %s", code, raw)
					}
				case 3:
					if code, raw := getJSON(t, ts.URL+"/v1/machines", nil); code != http.StatusOK {
						errc <- fmt.Errorf("machines: %d: %s", code, raw)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestCacheDeltaAndSharedCache: a repeated identical compile reports cache
// hits in its per-request delta, and the process-wide counters grow
// monotonically.
func TestCacheDeltaAndSharedCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var first, second CompileResponse
	postJSON(t, ts.URL+"/v1/compile", CompileRequest{}, &first)
	postJSON(t, ts.URL+"/v1/compile", CompileRequest{}, &second)
	if first.Cache.Misses == 0 {
		t.Errorf("first compile reported no cache misses: %+v", first.Cache)
	}
	if second.Cache.Hits == 0 {
		t.Errorf("second identical compile reported no cache hits: %+v", second.Cache)
	}
	if n, b := s.Cache().Entries(); n == 0 || b == 0 {
		t.Errorf("shared cache empty after compiles: entries=%d bytes=%d", n, b)
	}
}

// TestMachinesAndHealth: the discovery endpoints.
func TestMachinesAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var ms []MachineJSON
	code, _ := getJSON(t, ts.URL+"/v1/machines", &ms)
	if code != http.StatusOK || len(ms) != len(target.Presets()) {
		t.Fatalf("machines: code=%d n=%d want %d", code, len(ms), len(target.Presets()))
	}
	if ms[0].Name != "paper2x3" || !ms[0].Homogeneous || ms[0].Units != 2 || ms[0].IntRegs != 3 {
		t.Errorf("paper2x3 rendered wrong: %+v", ms[0])
	}
	byName := map[string]MachineJSON{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	if m := byName["clus2x2x4"]; m.Family != string(target.FamilyClustered) || m.Clusters != 2 || m.Units != 5 {
		t.Errorf("clus2x2x4 rendered wrong: %+v", m) // 2×2 ALUs + 1 xfer bus
	}
	if m := byName["edp2x6b1"]; m.Family != string(target.FamilyEDP) || m.BufferDepth != 1 {
		t.Errorf("edp2x6b1 rendered wrong: %+v", m)
	}
	if m := byName["suprax12"]; m.Family != string(target.FamilySuperscalar) || m.IssueWidth != 12 {
		t.Errorf("suprax12 rendered wrong: %+v", m)
	}
	var h HealthJSON
	code, _ = getJSON(t, ts.URL+"/healthz", &h)
	if code != http.StatusOK || h.Status != "ok" || h.Draining {
		t.Errorf("healthz: code=%d %+v", code, h)
	}
}

// TestBadRequests: malformed inputs map to 4xx, not 500.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", "{", http.StatusBadRequest},
		{"unknown field", `{"sourcee": "x"}`, http.StatusBadRequest},
		{"bad method", `{"method": "llvm"}`, http.StatusBadRequest},
		{"bad lang", `{"lang": "cobol"}`, http.StatusBadRequest},
		{"bad preset", `{"machine": {"preset": "cray"}}`, http.StatusBadRequest},
		{"bad latency", `{"machine": {"latency": "quantum"}}`, http.StatusBadRequest},
		{"bad source", `{"source": "this is not ir"}`, http.StatusBadRequest},
		{"too big", `{"source": "` + strings.Repeat("x", 600) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.want, raw)
		}
	}
	// Wrong HTTP method.
	if code, _ := getJSON(t, ts.URL+"/v1/compile", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/compile: %d, want 405", code)
	}
}

// TestCompileUnfitMachine: a program that cannot compile (too few
// registers for a live value set even after spilling heuristics give up)
// reports 422, counts a compile error, and leaves the server serving.
func TestCompileUnfitMachine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Width 1, 1 register: the paper example needs at least 2 live values.
	code, raw := postJSON(t, ts.URL+"/v1/compile",
		CompileRequest{Machine: MachineSpec{Width: 1, Regs: 1}}, nil)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", code, raw)
	}
	// Server still healthy.
	if c, _ := getJSON(t, ts.URL+"/healthz", nil); c != http.StatusOK {
		t.Errorf("healthz after compile error: %d", c)
	}
}

// TestPprofGated: the profiling endpoints exist only when Config opts in,
// and compiling bumps the process-wide candidate-evaluation counter on
// /metrics.
func TestPprofGated(t *testing.T) {
	_, off := newTestServer(t, Config{})
	if code, _ := getJSON(t, off.URL+"/debug/pprof/", nil); code != http.StatusNotFound {
		t.Errorf("pprof disabled: GET /debug/pprof/ = %d, want 404", code)
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	if code, _ := getJSON(t, on.URL+"/debug/pprof/", nil); code != http.StatusOK {
		t.Errorf("pprof enabled: GET /debug/pprof/ = %d, want 200", code)
	}
	if code, _ := getJSON(t, on.URL+"/debug/pprof/symbol", nil); code != http.StatusOK {
		t.Errorf("pprof enabled: GET /debug/pprof/symbol = %d, want 200", code)
	}

	// The paper machine is tight enough to force reduction candidates; the
	// default preset fits Figure 2 untransformed and would evaluate none.
	req := CompileRequest{Machine: MachineSpec{Preset: "paper2x3"}}
	if code, raw := postJSON(t, on.URL+"/v1/compile", req, nil); code != http.StatusOK {
		t.Fatalf("compile: %d: %s", code, raw)
	}
	_, raw := getJSON(t, on.URL+"/metrics", nil)
	var sample string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "ursa_candidate_evals_total") {
			sample = line
			break
		}
	}
	if sample == "" {
		t.Fatalf("/metrics missing an ursa_candidate_evals_total sample:\n%s", raw)
	}
	if strings.HasSuffix(sample, " 0") {
		t.Errorf("candidate evals still zero after a pressured compile: %q", sample)
	}
}
