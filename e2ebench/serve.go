package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ursa/internal/cluster"
	"ursa/internal/frontend"
	"ursa/internal/ir"
	"ursa/internal/modsched"
	"ursa/internal/pipeline"
	"ursa/internal/server"
	"ursa/internal/store"
	"ursa/internal/target"
	"ursa/internal/workload"
)

// serve-gateway is an open loop: requests are due at a fixed rate whatever
// the system's state, and each request's latency counts from when it was
// due. One process sends them over at most serveConns connections to an
// in-process ursagw router in front of two ursad shards, each with a
// memory plus disk artifact cache, all on loopback. Before measuring, a
// closed-loop fill requests every distinct job of the stream once: the
// cold compiles write the artifacts, and the measured stream reads them.
const (
	serveRate  = 50.0 // requests per second
	serveLimit = 100 * time.Millisecond
	serveConns = 2
	// shardMemBudget keeps each shard's memory tier below the working set,
	// so a steady share of hits is served from disk.
	shardMemBudget  = 64 << 10
	shardDiskBudget = 64 << 20
	// Every runEvery-th request (at offset 7) executes its code, which
	// bypasses the cache; every loopEvery-th (at offset 13) is
	// software-pipelined. The two offsets never coincide.
	runEvery  = 10
	loopEvery = 20
	// zipfS is the popularity skew of cacheable requests.
	zipfS = 1.3
	// While the stream runs, a sampler takes a host-speed sample every
	// sampleEvery; the latencies are scaled by their median.
	sampleEvery = 100 * time.Millisecond
)

// runList names the run:true requests (kernel, unroll, preset), compiled
// with URSA. Each compiles in 5–15 ms on a 2-CPU machine. Run requests
// are a tenth of the stream, so the 90th latency percentile lies inside
// this one class of similar requests; at a few percent it sat on the edge
// of the cache hits' tail and swung with the machine's load. The
// code-quality figures are summed over this fixed list, which every run
// covers, so they do not depend on the seed.
var runList = []struct {
	kernel string
	unroll int
	preset string
}{
	{"dot", 2, "vliw2x4"}, {"hydro", 1, "hetero-small"}, {"hydro", 1, "paper2x3"},
	{"matmul4", 1, "paper2x3"}, {"matmul4", 1, "hetero-big"}, {"stencil3", 2, "vliw4x8"},
	{"stencil3", 1, "paper2x3"}, {"cmul", 1, "hetero-big"}, {"horner", 2, "hetero-big"},
	{"transpose4", 2, "vliw2x4"},
}

// loopList names the loop:true requests at unroll 1, entry i compiled
// with the i%4-th heuristic method: kernel and preset pairs modsched
// pipelines in 27–32 ms on a 2-CPU machine. modsched runs on every loop
// request, cached or not, so these requests are the slowest twentieth of
// the stream and hold the 99th percentile. Their costs are alike, so the
// percentile lies inside one dense group of 70 requests instead of on the
// gap between the slowest two entries of a wider list, where it swung
// with the order the seed drew. Seven entries make ten whole rounds at 28 s.
// (Several kernels have no feasible initiation interval on the small
// machines, others take seconds.)
var loopList = [][2]string{
	{"dot", "paper2x3"}, {"dot", "vliw2x4"}, {"dot", "hetero-small"},
	{"stencil3", "vliw2x4"}, {"tridiag", "vliw8x12"}, {"transpose4", "vliw2x4"},
	{"prefix", "vliw4x8"},
}

func runJobs() ([]*job, error) {
	var jobs []*job
	for _, r := range runList {
		k := workload.KernelByName(r.kernel)
		unit, err := frontend.Compile(k.Source, frontend.Options{Unroll: r.unroll})
		if err != nil {
			return nil, err
		}
		m := *target.ByName(r.preset).Config
		jobs = append(jobs, &job{kernel: k, unroll: r.unroll, preset: r.preset, m: &m, f: unit.Func})
	}
	return jobs, nil
}

type request struct {
	kind   string // "cache", "run" or "loop"
	job    string
	kernel *workload.Kernel
	unroll int
	preset string
	method pipeline.Method
	body   []byte
	due    time.Duration

	// Set by the load generator.
	dispatch, sent, done time.Time
	status               int
	resp                 []byte
	err                  error
}

// drawRequests generates the measured stream. Cacheable requests are a
// Zipf-popular draw over kernel × unroll {1,2} × classic preset × the four
// heuristic methods; which keys are popular is fixed, and the seed draws
// the sequence. Run and loop requests go through their lists in rounds,
// each round in a seeded order, so a run of whole rounds holds the same
// run and loop requests for every seed.
func drawRequests(seed int64, n int, runs []*job) ([]*request, error) {
	kernels := workload.Kernels()
	type key struct{ k, u, p, m int }
	var keys []key
	for k := range kernels {
		for u := 1; u <= 2; u++ {
			for p := range classicPresets {
				for m := range pipeline.Methods {
					keys = append(keys, key{k, u, p, m})
				}
			}
		}
	}
	popular := rand.New(rand.NewSource(0)).Perm(len(keys))
	r := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(r, zipfS, 1, uint64(len(keys)-1))
	var runOrder, loopOrder []int
	for len(runOrder) < n/runEvery+1 {
		runOrder = append(runOrder, r.Perm(len(runs))...)
	}
	for len(loopOrder) < n/loopEvery+1 {
		loopOrder = append(loopOrder, r.Perm(len(loopList))...)
	}

	reqs := make([]*request, n)
	for i := range reqs {
		rq := &request{due: time.Duration(float64(i) / serveRate * float64(time.Second))}
		cr := server.CompileRequest{Lang: "kernel"}
		switch {
		case i%runEvery == 7:
			j := runs[runOrder[i/runEvery]]
			rq.kind, rq.kernel, rq.unroll, rq.preset, rq.method = "run", j.kernel, j.unroll, j.preset, pipeline.URSA
			cr.Run, cr.Init = true, initSpec(j.kernel.State(0))
		case i%loopEvery == 13:
			l := loopOrder[i/loopEvery]
			rq.kind, rq.kernel, rq.unroll, rq.preset = "loop", workload.KernelByName(loopList[l][0]), 1, loopList[l][1]
			rq.method = pipeline.Methods[l%len(pipeline.Methods)]
			cr.Loop = true
		default:
			k := keys[popular[zipf.Uint64()]]
			rq.kind, rq.kernel, rq.unroll = "cache", kernels[k.k], k.u
			rq.preset, rq.method = classicPresets[k.p], pipeline.Methods[k.m]
		}
		rq.job = fmt.Sprintf("%s %s/u%d/%s/%s", rq.kind, rq.kernel.Name, rq.unroll, rq.preset, rq.method)
		cr.Source, cr.Unroll, cr.Machine.Preset, cr.Method = rq.kernel.Source, rq.unroll, rq.preset, rq.method.String()
		body, err := json.Marshal(&cr)
		if err != nil {
			return nil, err
		}
		rq.body = body
		reqs[i] = rq
	}
	return reqs, nil
}

// fillRequests lists every distinct job of the stream once, in order of
// first appearance.
func fillRequests(reqs []*request) []*request {
	seen := map[string]bool{}
	var fill []*request
	for _, rq := range reqs {
		if !seen[rq.job] {
			seen[rq.job] = true
			fill = append(fill, &request{kind: rq.kind, job: rq.job, kernel: rq.kernel, unroll: rq.unroll,
				preset: rq.preset, method: rq.method, body: rq.body})
		}
	}
	return fill
}

// initSpec carries a state's memory to the daemon as raw words (every
// kernel array is dense from offset 0).
func initSpec(st *ir.State) *server.InitSpec {
	ints := map[string][]int64{}
	for a, w := range st.Mem {
		cells := ints[a.Sym]
		for int64(len(cells)) <= a.Off {
			cells = append(cells, 0)
		}
		cells[a.Off] = int64(w)
		ints[a.Sym] = cells
	}
	return &server.InitSpec{Ints: ints}
}

// stateOf is the state the daemon builds from an InitSpec.
func stateOf(spec *server.InitSpec) *ir.State {
	st := ir.NewState()
	for sym, cells := range spec.Ints {
		for off, v := range cells {
			st.StoreInt(sym, int64(off), v)
		}
	}
	return st
}

// gateway is an in-process ursagw router over two ursad shards.
type gateway struct {
	dir    string
	shards []string
	url    string
	router *cluster.Router
	front  *http.Server
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// startGateway starts both shards and the router and returns once every
// one of them answers its health check.
func startGateway() (*gateway, error) {
	dir, err := os.MkdirTemp(scratchDir, "serve-")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	gw := &gateway{dir: dir, cancel: cancel}
	if err := gw.start(ctx); err != nil {
		gw.stop()
		return nil, err
	}
	return gw, nil
}

func (gw *gateway) start(ctx context.Context) error {
	for i := 0; i < 2; i++ {
		disk, err := store.Open(filepath.Join(gw.dir, fmt.Sprintf("shard%d", i)), shardDiskBudget)
		if err != nil {
			return err
		}
		srv := server.New(server.Config{Artifacts: store.NewTiered(shardMemBudget, disk, nil)})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		gw.shards = append(gw.shards, "http://"+ln.Addr().String())
		gw.wg.Add(1)
		go func() {
			defer gw.wg.Done()
			_ = srv.Serve(ctx, ln) // returns once ctx is cancelled and the shard drained
		}()
	}
	var err error
	if gw.router, err = cluster.New(cluster.Config{Backends: gw.shards}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	gw.url = "http://" + ln.Addr().String()
	gw.front = &http.Server{Handler: gw.router.Handler(), ReadHeaderTimeout: 10 * time.Second}
	gw.wg.Add(1)
	go func() {
		defer gw.wg.Done()
		_ = gw.front.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	for _, s := range gw.shards {
		if err := getJSON(s+"/healthz", &server.HealthJSON{}); err != nil {
			return err
		}
	}
	return getJSON(gw.url+"/healthz", &cluster.RouterHealth{})
}

// stop shuts the router and both shards down, waits for them, and removes
// the shards' disk caches.
func (gw *gateway) stop() {
	if gw.front != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = gw.front.Shutdown(ctx)
		cancel()
	}
	if gw.router != nil {
		gw.router.Close()
	}
	gw.cancel()
	gw.wg.Wait()
	_ = os.RemoveAll(gw.dir)
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads the router's /metrics, summing each series over its labels.
func (gw *gateway) scrape() (map[string]float64, error) {
	resp, err := http.Get(gw.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// drive sends every request at its due time and waits for all responses.
// The generator only dispatches; serveConns senders, one per connection,
// take requests in due order, so a slow response delays the requests
// behind it and that wait counts in their latency.
func drive(url string, reqs []*request) time.Time {
	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: time.Minute}
	queue := make(chan *request, len(reqs)) // sized to the number of sends: dispatch never blocks
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rq := range queue {
				rq.sent = time.Now()
				resp, err := client.Post(url+"/v1/compile", "application/json", bytes.NewReader(rq.body))
				if err == nil {
					rq.status = resp.StatusCode
					rq.resp, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				rq.err = err
				rq.done = time.Now()
			}
		}()
	}
	start := time.Now()
	for _, rq := range reqs {
		if d := time.Until(start.Add(rq.due)); d > 0 {
			time.Sleep(d)
		}
		rq.dispatch = time.Now()
		queue <- rq
	}
	close(queue)
	wg.Wait()
	return start
}

func serveGateway(e *env) (*outcome, error) {
	e.OfferedRate = serveRate
	e.LatencyLimit = ms(serveLimit)
	runs, err := runJobs()
	if err != nil {
		return nil, err
	}
	n := int(serveRate * float64(e.Seconds))
	var reqs []*request
	gw, setupS, err := medianSetup(setupRepeats, func() (*gateway, error) {
		var err error
		if reqs, err = drawRequests(e.Seed, n, runs); err != nil {
			return nil, err
		}
		return startGateway()
	}, (*gateway).stop)
	if err != nil {
		return nil, err
	}
	defer gw.stop()

	// The fill is due all at once: the two senders work through it as a
	// closed loop.
	fill := fillRequests(reqs)
	drive(gw.url, fill)
	all := append(fill, reqs...)
	before, err := gw.scrape()
	if err != nil {
		return nil, err
	}
	alloc0 := totalAllocMB()
	smp := startSampler(sampleEvery)
	start := drive(gw.url, reqs)
	scale := smp.halt()
	allocMB := totalAllocMB() - alloc0
	after, err := gw.scrape()
	if err != nil {
		return nil, err
	}
	var entries, diskBytes float64
	for _, s := range gw.shards {
		var h server.HealthJSON
		if err := getJSON(s+"/healthz", &h); err != nil {
			return nil, err
		}
		if h.ArtifactCache != nil && h.ArtifactCache.Disk != nil {
			entries += float64(h.ArtifactCache.Disk.Entries)
			diskBytes += float64(h.ArtifactCache.Disk.Bytes)
		}
	}
	artifactKB := ratio(diskBytes, entries) / 1024

	// Everything below is outside the timed region.
	var lat, rawLat, late, rtt, elapsed []float64
	var ok, good, shed int
	var last time.Time
	var bad []string
	tiers := map[string]int{}
	resps := make([]*server.CompileResponse, len(all))
	for i, rq := range all {
		if i < len(fill) {
			// Fill requests are checked but not measured.
			var cr server.CompileResponse
			if rq.err != nil || rq.status/100 != 2 || json.Unmarshal(rq.resp, &cr) != nil {
				bad = append(bad, fmt.Sprintf("fill request %s: status %d: %v %.200s", rq.job, rq.status, rq.err, rq.resp))
				continue
			}
			resps[i] = &cr
			continue
		}
		due := start.Add(rq.due)
		l := ms(rq.done.Sub(due))
		rawLat = append(rawLat, l)
		l *= scale
		lat = append(lat, l)
		late = append(late, ms(rq.dispatch.Sub(due)))
		if rq.done.After(last) {
			last = rq.done
		}
		if rq.status == http.StatusTooManyRequests {
			shed++
		}
		if rq.err != nil || rq.status/100 != 2 {
			bad = append(bad, fmt.Sprintf("request %d %s: status %d: %v %.200s", i, rq.job, rq.status, rq.err, rq.resp))
			continue
		}
		var cr server.CompileResponse
		if err := json.Unmarshal(rq.resp, &cr); err != nil {
			bad = append(bad, fmt.Sprintf("request %d %s: %v", i, rq.job, err))
			continue
		}
		resps[i] = &cr
		ok++
		if l <= ms(serveLimit) {
			good++
		}
		rtt = append(rtt, ms(rq.done.Sub(rq.sent)))
		elapsed = append(elapsed, cr.ElapsedMS)
		tiers[cr.Cache.Result]++
	}
	code, cbad := checkResponses(all, resps)
	bad = append(bad, cbad...)
	wall := last.Sub(start).Seconds()

	met := metrics{}
	met.set("setup_s", setupS, "s")
	met.set("jobs_per_s", float64(ok)/wall, "1/s")
	met.set("goodput_rps", float64(good)/wall, "1/s")
	met.set("latency_p50_ms", quantile(lat, 0.50), "ms")
	met.set("latency_p90_ms", quantile(lat, 0.90), "ms")
	met.set("latency_p99_ms", quantile(lat, 0.99), "ms")
	met.set("code_cycles", code[0], "cycles")
	met.set("code_words", code[1], "words")
	met.set("spill_ops", code[2], "ops")
	met.set("alloc_mb_per_job", allocMB/float64(len(reqs)), "MB")

	delta := func(name string) float64 { return after[name] - before[name] }
	backendMS := 1000 * ratio(delta("ursagw_backend_seconds_sum"), delta("ursagw_backend_seconds_count"))
	served := float64(ok)
	details := map[string]any{
		"requests":       len(reqs),
		"fill_requests":  len(fill),
		"ok":             ok,
		"tiers":          tiers,
		"server_elapsed": mean(elapsed),
		"late_ms":        map[string]float64{"p50": quantile(late, 0.5), "p90": quantile(late, 0.9), "p99": quantile(late, 0.99), "max": quantile(late, 1)},
		"backend_ms":     backendMS,
		"artifact_kb":    artifactKB,
		"unscaled": map[string]any{
			"latency_p50_ms": quantile(rawLat, 0.50),
			"latency_p90_ms": quantile(rawLat, 0.90),
			"latency_p99_ms": quantile(rawLat, 0.99),
			"ref_ms":         map[string]float64{"p10": quantile(smp.ref, 0.1), "p50": quantile(smp.ref, 0.5), "p90": quantile(smp.ref, 0.9)},
		},
		"errors": bad,
	}
	out := &outcome{attempted: len(all), failed: len(bad), metrics: met, code: code, details: details}
	if !e.Trace {
		return out, nil
	}

	lm := layerMetrics()
	lm.put("store.mem_hit_ratio", ratio(float64(tiers["memory"]), served))
	lm.put("store.disk_hit_ratio", ratio(float64(tiers["disk"]), served))
	lm.put("store.compiled_ratio", ratio(float64(tiers["compiled"]), served))
	lm.put("store.artifact_kb", artifactKB)
	lm.put("server.elapsed_ms", mean(elapsed))
	lm.put("server.overhead_ms", mean(rtt)-mean(elapsed))
	lm.put("server.shed_ratio", float64(shed)/float64(len(reqs)))
	lm.put("cluster.backend_ms", backendMS)
	lm.put("cluster.hop_ms", mean(rtt)-backendMS)
	lm.put("cluster.hedges", delta("ursagw_hedges_total"))
	lm.put("cluster.coalesced", delta("ursagw_coalesced_total"))
	lm.put("cluster.spillovers", delta("ursagw_spillovers_total"))
	lm.put("loadgen.late_p99_ms", quantile(late, 0.99))

	// The client side of each request as spans, from the timestamps the
	// load generator took: due to sent is waiting in the generator and for
	// a connection, sent to done is the round trip through the router.
	rt := newTracer()
	rt.t0 = start
	for _, rq := range reqs {
		id := rt.add("request", 0, start.Add(rq.due), rq.done, rq.job)
		rt.add("loadgen", id, start.Add(rq.due), rq.sent, "")
		rt.add("cluster", id, rq.sent, rq.done, "")
	}
	// The router and the shard each parse every request and derive its
	// cache key; replay those calls, and modsched on every loop request.
	var parse, key, pipe []float64
	for _, rq := range reqs {
		t0 := time.Now()
		unit, err := frontend.Compile(rq.kernel.Source, frontend.Options{Unroll: rq.unroll})
		t1 := time.Now()
		rt.add("frontend", 0, t0, t1, rq.job)
		parse = append(parse, ms(t1.Sub(t0)))
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", rq.job, err))
			continue
		}
		m := target.ByName(rq.preset).Config
		if rq.kind == "loop" {
			pipeline.LoopCacheKey(unit.Func, m, rq.method, pipeline.Options{})
		} else {
			pipeline.CacheKey(unit.Func, m, rq.method, pipeline.Options{})
		}
		t2 := time.Now()
		rt.add("pipeline", 0, t1, t2, rq.job)
		key = append(key, ms(t2.Sub(t1)))
		if rq.kind == "loop" {
			if _, err := modsched.Pipeline(unit.Func, m, modsched.Options{}); err != nil {
				bad = append(bad, fmt.Sprintf("%s: modsched: %v", rq.job, err))
			}
			t3 := time.Now()
			rt.add("modsched", 0, t2, t3, rq.job)
			pipe = append(pipe, ms(t3.Sub(t2)))
		}
	}
	// The run requests' compiles, layer by layer; they are small, so the
	// list is replayed several times to steady the overhead figure.
	tr := newTracer()
	rp := &replay{}
	for i := 0; i < 5; i++ {
		_, rbad := replayJobs(tr, rp, runs)
		bad = append(bad, rbad...)
	}
	tr.selfTimes()
	rt.selfTimes()
	summary := rp.fill(tr, lm)
	lm.put("frontend.parse_ms", mean(parse))
	lm.put("pipeline.cachekey_ms", mean(key))
	lm.put("modsched.pipeline_ms", mean(pipe))
	for k, v := range summary {
		details[k] = v
	}
	details["errors"] = bad
	if details["spans_jobs"], err = tr.write(e, "jobs", summary); err != nil {
		return nil, err
	}
	if details["spans_requests"], err = rt.write(e, "requests", nil); err != nil {
		return nil, err
	}
	out.metrics, out.failed = lm, len(bad)
	return out, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// checkResponses checks the successful responses. Every response for one
// cache key must carry the listing of that key's cold compile, byte for
// byte. A run response's memory must equal the interpreter's on the same
// input, and repeats of one run job must agree. It returns the
// code-quality triple summed over the distinct run jobs — simulated
// cycles, words and dynamic spill operations — and one message per
// failed check.
func checkResponses(reqs []*request, resps []*server.CompileResponse) ([3]float64, []string) {
	var bad []string
	cold := map[string]string{}
	for _, cr := range resps {
		if cr != nil && cr.Cache.Key != "" && cr.Cache.Result == "compiled" {
			if _, seen := cold[cr.Cache.Key]; !seen {
				cold[cr.Cache.Key] = responseListing(cr)
			}
		}
	}
	for i, cr := range resps {
		if cr == nil || cr.Cache.Key == "" {
			continue
		}
		want, seen := cold[cr.Cache.Key]
		if !seen {
			// No cold compile of this key in the run (it was answered
			// from a peer's cache); its responses must still agree.
			cold[cr.Cache.Key] = responseListing(cr)
			continue
		}
		if responseListing(cr) != want {
			bad = append(bad, fmt.Sprintf("request %d %s: %s listing differs from the cold compile of key %.12s", i, reqs[i].job, cr.Cache.Result, cr.Cache.Key))
		}
	}

	type runOut struct {
		listing               string
		cycles, words, spills int
	}
	runs := map[string]runOut{}
	for i, cr := range resps {
		rq := reqs[i]
		if cr == nil || rq.kind != "run" {
			continue
		}
		if cr.Run == nil {
			bad = append(bad, fmt.Sprintf("request %d %s: no run report", i, rq.job))
			continue
		}
		got := runOut{responseListing(cr), cr.Run.Cycles, cr.Stats.Words, cr.Run.SpillOps}
		if prev, seen := runs[rq.job]; seen {
			if prev != got {
				bad = append(bad, fmt.Sprintf("request %d %s: differs from an earlier run of the same job", i, rq.job))
			}
			continue
		}
		runs[rq.job] = got
		var spec server.CompileRequest
		if err := json.Unmarshal(rq.body, &spec); err != nil {
			bad = append(bad, err.Error())
			continue
		}
		unit, err := frontend.Compile(spec.Source, frontend.Options{Unroll: spec.Unroll})
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		ref := stateOf(spec.Init)
		if _, err := ref.Run(unit.Func, maxCycles*8); err != nil {
			bad = append(bad, fmt.Sprintf("%s: interpreter: %v", rq.job, err))
			continue
		}
		mem := map[ir.Addr]ir.Word{}
		for _, c := range cr.Run.Mem {
			mem[ir.Addr{Sym: c.Sym, Off: c.Off}] = ir.Word(c.Value)
		}
		if err := sameMemory(ref.Mem, mem); err != nil {
			bad = append(bad, fmt.Sprintf("request %d %s: %v", i, rq.job, err))
		}
	}
	var code [3]float64
	var names []string
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		code[0] += float64(runs[name].cycles)
		code[1] += float64(runs[name].words)
		code[2] += float64(runs[name].spills)
	}
	return code, bad
}

func responseListing(cr *server.CompileResponse) string {
	var sb strings.Builder
	for _, b := range cr.Blocks {
		fmt.Fprintf(&sb, "%s:\n%s", b.Label, b.Listing)
	}
	return sb.String()
}
