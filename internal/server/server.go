// Package server is ursad's serving layer: an HTTP/JSON front end over
// the compilation pipeline that turns the one-shot CLIs into a long-lived
// compile-as-a-service daemon.
//
// The server exists to amortize the allocator's combinatorial cost across
// requests: a process-wide measure.Cache is shared by every compile, so
// repeated workloads (the common case for a service fronting a test farm
// or a JIT tier) skip the O(N³) matching entirely. Around that sits the
// operational shell a service needs:
//
//   - Bounded admission: at most MaxConcurrent requests compile at once;
//     up to QueueDepth more wait; beyond that the server sheds load with
//     429 + Retry-After instead of growing latency or memory without
//     bound.
//   - Per-request limits: a body-size cap and a compile deadline, plumbed
//     as a context through the parallel driver so cancelled work stops
//     dispatching instead of burning workers.
//   - Failure isolation: a panic anywhere in a request is converted to a
//     driver.PanicError and a 500, never a process crash.
//   - Observability: every interesting internal — request latency, queue
//     depth, sheds, compile outcomes by pipeline method, cache hit rates
//     and size — is a Prometheus series on GET /metrics.
//
// Endpoints: POST /v1/compile, POST /v1/batch, GET /v1/machines,
// GET /healthz, GET /metrics. See docs/SERVER.md for the wire schema.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"ursa/internal/dag"
	"ursa/internal/driver"
	"ursa/internal/exact"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/measure"
	"ursa/internal/metrics"
	"ursa/internal/modsched"
	"ursa/internal/pipeline"
	"ursa/internal/store"
	"ursa/internal/target"
	"ursa/internal/workload"
)

// Config tunes the server. The zero value serves with sensible defaults.
type Config struct {
	// MaxConcurrent bounds simultaneously compiling requests. Zero means
	// GOMAXPROCS.
	MaxConcurrent int
	// QueueDepth bounds requests waiting for a compile slot beyond
	// MaxConcurrent; a request arriving past the bound is shed with 429.
	// Zero means 64.
	QueueDepth int
	// RequestTimeout bounds one request's compile time (queue wait
	// included). Zero means 60s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps a request body. Zero means 4 MiB.
	MaxBodyBytes int64
	// DrainTimeout bounds the graceful shutdown: how long Serve waits for
	// in-flight requests after its context is cancelled. Zero means 30s.
	DrainTimeout time.Duration
	// Cache is the measurement cache shared by every request. Nil means a
	// fresh process-wide cache.
	Cache *measure.Cache
	// Artifacts is the tiered compile-result cache (memory → disk → peer).
	// Nil disables artifact caching: every compile runs the allocator and
	// /v1/cache answers 404.
	Artifacts *store.TieredCache
	// Registry receives the server's metrics. Nil means a fresh registry
	// (exposed on GET /metrics either way).
	Registry *metrics.Registry
	// Logf, when non-nil, receives one line per shed, panic, and
	// lifecycle event.
	Logf func(format string, args ...any)
	// EnablePprof mounts net/http/pprof's profiling handlers under
	// /debug/pprof/. Off by default: the profile endpoints expose
	// internals (and Profile/Trace burn CPU), so they are opt-in via
	// the CLIs' -pprof flag rather than always-on.
	EnablePprof bool
}

// Server is the HTTP serving layer. Create with New; it is safe for
// concurrent use by any number of connections.
type Server struct {
	cfg       Config
	cache     *measure.Cache
	artifacts *store.TieredCache
	reg       *metrics.Registry
	mux       *http.ServeMux

	slots    chan struct{} // admission semaphore: one token per running compile
	queued   atomic.Int64
	inflight atomic.Int64
	draining atomic.Bool

	mRequests   *metrics.CounterVec
	mResponses  *metrics.CounterVec
	mLatency    *metrics.Histogram
	mShed       *metrics.Counter
	mPanics     *metrics.Counter
	mQueue      *metrics.Gauge
	mInflight   *metrics.Gauge
	mCompileOK  *metrics.CounterVec
	mCompileErr *metrics.CounterVec
	mServedBy   *metrics.CounterVec
	mGap        *metrics.HistogramVec
	mLoopII     *metrics.Histogram
	mLoopMII    *metrics.Histogram

	// testHook, when non-nil, runs inside every compile request while it
	// holds an admission slot — the package tests' lever for saturating
	// the queue and exercising graceful drain deterministically.
	testHook func()
}

// New returns a server with its routes and metrics registered.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 4 << 20
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	if cfg.Cache == nil {
		cfg.Cache = measure.NewCache()
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	s := &Server{
		cfg:       cfg,
		cache:     cfg.Cache,
		artifacts: cfg.Artifacts,
		reg:       cfg.Registry,
		slots:     make(chan struct{}, cfg.MaxConcurrent),
	}

	r := s.reg
	s.mRequests = r.CounterVec("ursad_requests_total", "requests received by endpoint", "endpoint")
	s.mResponses = r.CounterVec("ursad_responses_total", "responses sent by status code", "code")
	s.mLatency = r.Histogram("ursad_request_seconds", "request latency in seconds", nil)
	s.mShed = r.Counter("ursad_shed_total", "requests shed with 429 because the admission queue was full")
	s.mPanics = r.Counter("ursad_panics_total", "request panics recovered to 500")
	s.mQueue = r.Gauge("ursad_queue_depth", "requests waiting for a compile slot")
	s.mInflight = r.Gauge("ursad_inflight", "requests currently being served")
	s.mCompileOK = r.CounterVec("ursad_compile_total", "successful compiles by pipeline method", "method")
	s.mCompileErr = r.CounterVec("ursad_compile_errors_total", "failed compiles by pipeline method", "method")
	s.mServedBy = r.CounterVec("ursad_artifact_served_total", "compile responses by serving cache tier (or \"compiled\")", "tier")
	s.mGap = r.HistogramVec("ursa_heuristic_gap", "heuristic distance from the exact solver's proven optimum, by dimension (words, intregs, fpregs); observed on gap-enabled compiles", "dimension", metrics.GapBuckets)
	s.mLoopII = r.Histogram("ursa_loop_ii", "achieved initiation interval (steady-state cycles per iteration) of software-pipelined loops", metrics.IIBuckets)
	s.mLoopMII = r.Histogram("ursa_loop_mii", "minimum initiation interval lower bound max(resMII, recMII) of software-pipelined loops", metrics.IIBuckets)
	r.Func("ursad_cache_hits_total", "measurement cache hits", "counter", func() float64 {
		h, _ := s.cache.Stats()
		return float64(h)
	})
	r.Func("ursad_cache_misses_total", "measurement cache misses", "counter", func() float64 {
		_, m := s.cache.Stats()
		return float64(m)
	})
	r.Func("ursad_cache_entries", "measurement cache entries", "gauge", func() float64 {
		n, _ := s.cache.Entries()
		return float64(n)
	})
	r.Func("ursad_cache_bytes", "approximate bytes retained by the measurement cache", "gauge", func() float64 {
		_, b := s.cache.Entries()
		return float64(b)
	})
	r.Func("ursa_candidate_evals_total", "reduction candidates evaluated by the core loop", "counter", func() float64 {
		return float64(metrics.CandidateEvals())
	})
	r.Func("ursa_eval_busy_seconds_total", "cumulative wall time evaluator workers spent scoring candidates", "counter", func() float64 {
		return float64(metrics.EvalBusyNanos()) / 1e9
	})
	r.Func("ursa_eval_idle_seconds_total", "cumulative wall time evaluator workers spent idle inside a batch (fan-out imbalance)", "counter", func() float64 {
		return float64(metrics.EvalIdleNanos()) / 1e9
	})
	s.registerCacheMetrics()

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", s.instrument("compile", s.handleCompile))
	mux.HandleFunc("/v1/batch", s.instrument("batch", s.handleBatch))
	mux.HandleFunc("/v1/machines", s.instrument("machines", s.handleMachines))
	mux.HandleFunc("/v1/cache/", s.instrument("cache", s.handleCache))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", s.reg.Handler())
	if cfg.EnablePprof {
		// Explicit handlers, not the net/http/pprof init side effect:
		// importing the package registers on http.DefaultServeMux, which
		// this server never serves.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s
}

// Handler returns the server's routed handler — mountable into any
// http.Server or mux (ursad mounts it).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Cache returns the shared measurement cache.
func (s *Server) Cache() *measure.Cache { return s.cache }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ------------------------------------------------------------- lifecycle

// Serve serves on the listener until ctx is cancelled, then drains: it
// stops accepting connections, waits up to DrainTimeout for in-flight
// requests, and returns nil on a clean drain. During the drain /healthz
// reports 503 so load balancers stop routing here.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	s.logf("ursad: draining (%d in flight, %d queued)", s.inflight.Load(), s.queued.Load())
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("server: drain: %w", err)
	}
	s.logf("ursad: drained")
	return nil
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.logf("ursad: listening on %s", ln.Addr())
	return s.Serve(ctx, ln)
}

// ------------------------------------------------------------- admission

// errShed reports a request rejected by the full admission queue.
var errShed = errors.New("server: admission queue full")

// admit acquires a compile slot, waiting in the bounded queue. It returns
// a release function on success; errShed when the queue is full (the
// caller sheds with 429); or the context error when the deadline expires
// while queued.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	release = func() { <-s.slots }
	select {
	case s.slots <- struct{}{}:
		return release, nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		return nil, errShed
	}
	s.mQueue.Inc()
	defer func() {
		s.queued.Add(-1)
		s.mQueue.Dec()
	}()
	select {
	case s.slots <- struct{}{}:
		return release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// retryAfterSeconds estimates when capacity frees up: one queue drain's
// worth of requests ahead of us, at least a second.
func (s *Server) retryAfterSeconds() int {
	n := int(s.queued.Load())
	sec := (n + s.cfg.MaxConcurrent) / s.cfg.MaxConcurrent
	if sec < 1 {
		sec = 1
	}
	return sec
}

// ------------------------------------------------------------ middleware

// instrument wraps a handler with panic recovery, request counting, and
// latency observation. Panics become driver.PanicError + 500: the same
// containment the worker pool gives per-job, applied per-request.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.mRequests.With(endpoint).Inc()
		s.mInflight.Inc()
		s.inflight.Add(1)
		defer func() {
			s.inflight.Add(-1)
			s.mInflight.Dec()
			s.mLatency.Observe(time.Since(start).Seconds())
			if rv := recover(); rv != nil {
				stack := make([]byte, 64<<10)
				stack = stack[:runtime.Stack(stack, false)]
				perr := &driver.PanicError{Value: rv, Stack: stack}
				s.mPanics.Inc()
				s.logf("ursad: %s: %v\n%s", endpoint, perr, perr.Stack)
				s.writeError(w, http.StatusInternalServerError, perr.Error())
			}
		}()
		h(w, r)
	}
}

// writeJSON writes a 200 response body.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	s.mResponses.With(fmt.Sprint(code)).Inc()
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.writeJSON(w, code, ErrorResponse{Error: msg})
}

// apiError carries an HTTP status with a message through the compile path.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// errorStatus maps a compile-path error to its HTTP status: 400 for
// malformed requests, 504 for deadline expiry, 422 for programs the
// pipeline rejects (legitimate compile failures), 500 for panics.
func errorStatus(err error) int {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae.code
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		var pe *driver.PanicError
		if errors.As(err, &pe) {
			return http.StatusInternalServerError
		}
		return http.StatusUnprocessableEntity
	}
}

// -------------------------------------------------------------- handlers

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := HealthJSON{
		Status:        "ok",
		Draining:      s.draining.Load(),
		InFlight:      s.inflight.Load(),
		Queued:        s.queued.Load(),
		MeasureCache:  s.measureCacheJSON(),
		ArtifactCache: s.artifactStats(),
	}
	code := http.StatusOK
	if h.Draining {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, h)
}

func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	catalog := target.Presets()
	out := make([]MachineJSON, len(catalog))
	for i := range catalog {
		out[i] = machineJSON(&catalog[i])
	}
	s.writeJSON(w, http.StatusOK, out)
}

// decode reads a bounded JSON body into v.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &apiError{code: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes)}
		}
		return badRequest("bad request body: %v", err)
	}
	return nil
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req CompileRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, errorStatus(err), err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	release, err := s.admit(ctx)
	if errors.Is(err, errShed) {
		s.shed(w)
		return
	}
	if err != nil {
		s.writeError(w, http.StatusGatewayTimeout, "timed out waiting for a compile slot")
		return
	}
	defer release()
	if s.testHook != nil {
		s.testHook()
	}

	resp, err := s.compileOne(ctx, &req)
	if err != nil {
		s.writeError(w, errorStatus(err), err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) shed(w http.ResponseWriter) {
	s.mShed.Inc()
	sec := s.retryAfterSeconds()
	w.Header().Set("Retry-After", fmt.Sprint(sec))
	s.logf("ursad: shedding load (queue full, retry after %ds)", sec)
	s.writeError(w, http.StatusTooManyRequests,
		fmt.Sprintf("admission queue full (%d compiling, %d queued); retry after %ds",
			s.cfg.MaxConcurrent, s.queued.Load(), sec))
}

// compileOne is POST /v1/compile's body: compile's response wrapped in
// the per-request envelope — elapsed time, the measurement-cache delta,
// and the artifact-tier totals. Those vary with concurrency, so batch
// results carry compile's response without them.
func (s *Server) compileOne(ctx context.Context, cr *CompileRequest) (*CompileResponse, error) {
	start := time.Now()
	hits0, misses0 := s.cache.Stats()
	resp, err := s.compile(ctx, cr)
	if err != nil {
		return nil, err
	}
	hits1, misses1 := s.cache.Stats()
	resp.Cache.Hits, resp.Cache.Misses = hits1-hits0, misses1-misses0
	if s.artifacts != nil {
		resp.Cache.Artifacts = s.artifactStats()
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return resp, nil
}

// compile runs one request through the pipeline: parse, compile through
// the result cache, optionally execute and verify, optionally measure the
// gap to the exact solver, and assemble the response.
func (s *Server) compile(ctx context.Context, cr *CompileRequest) (*CompileResponse, error) {
	f, isPaper, err := cr.load()
	if err != nil {
		return nil, badRequest("parse: %v", err)
	}
	method, err := cr.method()
	if err != nil {
		return nil, badRequest("%v", err)
	}
	m, err := cr.Machine.resolve()
	if err != nil {
		return nil, badRequest("machine: %v", err)
	}

	opts := pipeline.Options{Optimize: cr.Optimize, Workers: cr.Workers, Ctx: ctx}
	opts.Core.Cache = s.cache
	if !cr.Run {
		// Execution needs the in-memory program; cached artifacts hold
		// listings only, so run requests always compile.
		opts.Results = s.artifacts
	}
	var cf *pipeline.CachedFunc
	var st *pipeline.Stats
	var loops []LoopJSON
	if cr.Loop {
		var ms *modsched.Result
		cf, st, ms, err = pipeline.CompileLoopCached(f, m, method, opts)
		if err == nil {
			for _, lr := range ms.Loops {
				loops = append(loops, LoopJSON{
					Head:        lr.HeadLabel,
					ResMII:      lr.ResMII,
					RecMII:      lr.RecMII,
					MII:         lr.MII,
					II:          lr.II,
					Stages:      lr.Stages,
					Unroll:      lr.Unroll,
					KernelWords: lr.KernelWords,
					AchievedII:  lr.AchievedII,
				})
				s.mLoopII.Observe(float64(lr.AchievedII))
				s.mLoopMII.Observe(float64(lr.MII))
			}
		}
	} else {
		cf, st, err = pipeline.CompileFuncCached(f, m, method, opts)
	}
	if err != nil {
		s.mCompileErr.With(method.String()).Inc()
		return nil, fmt.Errorf("compile: %w", err)
	}

	resp := &CompileResponse{
		Name:    cr.Name,
		Method:  method.String(),
		Machine: m.Name,
		Blocks:  artifactListings(cf.Artifact),
		Loops:   loops,
	}

	if cr.Run {
		init := cr.Init.state()
		if cr.Init == nil && isPaper {
			init = workload.PaperInit()
		}
		maxCycles := cr.MaxCycles
		if maxCycles <= 0 {
			maxCycles = 10_000_000
		}
		// Loop requests verify the pipelined code against the original,
		// unpipelined function.
		res, err := cf.Prog.Verify(f, init, maxCycles, cr.InOrder)
		if err != nil {
			s.mCompileErr.With(method.String()).Inc()
			return nil, err
		}
		st.RecordRun(res)
		resp.Run = &RunJSON{
			Cycles:   res.Cycles,
			Issued:   res.Issued,
			SpillOps: res.SpillOps,
			Blocks:   res.BlockXct,
			Mem:      memCells(res.State),
		}
	}
	resp.Stats = statsJSON(st)
	if cr.Gap {
		resp.Gap = s.gapReport(ctx, f, m, st)
	}

	if s.artifacts != nil {
		resp.Cache.Result = tierLabel(cf.Tier)
		resp.Cache.Key = cf.Key
	}
	s.mServedBy.With(tierLabel(cf.Tier)).Inc()
	s.mCompileOK.With(method.String()).Inc()
	return resp, nil
}

// gapReport runs the exact solver on every block of the function and
// compares the compiled stats against the proven optima: words against
// the summed program-model minima (the same aggregation Stats uses) and
// per-class registers against the maximum block pressure. Solver
// refusals — a block past the node limit, an exhausted search budget, or
// the request deadline — mark the report skipped instead of failing the
// request. Nonnegative gaps feed the ursa_heuristic_gap histogram.
func (s *Server) gapReport(ctx context.Context, f *ir.Func, m *machine.Config, st *pipeline.Stats) *GapJSON {
	words := 0
	var pressure [ir.NumClasses]int
	for i := range f.Blocks {
		g, err := dag.Build(f.Blocks[i])
		if err != nil {
			return &GapJSON{Skipped: fmt.Sprintf("block %s: %v", f.Blocks[i].Label, err)}
		}
		res, err := exact.Solve(g, m, exact.Options{Ctx: ctx})
		if err != nil {
			return &GapJSON{Skipped: fmt.Sprintf("block %s: %v", f.Blocks[i].Label, err)}
		}
		words += res.MinWordsProg
		for c := ir.Class(0); c < ir.NumClasses; c++ {
			if res.MinPressure[c] > pressure[c] {
				pressure[c] = res.MinPressure[c]
			}
		}
	}
	gap := &GapJSON{
		ExactWords:   words,
		ExactIntRegs: pressure[ir.ClassInt],
		ExactFPRegs:  pressure[ir.ClassFP],
		WordsGap:     st.Words - words,
		IntRegsGap:   st.RegsUsed[ir.ClassInt] - pressure[ir.ClassInt],
		FPRegsGap:    st.RegsUsed[ir.ClassFP] - pressure[ir.ClassFP],
	}
	observe := func(dim string, v int) {
		if v < 0 {
			v = 0 // spill code may dip below minimum pressure legitimately
		}
		s.mGap.With(dim).Observe(float64(v))
	}
	observe("words", gap.WordsGap)
	observe("intregs", gap.IntRegsGap)
	observe("fpregs", gap.FPRegsGap)
	return gap
}

// artifactListings renders the compiled blocks byte-identically to an
// in-process assign.Program.String() — artifacts store exactly that, so
// cold, disk-warm, and peer-served responses carry identical bytes.
func artifactListings(a *store.Artifact) []BlockListing {
	out := make([]BlockListing, len(a.Blocks))
	for i, b := range a.Blocks {
		out[i] = BlockListing{Label: b.Label, Listing: b.Listing}
	}
	return out
}

// measureCacheJSON snapshots the measurement cache for /healthz.
func (s *Server) measureCacheJSON() *MeasureCacheJSON {
	hits, misses := s.cache.Stats()
	entries, bytes := s.cache.Entries()
	return &MeasureCacheJSON{
		Entries:   entries,
		Bytes:     bytes,
		Hits:      hits,
		Misses:    misses,
		Evictions: s.cache.Evictions(),
		Coalesced: s.cache.Coalesced(),
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req BatchRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, errorStatus(err), err.Error())
		return
	}
	if len(req.Jobs) == 0 {
		s.writeError(w, http.StatusBadRequest, "batch has no jobs")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	// One admission slot per batch: the batch's own fan-out runs under
	// the driver's worker bound, so a batch costs one queue token however
	// many jobs it carries.
	release, err := s.admit(ctx)
	if errors.Is(err, errShed) {
		s.shed(w)
		return
	}
	if err != nil {
		s.writeError(w, http.StatusGatewayTimeout, "timed out waiting for a compile slot")
		return
	}
	defer release()
	if s.testHook != nil {
		s.testHook()
	}

	resp, err := s.runBatch(ctx, &req)
	if err != nil {
		s.writeError(w, errorStatus(err), err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// runBatch runs every job through compile on the parallel driver. Each
// result is exactly the job's /v1/compile body without the per-request
// envelope; one failed job never skips the rest.
func (s *Server) runBatch(ctx context.Context, br *BatchRequest) (*BatchResponse, error) {
	start := time.Now()
	hits0, misses0 := s.cache.Stats()

	resps, errs, _ := driver.Map(len(br.Jobs), func(i int) (*CompileResponse, error) {
		return s.compile(ctx, &br.Jobs[i])
	}, driver.Options{Workers: br.Workers, Ctx: ctx, KeepGoing: true})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results := make([]BatchResult, len(br.Jobs))
	nerr := 0
	for i := range results {
		if errs[i] != nil {
			results[i].Error = errs[i].Error()
			nerr++
			continue
		}
		results[i].CompileResponse = resps[i]
	}
	hits1, misses1 := s.cache.Stats()
	return &BatchResponse{
		Results:   results,
		Errors:    nerr,
		Cache:     CacheDelta{Hits: hits1 - hits0, Misses: misses1 - misses0},
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}, nil
}
