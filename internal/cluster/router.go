package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"ursa/internal/cache"
	"ursa/internal/metrics"
	"ursa/internal/server"
	"ursa/internal/store"
)

// Config tunes the router. Backends is required; every other field has a
// serviceable default.
type Config struct {
	// Backends are the shard base URLs ("http://host:8347"). The set is
	// fixed for the router's lifetime; health probes decide which members
	// are currently routable.
	Backends []string
	// VNodes is the ring's virtual-node count per shard (<= 0:
	// DefaultVNodes).
	VNodes int
	// ProbeInterval spaces health probes (0: 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz round-trip (0: 1s).
	ProbeTimeout time.Duration
	// EjectAfter is how many consecutive probe failures eject a shard
	// from the ring (0: 2). A transport error on a forwarded request
	// ejects immediately — a refused connection is stronger evidence
	// than a missed probe.
	EjectAfter int
	// ReadmitBackoff is the initial wait before an ejected shard is
	// probed for readmission; it doubles per failed probe up to
	// MaxBackoff (0: 1s).
	ReadmitBackoff time.Duration
	// MaxBackoff caps the readmission backoff (0: 30s).
	MaxBackoff time.Duration
	// SpillDepth is the admission-queue depth (from the shard's last
	// /healthz) past which the owner is considered overloaded and the
	// key spills to the next ring successor. Negative disables spillover
	// (0: 8).
	SpillDepth int64
	// HedgeDelay is how long a compile may sit on the owner before the
	// router hedges it against the fleet's peer cache tier. Negative
	// disables hedging (0: 150ms).
	HedgeDelay time.Duration
	// RequestTimeout bounds one forwarded request end to end (0: 120s —
	// above ursad's default 60s compile deadline, so the shard's own
	// timeout fires first and its 504 is forwarded rather than
	// manufactured here).
	RequestTimeout time.Duration
	// PeerTimeout bounds one hedged /v1/cache fetch (0: 2s).
	PeerTimeout time.Duration
	// MaxBodyBytes caps a request body (0: 4 MiB).
	MaxBodyBytes int64
	// Registry receives the router's metrics (nil: fresh registry).
	Registry *metrics.Registry
	// Logf, when non-nil, receives one line per ejection, readmission,
	// spillover, and hedge won.
	Logf func(format string, args ...any)
}

// Router is the cluster front end: it owns the hash ring, the backend
// health state, and the HTTP handler that places every compile on the
// shard owning its cache key. Create with New, mount Handler, and Close
// when done (stops the probe loop).
type Router struct {
	cfg   Config
	reg   *metrics.Registry
	mux   *http.ServeMux
	ring  *Ring
	bmu   sync.Mutex // guards eject/readmit transitions
	backs map[string]*backend
	names []string // sorted, fixed at construction

	flight cache.Flight[string, []byte]
	stop   chan struct{}
	done   chan struct{}

	mRequests    *metrics.CounterVec
	mResponses   *metrics.CounterVec
	mBackendReqs *metrics.CounterVec
	mBackendErrs *metrics.CounterVec
	mBackendSecs *metrics.HistogramVec
	mHealthy     *metrics.GaugeVec
	mQueueDepth  *metrics.GaugeVec
	mRebalances  *metrics.Counter
	mSpillovers  *metrics.Counter
	mHedges      *metrics.Counter
	mHedgesWon   *metrics.Counter
	mCoalesced   *metrics.Counter
	mFailovers   *metrics.Counter
}

// New builds a router over the configured shards and starts its health
// probe loop. Every shard starts routable; the first probe round
// corrects that within ProbeInterval.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.EjectAfter <= 0 {
		cfg.EjectAfter = 2
	}
	if cfg.ReadmitBackoff <= 0 {
		cfg.ReadmitBackoff = time.Second
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 30 * time.Second
	}
	if cfg.SpillDepth == 0 {
		cfg.SpillDepth = 8
	}
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = 150 * time.Millisecond
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 120 * time.Second
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = store.DefaultPeerTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 4 << 20
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}

	r := &Router{
		cfg:   cfg,
		reg:   cfg.Registry,
		ring:  NewRing(cfg.VNodes),
		backs: make(map[string]*backend),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for _, base := range cfg.Backends {
		base = strings.TrimRight(base, "/")
		if _, dup := r.backs[base]; dup {
			return nil, fmt.Errorf("cluster: duplicate backend %q", base)
		}
		b, err := newBackend(base, cfg.RequestTimeout, cfg.PeerTimeout)
		if err != nil {
			return nil, err
		}
		r.backs[base] = b
		r.names = append(r.names, base)
		r.ring.Add(base)
	}

	reg := r.reg
	r.mRequests = reg.CounterVec("ursagw_requests_total", "requests received by endpoint", "endpoint")
	r.mResponses = reg.CounterVec("ursagw_responses_total", "responses sent by status code", "code")
	r.mBackendReqs = reg.CounterVec("ursagw_backend_requests_total", "requests forwarded by backend", "backend")
	r.mBackendErrs = reg.CounterVec("ursagw_backend_errors_total", "forwarded requests that failed in transport by backend", "backend")
	r.mBackendSecs = reg.HistogramVec("ursagw_backend_seconds", "forwarded request latency in seconds by backend", "backend", nil)
	r.mHealthy = reg.GaugeVec("ursagw_backend_healthy", "1 while the backend is in the ring, 0 while ejected", "backend")
	r.mQueueDepth = reg.GaugeVec("ursagw_backend_queue_depth", "backend admission queue depth at the last health probe", "backend")
	r.mRebalances = reg.Counter("ursagw_rebalances_total", "ring membership changes (ejections plus readmissions)")
	r.mSpillovers = reg.Counter("ursagw_spillovers_total", "requests routed past an overloaded owner to a ring successor")
	r.mHedges = reg.Counter("ursagw_hedges_total", "compiles hedged against the peer cache tier")
	r.mHedgesWon = reg.Counter("ursagw_hedges_won_total", "hedged compiles answered by the peer cache tier before the owner")
	r.mCoalesced = reg.Counter("ursagw_coalesced_total", "requests coalesced onto an identical in-flight request")
	r.mFailovers = reg.Counter("ursagw_failovers_total", "requests retried on a ring successor after a transport failure")
	for _, name := range r.names {
		r.mHealthy.With(name).Set(1)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", r.instrument("compile", r.handleCompile))
	mux.HandleFunc("/v1/batch", r.instrument("batch", r.handleBatch))
	mux.HandleFunc("/v1/cache/", r.instrument("cache", r.handleCache))
	mux.HandleFunc("/v1/machines", r.instrument("machines", r.handleMachines))
	mux.HandleFunc("/healthz", r.handleHealthz)
	mux.Handle("/metrics", reg.Handler())
	r.mux = mux

	go r.probeLoop()
	return r, nil
}

// Handler returns the router's routed handler.
func (r *Router) Handler() http.Handler { return r.mux }

// Registry returns the router's metrics registry.
func (r *Router) Registry() *metrics.Registry { return r.reg }

// Ring returns the router's hash ring (shared, live).
func (r *Router) Ring() *Ring { return r.ring }

// Close stops the probe loop. The handler keeps serving (with frozen
// health state) until the process exits.
func (r *Router) Close() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
		<-r.done
	}
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// ------------------------------------------------------------ membership

// probeLoop drives the health checks: routable shards are probed every
// interval and ejected after EjectAfter consecutive failures; ejected
// shards are probed on an exponential backoff and readmitted on the
// first success.
func (r *Router) probeLoop() {
	defer close(r.done)
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	ctx := context.Background()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		now := time.Now()
		for _, name := range r.names {
			b := r.backs[name]
			if b.healthy.Load() {
				if b.probeOnce(ctx, r.cfg.ProbeTimeout) {
					b.mu.Lock()
					b.fails = 0
					b.mu.Unlock()
					r.mQueueDepth.With(name).Set(b.queued.Load())
					continue
				}
				b.mu.Lock()
				b.fails++
				eject := b.fails >= r.cfg.EjectAfter
				b.mu.Unlock()
				if eject {
					r.eject(b, "probe failures")
				}
				continue
			}
			b.mu.Lock()
			due := !now.Before(b.nextProbe)
			b.mu.Unlock()
			if !due {
				continue
			}
			if b.probeOnce(ctx, r.cfg.ProbeTimeout) {
				r.readmit(b)
				continue
			}
			b.mu.Lock()
			b.backoff *= 2
			if b.backoff > r.cfg.MaxBackoff {
				b.backoff = r.cfg.MaxBackoff
			}
			b.nextProbe = time.Now().Add(b.backoff)
			b.mu.Unlock()
		}
	}
}

// eject removes the shard from the ring; its keys flow to their ring
// successors until readmission.
func (r *Router) eject(b *backend, why string) {
	r.bmu.Lock()
	defer r.bmu.Unlock()
	if !b.healthy.Load() {
		return
	}
	b.healthy.Store(false)
	b.mu.Lock()
	b.fails = 0
	b.backoff = r.cfg.ReadmitBackoff
	b.nextProbe = time.Now().Add(b.backoff)
	b.mu.Unlock()
	r.ring.Remove(b.name)
	r.mRebalances.Inc()
	r.mHealthy.With(b.name).Set(0)
	r.logf("ursagw: ejected %s (%s); %d shards in ring", b.name, why, r.ring.Len())
}

// readmit returns the shard to the ring after a successful probe.
func (r *Router) readmit(b *backend) {
	r.bmu.Lock()
	defer r.bmu.Unlock()
	if b.healthy.Load() {
		return
	}
	b.healthy.Store(true)
	b.mu.Lock()
	b.fails = 0
	b.mu.Unlock()
	r.ring.Add(b.name)
	r.mRebalances.Inc()
	r.mHealthy.With(b.name).Set(1)
	r.logf("ursagw: readmitted %s; %d shards in ring", b.name, r.ring.Len())
}

// --------------------------------------------------------------- routing

// candidates returns the routable shards for key in preference order:
// the ring owner first, then its successors (the failover order). When
// the owner's last-known admission queue is deeper than SpillDepth and a
// later candidate is under it, that candidate is promoted to the front —
// the load-aware spillover.
func (r *Router) candidates(key string) []*backend {
	names := r.ring.Successors(key, len(r.names))
	out := make([]*backend, 0, len(names))
	for _, n := range names {
		if b := r.backs[n]; b.healthy.Load() {
			out = append(out, b)
		}
	}
	if len(out) > 1 && r.cfg.SpillDepth >= 0 && out[0].queued.Load() > r.cfg.SpillDepth {
		for i := 1; i < len(out); i++ {
			if out[i].queued.Load() <= r.cfg.SpillDepth {
				spill := out[i]
				copy(out[1:i+1], out[:i])
				out[0] = spill
				r.mSpillovers.Inc()
				r.logf("ursagw: spillover %s to %s (owner queue deep)", shortKey(key), spill.name)
				break
			}
		}
	}
	return out
}

// shortKey abbreviates a key for logs. Cache keys from clients may be as
// short as two characters.
func shortKey(key string) string {
	if len(key) > 8 {
		return key[:8] + "…"
	}
	return key
}

// upstream is one forwarded response, reduced to what the client needs:
// the status, the backpressure header, and the body bytes. It is also
// the payload coalesced requests share through the single-flight group.
type upstream struct {
	Status     int    `json:"status"`
	RetryAfter string `json:"retry_after,omitempty"`
	Body       []byte `json:"body"`
}

// forward sends the request to the candidates in order, returning the
// first HTTP response obtained — whatever its status, including 429
// (forwarded faithfully, Retry-After intact). A transport failure ejects
// the shard and fails over to the next candidate; only when every
// candidate is unreachable does forward report an error.
func (r *Router) forward(ctx context.Context, method, path string, body []byte, cands []*backend) (*upstream, error) {
	var lastErr error
	for i, b := range cands {
		if i > 0 {
			r.mFailovers.Inc()
		}
		start := time.Now()
		r.mBackendReqs.With(b.name).Inc()
		req, err := http.NewRequestWithContext(ctx, method, b.name+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := b.hc.Do(req)
		if err != nil {
			r.mBackendErrs.With(b.name).Inc()
			lastErr = err
			if ctx.Err() != nil {
				// The client (or the hedge winner) cancelled; not the
				// shard's fault.
				return nil, ctx.Err()
			}
			r.eject(b, "request transport error")
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody+1))
		resp.Body.Close()
		if err != nil || int64(len(data)) > maxProxyBody {
			r.mBackendErrs.With(b.name).Inc()
			lastErr = fmt.Errorf("cluster: reading %s response: %w", b.name, err)
			continue
		}
		r.mBackendSecs.With(b.name).Observe(time.Since(start).Seconds())
		return &upstream{
			Status:     resp.StatusCode,
			RetryAfter: resp.Header.Get("Retry-After"),
			Body:       data,
		}, nil
	}
	if lastErr == nil {
		lastErr = errors.New("no routable shard")
	}
	return nil, fmt.Errorf("cluster: every shard failed: %w", lastErr)
}

// maxProxyBody caps one forwarded response (listings can be large, but
// bounded by the shard's own body and batch limits).
const maxProxyBody = 256 << 20

// ------------------------------------------------------------- /v1/compile

func (r *Router) handleCompile(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		r.writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.cfg.MaxBodyBytes))
	if err != nil {
		r.writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", r.cfg.MaxBodyBytes))
		return
	}
	var cr server.CompileRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cr); err != nil {
		r.writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	key, err := cr.CacheKey()
	if err != nil {
		r.writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	ctx, cancel := context.WithTimeout(req.Context(), r.cfg.RequestTimeout)
	defer cancel()

	// Coalesce byte-identical concurrent requests: one upstream compile,
	// every caller shares the response. The flight key includes the body
	// hash, not just the cache key, because the cache key deliberately
	// excludes execution fields (run/init) whose responses differ.
	sum := sha256.Sum256(body)
	flightKey := key + "|" + hex.EncodeToString(sum[:8])
	data, err, leader := r.flight.Do(flightKey, func() ([]byte, error) {
		up, err := r.routeCompile(ctx, key, &cr, body)
		if err != nil {
			return nil, err
		}
		return json.Marshal(up)
	})
	if !leader {
		r.mCoalesced.Inc()
	}
	if err != nil {
		r.writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	var up upstream
	if err := json.Unmarshal(data, &up); err != nil {
		r.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	r.writeUpstream(w, &up)
}

// routeCompile places one compile: pick candidates, forward to the
// owner, and — for requests a cached artifact can answer — hedge against
// the fleet's peer cache tier when the owner is slow. An artifact carries
// blocks and statistics only, so run, gap and loop requests, whose
// responses add fields the artifact cannot supply, never hedge.
func (r *Router) routeCompile(ctx context.Context, key string, cr *server.CompileRequest, body []byte) (*upstream, error) {
	cands := r.candidates(key)
	if len(cands) == 0 {
		return nil, errors.New("no routable shard")
	}
	hedgeable := !cr.Run && !cr.Gap && !cr.Loop && r.cfg.HedgeDelay >= 0 && len(r.names) > 1
	if !hedgeable {
		return r.forward(ctx, http.MethodPost, "/v1/compile", body, cands)
	}

	fctx, fcancel := context.WithCancel(ctx)
	defer fcancel()
	primary := make(chan *upstream, 1)
	perr := make(chan error, 1)
	go func() {
		up, err := r.forward(fctx, http.MethodPost, "/v1/compile", body, cands)
		if err != nil {
			perr <- err
			return
		}
		primary <- up
	}()

	hedgeTimer := time.NewTimer(r.cfg.HedgeDelay)
	defer hedgeTimer.Stop()
	select {
	case up := <-primary:
		return up, nil
	case err := <-perr:
		return nil, err
	case <-hedgeTimer.C:
	}

	// The owner is slow; race the rest of the fleet's caches against it.
	r.mHedges.Inc()
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	hedged := make(chan *upstream, 1)
	go func() {
		if art, ok := r.peerArtifact(hctx, key, cands[0]); ok {
			if up, err := hedgeUpstream(cr.Name, key, art); err == nil {
				hedged <- up
			}
		}
	}()
	select {
	case up := <-primary:
		return up, nil
	case err := <-perr:
		// The owner leg died; a hedge hit can still save the request.
		select {
		case up := <-hedged:
			r.mHedgesWon.Inc()
			return up, nil
		case <-time.After(r.cfg.PeerTimeout):
			return nil, err
		case <-ctx.Done():
			return nil, err
		}
	case up := <-hedged:
		r.mHedgesWon.Inc()
		fcancel() // cancel the losing leg through the peer client's context
		r.logf("ursagw: hedge won for %s", shortKey(key))
		return up, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// peerArtifact asks every routable shard except the primary for the
// artifact under key, in ring order, over the /v1/cache peer protocol.
func (r *Router) peerArtifact(ctx context.Context, key string, primary *backend) (*store.Artifact, bool) {
	for _, name := range r.ring.Successors(key, len(r.names)) {
		b := r.backs[name]
		if b == primary || !b.healthy.Load() {
			continue
		}
		if ctx.Err() != nil {
			return nil, false
		}
		payload, ok := b.peer.GetCtx(ctx, key)
		if !ok {
			continue
		}
		art, err := store.DecodeArtifact(payload)
		if err != nil {
			continue
		}
		return art, true
	}
	return nil, false
}

// hedgeUpstream renders a cached artifact as the compile response the
// owner would have sent: identical blocks and statistics, with the cache
// tier reported as "peer".
func hedgeUpstream(name, key string, art *store.Artifact) (*upstream, error) {
	resp := server.CompileResponse{
		Name:    name,
		Method:  art.Method,
		Machine: art.Machine,
		Stats: server.StatsJSON{
			Words:          art.Stats.Words,
			SpillOps:       art.Stats.SpillOps,
			IntRegs:        art.Stats.IntRegs,
			FPRegs:         art.Stats.FPRegs,
			URSATransforms: art.Stats.URSATransforms,
			URSAFits:       art.Stats.URSAFits,
		},
		Cache: server.CacheJSON{Result: store.TierPeer.String(), Key: key},
	}
	for _, b := range art.Blocks {
		resp.Blocks = append(resp.Blocks, server.BlockListing{Label: b.Label, Listing: b.Listing})
	}
	body, err := json.MarshalIndent(&resp, "", "  ")
	if err != nil {
		return nil, err
	}
	return &upstream{Status: http.StatusOK, Body: append(body, '\n')}, nil
}

// --------------------------------------------------------------- /v1/batch

func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		r.writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.cfg.MaxBodyBytes))
	if err != nil {
		r.writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", r.cfg.MaxBodyBytes))
		return
	}
	var br server.BatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&br); err != nil {
		r.writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if len(br.Jobs) == 0 {
		r.writeError(w, http.StatusBadRequest, "batch has no jobs")
		return
	}
	ctx, cancel := context.WithTimeout(req.Context(), r.cfg.RequestTimeout)
	defer cancel()

	start := time.Now()
	results := make([]server.BatchResult, len(br.Jobs))
	keys := make([]string, len(br.Jobs))
	pending := make([]int, 0, len(br.Jobs)) // indices still to serve
	for i := range br.Jobs {
		key, err := br.Jobs[i].CacheKey()
		if err != nil {
			results[i] = server.BatchResult{Error: err.Error()}
			continue
		}
		keys[i] = key
		pending = append(pending, i)
	}

	// Shard the batch: group the jobs by their keys' owners, forward the
	// sub-batches concurrently, and merge results back in submission
	// order. A shard lost mid-batch ejects and its sub-batch re-shards
	// over the survivors, so a batch outlives any single backend.
	for attempt := 0; len(pending) > 0 && attempt <= len(r.names); attempt++ {
		groups := make(map[*backend][]int)
		for _, i := range pending {
			cands := r.candidates(keys[i])
			if len(cands) == 0 {
				results[i] = server.BatchResult{Error: "no routable shard"}
				continue
			}
			groups[cands[0]] = append(groups[cands[0]], i)
		}
		pending = pending[:0]

		type groupOut struct {
			idx  []int
			up   *upstream
			err  error
			resp *server.BatchResponse
		}
		outs := make(chan groupOut, len(groups))
		for b, idx := range groups {
			go func(b *backend, idx []int) {
				sub := server.BatchRequest{Workers: br.Workers}
				for _, i := range idx {
					sub.Jobs = append(sub.Jobs, br.Jobs[i])
				}
				sb, err := json.Marshal(&sub)
				if err != nil {
					outs <- groupOut{idx: idx, err: err}
					return
				}
				up, err := r.forward(ctx, http.MethodPost, "/v1/batch", sb, []*backend{b})
				out := groupOut{idx: idx, up: up, err: err}
				if err == nil && up.Status == http.StatusOK {
					var resp server.BatchResponse
					if jerr := json.Unmarshal(up.Body, &resp); jerr == nil && len(resp.Results) == len(idx) {
						out.resp = &resp
					}
				}
				outs <- out
			}(b, idx)
		}

		var shed *upstream
		for range groups {
			out := <-outs
			switch {
			case out.err != nil:
				// Transport failure: the shard was ejected by forward;
				// re-route these jobs over the survivors.
				pending = append(pending, out.idx...)
			case out.up.Status == http.StatusTooManyRequests:
				// Backpressure is forwarded faithfully: the whole batch
				// reports 429 with the shard's Retry-After.
				shed = out.up
			case out.resp != nil:
				for j, i := range out.idx {
					results[i] = out.resp.Results[j]
				}
			default:
				// Some other upstream failure (timeout, 5xx): surface it
				// per-job rather than failing jobs routed elsewhere.
				for _, i := range out.idx {
					results[i] = server.BatchResult{Error: fmt.Sprintf("shard error (HTTP %d)", out.up.Status)}
				}
			}
		}
		if shed != nil {
			r.writeUpstream(w, shed)
			return
		}
	}
	for _, i := range pending {
		results[i] = server.BatchResult{Error: "no routable shard"}
	}

	nerr := 0
	for i := range results {
		if results[i].Error != "" {
			nerr++
		}
	}
	resp := server.BatchResponse{
		Results:   results,
		Errors:    nerr,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	r.writeJSON(w, http.StatusOK, &resp)
}

// ------------------------------------------------------- /v1/cache, /v1/machines

func (r *Router) handleCache(w http.ResponseWriter, req *http.Request) {
	key := strings.TrimPrefix(req.URL.Path, "/v1/cache/")
	if !store.ValidKey(key) {
		r.writeError(w, http.StatusBadRequest, "bad cache key")
		return
	}
	var body []byte
	switch req.Method {
	case http.MethodGet:
	case http.MethodPut:
		var err error
		body, err = io.ReadAll(io.LimitReader(req.Body, maxProxyBody+1))
		if err != nil || int64(len(body)) > maxProxyBody {
			r.writeError(w, http.StatusRequestEntityTooLarge, "artifact too large")
			return
		}
	default:
		r.writeError(w, http.StatusMethodNotAllowed, "use GET or PUT")
		return
	}
	cands := r.candidates(key)
	if len(cands) == 0 {
		r.writeError(w, http.StatusBadGateway, "no routable shard")
		return
	}
	up, err := r.forward(req.Context(), req.Method, "/v1/cache/"+key, body, cands)
	if err != nil {
		r.writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	r.writeRaw(w, up, "application/octet-stream")
}

func (r *Router) handleMachines(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		r.writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	var cands []*backend
	for _, name := range r.names {
		if b := r.backs[name]; b.healthy.Load() {
			cands = append(cands, b)
		}
	}
	if len(cands) == 0 {
		r.writeError(w, http.StatusBadGateway, "no routable shard")
		return
	}
	up, err := r.forward(req.Context(), http.MethodGet, "/v1/machines", nil, cands)
	if err != nil {
		r.writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	r.writeUpstream(w, up)
}

// ----------------------------------------------------------------- healthz

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	h := RouterHealth{Status: "ok"}
	for _, name := range r.names {
		b := r.backs[name]
		ok := b.healthy.Load()
		if ok {
			h.Healthy++
		}
		h.Backends = append(h.Backends, BackendHealth{
			Name:    name,
			Healthy: ok,
			Queued:  b.queued.Load(),
		})
	}
	code := http.StatusOK
	if h.Healthy == 0 {
		h.Status = "down"
		code = http.StatusServiceUnavailable
	}
	r.writeJSON(w, code, &h)
}

// --------------------------------------------------------------- plumbing

// instrument wraps a handler with request counting and panic recovery.
func (r *Router) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		r.mRequests.With(endpoint).Inc()
		defer func() {
			if rv := recover(); rv != nil {
				r.logf("ursagw: %s: panic: %v", endpoint, rv)
				r.writeError(w, http.StatusInternalServerError, fmt.Sprint(rv))
			}
		}()
		h(w, req)
	}
}

// writeUpstream relays a forwarded response: status, Retry-After, body.
func (r *Router) writeUpstream(w http.ResponseWriter, up *upstream) {
	r.writeRaw(w, up, "application/json")
}

func (r *Router) writeRaw(w http.ResponseWriter, up *upstream, contentType string) {
	if up.RetryAfter != "" {
		w.Header().Set("Retry-After", up.RetryAfter)
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(up.Status)
	_, _ = w.Write(up.Body)
	r.mResponses.With(fmt.Sprint(up.Status)).Inc()
}

func (r *Router) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	r.mResponses.With(fmt.Sprint(code)).Inc()
}

func (r *Router) writeError(w http.ResponseWriter, code int, msg string) {
	r.writeJSON(w, code, server.ErrorResponse{Error: msg})
}
