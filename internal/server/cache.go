package server

import (
	"io"
	"net/http"
	"strings"

	"ursa/internal/store"
)

// maxCacheBody caps one peer-pushed artifact. Larger than the compile
// body cap: an artifact carries emitted listings, not source.
const maxCacheBody = 64 << 20

// handleCache serves the peer cache protocol on /v1/cache/{key}:
//
//	GET  returns the framed artifact (sha256 header + payload) or 404.
//	PUT  verifies the framed body and stores it locally.
//
// Lookups and stores touch only this daemon's memory and disk tiers —
// never its own peer — so two daemons pointed at each other share
// artifacts without forwarding loops.
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	if s.artifacts == nil {
		s.writeError(w, http.StatusNotFound, "artifact cache disabled (start with -cache-dir or -cache-mem)")
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/v1/cache/")
	if !store.ValidKey(key) {
		s.writeError(w, http.StatusBadRequest, "bad cache key")
		return
	}
	switch r.Method {
	case http.MethodGet:
		data, ok := s.artifacts.LocalGet(key)
		if !ok {
			s.writeError(w, http.StatusNotFound, "cache miss")
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(store.Frame(data))
		s.mResponses.With("200").Inc()
	case http.MethodPut:
		raw, err := io.ReadAll(io.LimitReader(r.Body, maxCacheBody+1))
		if err != nil || len(raw) > maxCacheBody {
			s.writeError(w, http.StatusRequestEntityTooLarge, "artifact too large")
			return
		}
		payload, ok := store.Unframe(raw)
		if !ok {
			// The peer's bytes do not match their own hash: a truncated
			// or corrupted transfer. Refuse it; never store bad bytes.
			s.writeError(w, http.StatusBadRequest, "artifact failed integrity check")
			return
		}
		s.artifacts.LocalPut(key, payload)
		w.WriteHeader(http.StatusNoContent)
		s.mResponses.With("204").Inc()
	default:
		s.writeError(w, http.StatusMethodNotAllowed, "use GET or PUT")
	}
}

// tierLabel names the tier that served a compile for responses and the
// per-tier served counter ("compiled" when no cache tier answered).
func tierLabel(t store.Tier) string {
	if t == store.TierNone {
		return "compiled"
	}
	return t.String()
}

// artifactStats snapshots the tiered cache for responses and /healthz,
// nil when the cache is disabled.
func (s *Server) artifactStats() *store.TierStats {
	if s.artifacts == nil {
		return nil
	}
	st := s.artifacts.Stats()
	return &st
}

// registerCacheMetrics exposes every artifact tier's counters. The memory and
// flight series always exist when the cache is on; disk and peer series
// are registered only when those tiers are configured, so a scrape shows
// exactly the deployed topology.
func (s *Server) registerCacheMetrics() {
	r := s.reg
	if s.artifacts == nil {
		return
	}
	mem := func(f func(store.MemStats) float64) func() float64 {
		return func() float64 { return f(s.artifacts.Stats().Mem) }
	}
	r.Func("ursad_artifact_mem_hits_total", "artifact cache memory-tier hits", "counter",
		mem(func(m store.MemStats) float64 { return float64(m.Hits) }))
	r.Func("ursad_artifact_mem_misses_total", "artifact cache memory-tier misses", "counter",
		mem(func(m store.MemStats) float64 { return float64(m.Misses) }))
	r.Func("ursad_artifact_mem_evictions_total", "artifact cache memory-tier evictions", "counter",
		mem(func(m store.MemStats) float64 { return float64(m.Evictions) }))
	r.Func("ursad_artifact_mem_entries", "artifact cache memory-tier entries", "gauge",
		mem(func(m store.MemStats) float64 { return float64(m.Entries) }))
	r.Func("ursad_artifact_mem_bytes", "artifact cache memory-tier bytes", "gauge",
		mem(func(m store.MemStats) float64 { return float64(m.Bytes) }))
	r.Func("ursad_artifact_computes_total", "compile results computed locally (artifact cache misses)", "counter", func() float64 {
		return float64(s.artifacts.Stats().Computes)
	})
	r.Func("ursad_artifact_coalesced_total", "compiles coalesced onto a concurrent identical compile", "counter", func() float64 {
		return float64(s.artifacts.Stats().Coalesced)
	})
	if s.artifacts.Disk() != nil {
		disk := func(f func(store.StoreStats) float64) func() float64 {
			return func() float64 { return f(s.artifacts.Disk().Stats()) }
		}
		r.Func("ursad_artifact_disk_hits_total", "artifact cache disk-tier hits", "counter",
			disk(func(d store.StoreStats) float64 { return float64(d.Hits) }))
		r.Func("ursad_artifact_disk_misses_total", "artifact cache disk-tier misses", "counter",
			disk(func(d store.StoreStats) float64 { return float64(d.Misses) }))
		r.Func("ursad_artifact_disk_puts_total", "artifact cache disk-tier stores", "counter",
			disk(func(d store.StoreStats) float64 { return float64(d.Puts) }))
		r.Func("ursad_artifact_disk_evictions_total", "artifact cache disk-tier evictions under the byte budget", "counter",
			disk(func(d store.StoreStats) float64 { return float64(d.Evictions) }))
		r.Func("ursad_artifact_disk_corruptions_total", "artifacts that failed sha256 verification on read", "counter",
			disk(func(d store.StoreStats) float64 { return float64(d.Corruptions) }))
		r.Func("ursad_artifact_disk_write_errors_total", "artifact writes that failed (disk full, permissions)", "counter",
			disk(func(d store.StoreStats) float64 { return float64(d.WriteErrors) }))
		r.Func("ursad_artifact_disk_entries", "artifacts on disk", "gauge",
			disk(func(d store.StoreStats) float64 { return float64(d.Entries) }))
		r.Func("ursad_artifact_disk_bytes", "artifact bytes on disk", "gauge",
			disk(func(d store.StoreStats) float64 { return float64(d.Bytes) }))
	}
	if ps := s.artifacts.Stats().Peer; ps != nil {
		peer := func(f func(store.PeerStats) float64) func() float64 {
			return func() float64 {
				if p := s.artifacts.Stats().Peer; p != nil {
					return f(*p)
				}
				return 0
			}
		}
		r.Func("ursad_artifact_peer_gets_total", "peer cache lookups issued", "counter",
			peer(func(p store.PeerStats) float64 { return float64(p.Gets) }))
		r.Func("ursad_artifact_peer_hits_total", "peer cache lookups that hit", "counter",
			peer(func(p store.PeerStats) float64 { return float64(p.Hits) }))
		r.Func("ursad_artifact_peer_puts_total", "artifacts pushed to the peer", "counter",
			peer(func(p store.PeerStats) float64 { return float64(p.Puts) }))
		r.Func("ursad_artifact_peer_errors_total", "peer round-trips that failed (timeout, refused, bad body)", "counter",
			peer(func(p store.PeerStats) float64 { return float64(p.Errors) }))
	}
}
