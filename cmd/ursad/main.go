// Command ursad is the URSA compile server: a long-lived HTTP/JSON daemon
// exposing the full compilation pipeline with batching, bounded-queue
// backpressure, an optional tiered artifact cache, and Prometheus metrics.
//
// Usage:
//
//	ursad [-addr :8347] [-concurrency N] [-queue N] [-timeout 60s]
//	      [-max-body 4194304] [-drain 30s] [-quiet] [-pprof]
//	      [-pprof-contention N]
//	      [-cache-dir DIR] [-cache-mem N] [-cache-disk N]
//	      [-peer URL] [-peer-timeout 2s]
//
// Endpoints:
//
//	POST /v1/compile     compile (and optionally run) one function
//	POST /v1/batch       fan a set of jobs over the parallel driver
//	GET  /v1/machines    list the machine presets
//	GET  /v1/cache/{key} peer cache protocol (GET/PUT framed artifacts)
//	GET  /healthz        liveness, drain state, artifact cache snapshot
//	GET  /metrics        Prometheus metrics
//
// Any of -cache-dir, -cache-mem, or -peer enables the tiered artifact
// cache (memory → disk → peer): compile results are replayed from the
// fastest tier that holds them instead of re-running the allocator, and
// two daemons pointed at each other via -peer share artifacts across the
// fleet. See docs/CACHE.md.
//
// The daemon drains gracefully on SIGINT/SIGTERM: it stops accepting
// connections, finishes in-flight requests (bounded by -drain), and exits
// 0. See docs/SERVER.md for the wire schema and tuning guidance.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ursa"
	"ursa/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8347", "listen address")
		concurrency = flag.Int("concurrency", 0, "max concurrent compiles (0: GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "admission queue depth beyond -concurrency (0: 64); overflow sheds 429")
		timeout     = flag.Duration("timeout", 0, "per-request compile deadline (0: 60s)")
		maxBody     = flag.Int64("max-body", 0, "request body size cap in bytes (0: 4MiB)")
		drain       = flag.Duration("drain", 0, "graceful shutdown budget (0: 30s)")
		quiet       = flag.Bool("quiet", false, "suppress operational log lines")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		contention  = flag.Int("pprof-contention", 0, "with -pprof: sample mutex contention at rate N and block events at N ns (0: off)")
		cacheDir    = flag.String("cache-dir", "", "artifact cache directory (persistent disk tier); empty: no disk tier")
		cacheMem    = flag.Int64("cache-mem", 0, "artifact cache memory-tier byte budget; enables caching even without -cache-dir (0 with -cache-dir: 64MiB)")
		cacheDisk   = flag.Int64("cache-disk", 0, "artifact cache disk-tier byte budget; older artifacts evict past it (0: 1GiB)")
		peerURL     = flag.String("peer", "", "peer ursad base URL (e.g. http://ursad-2:8347) consulted on local cache misses")
		peerTimeout = flag.Duration("peer-timeout", 0, "peer cache round-trip deadline (0: 2s); past it the daemon compiles locally")
	)
	flag.Parse()

	if *contention > 0 {
		// Off by default: both profiles tax every mutex/block event. With
		// -pprof the samples land under /debug/pprof/{mutex,block}.
		runtime.SetMutexProfileFraction(*contention)
		runtime.SetBlockProfileRate(*contention)
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	var artifacts *ursa.ResultCache
	if *cacheDir != "" || *cacheMem > 0 || *peerURL != "" {
		var err error
		artifacts, err = ursa.OpenResultCacheConfig(ursa.CacheConfig{
			Dir:         *cacheDir,
			MemBudget:   *cacheMem,
			DiskBudget:  *cacheDisk,
			PeerURL:     *peerURL,
			PeerTimeout: *peerTimeout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ursad: cache: %v\n", err)
			os.Exit(1)
		}
		switch {
		case *cacheDir != "" && *peerURL != "":
			logf("ursad: artifact cache on (memory + disk %s + peer %s)", *cacheDir, *peerURL)
		case *cacheDir != "":
			logf("ursad: artifact cache on (memory + disk %s)", *cacheDir)
		case *peerURL != "":
			logf("ursad: artifact cache on (memory + peer %s)", *peerURL)
		default:
			logf("ursad: artifact cache on (memory only)")
		}
	}
	srv := server.New(server.Config{
		MaxConcurrent:  *concurrency,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		DrainTimeout:   *drain,
		Artifacts:      artifacts,
		Logf:           logf,
		EnablePprof:    *pprofOn,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		fmt.Fprintf(os.Stderr, "ursad: %v\n", err)
		os.Exit(1)
	}
	logf("ursad: clean exit after %s", time.Since(start).Round(time.Millisecond))
}
