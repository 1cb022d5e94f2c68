// Command resonanced serves the simulation engine over HTTP: the
// sim-as-a-service front-end for every driver that wants results
// without linking the simulator.
//
// POST /v1/run accepts one spec or a grid as JSON and streams NDJSON
// results in spec order as they complete; identical in-flight requests
// from any number of connections coalesce onto one simulation through
// the engine's entry/waiter singleflight. GET /metrics exposes the
// cache tiers, queue depth, and per-endpoint latency histograms in
// Prometheus text format. SIGTERM (or Ctrl-C) drains gracefully:
// in-flight requests finish, bounded by -drain-timeout.
//
// Usage:
//
//	resonanced                               # listen on :8080
//	resonanced -addr :9090 -parallel 4
//	resonanced -cache-dir /var/cache/resonance -cache-gc
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cacheflags"
	"repro/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		parallel = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cache    = cacheflags.Register(flag.CommandLine)
		maxSpecs = flag.Int("max-specs", server.DefaultMaxSpecs, "largest grid accepted in one request")
		drain    = flag.Duration("drain-timeout", 30*time.Second, "bound on graceful drain after SIGTERM")
	)
	flag.Parse()

	eng := cache.Engine(*parallel)
	if cache.GC && cache.Dir != "" {
		fmt.Fprintf(os.Stderr, "resonanced: cache gc removed %d stale files\n", eng.CacheStats().DiskGCRemoved)
	}

	srv := server.New(server.Options{Engine: eng, MaxSpecs: *maxSpecs})
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Listen explicitly so ":0" reports the port it actually bound —
	// the smoke tests and local runs parse this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "resonanced: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "resonanced: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "resonanced: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of draining

	fmt.Fprintf(os.Stderr, "resonanced: draining (up to %s)\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "resonanced: drain overran: %v\n", err)
		httpSrv.Close()
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "resonanced: %v\n", err)
	}

	cacheflags.PrintStats(os.Stderr, eng)
	fmt.Fprintln(os.Stderr, "resonanced: drained")
}
